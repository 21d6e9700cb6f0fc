package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// smokeRun runs one tiny benchmark invocation and returns its result line.
func smokeRun(t *testing.T, workload, trace string) resultLine {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
		"--build-dir", dir, "--out", filepath.Join(dir, "record.json")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s trace=%s: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, line.Correct, line.Attempted, line.Failed)
	}
	return line
}

func checkMetrics(t *testing.T, what string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: metric %s in %q, want %q", what, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmokePrintsEveryMetric: a tiny run of each quick workload prints
// every end-to-end metric untraced and every per-layer metric traced, each
// with its unit; every end-to-end value is nonzero.
func TestSmokePrintsEveryMetric(t *testing.T) {
	for _, w := range []string{"wide", "serve"} {
		line := smokeRun(t, w, "0")
		checkMetrics(t, w+" trace=0", line.Metrics, endToEnd)
		for name, v := range line.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w, name, v.Value)
			}
		}
		checkMetrics(t, w+" trace=1", smokeRun(t, w, "1").Metrics, perLayer)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the binary in
// step: same workloads, same metric names, units and directions.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"deep", "serve", "wide"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the binary's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the binary's")
	}
}

// TestCompareRefusesOtherMachines: compare prints a table for two records
// of one machine and refuses records whose fingerprints differ.
func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	fp := fingerprint{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", RefLoopNS: 3.5}
	write := func(name string, f fingerprint, p50 float64) string {
		data, err := json.Marshal(record{Workload: "wide", Fingerprint: f, Metrics: map[string]float64{"p50_ms": p50}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", fp, 1)
	near := fp
	near.RefLoopNS = 3.6
	far := fp
	far.RefLoopNS = 4.5
	other := fp
	other.CPUModel = "other cpu"
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", a, write("b.json", near, 1.1)}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "p50_ms") {
		t.Fatalf("same machine: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	for name, f := range map[string]fingerprint{"slower reference loop": far, "other CPU": other} {
		errOut.Reset()
		if code := run([]string{"compare", a, write("c.json", f, 1)}, &out, &errOut); code == 0 || !strings.Contains(errOut.String(), "refusing") {
			t.Errorf("%s: exit %d, stderr %q", name, code, errOut.String())
		}
	}
}
