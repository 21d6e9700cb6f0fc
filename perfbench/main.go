// Command perfbench is the repository benchmark. One invocation runs one
// workload for a set time and prints its metrics by name and unit; the
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
//
//	perfbench --workload deep --seed 1 --seconds 20 --trace 0
//	perfbench compare A.json B.json   # two --out records, same machine only
//	perfbench record-golden           # re-derive golden.tsv
//
// Workloads:
//
//	deep   long, narrow searches: exp1 synthetic n=5..8 and exp3 λ tasks,
//	       IDA/RBFS with h0 and the vector heuristics, >=1000 states each
//	wide   short searches over wide instances: BAMM deep-web pairs,
//	       synthetic n=12..32 and Flights B->A, at most 40 states each
//	serve  an in-process tupelo-serve driven as a closed loop
//
// With --trace 0 every timing is taken with the program's instrumentation
// off. With --trace 1 the run measures the same workload twice, first
// untraced and then traced (engine metrics registry on, spans around the
// benchmark's calls into each layer), prints the per-layer table, writes
// the spans to BUILD-DIR/traces/WORKLOAD-seedN.jsonl, and reports the
// per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// record is one run's full result, the fingerprint included; --out writes
// it and compare reads it.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	Problems    []string           `json:"problems,omitempty"`
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compare(args[1:], stdout, stderr)
		case "record-golden":
			return recordGolden(stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: deep, wide or serve")
	seed := fs.Int64("seed", 1, "seed of the task order and the serve request stream")
	seconds := fs.Float64("seconds", 30, "measurement time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, instrumentation off; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "also write the full record, fingerprint included, to this file")
	buildDir := fs.String("build-dir", ".bench_build", "directory for the serve repositories and the span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1, --seconds positive")
		return 2
	}
	golden, err := parseGolden(goldenTSV)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		buildDir: *buildDir,
		golden:   golden,
	}
	fp := machineFingerprint()
	o, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		path := filepath.Join(*buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := o.tracer.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		printTable(stdout, cfg.workload, o.metrics)
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: *seconds, Trace: cfg.trace,
		Fingerprint: fp,
		Correct:     len(o.problems) == 0,
		Attempted:   o.attempted,
		Failed:      o.failed,
		Metrics:     make(map[string]float64, len(defs)),
		Problems:    o.problems,
	}
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := o.metrics[d.Name]
		rec.Metrics[d.Name] = v
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: INCORRECT: %s\n", p)
	}
	recJSON, _ := json.Marshal(rec)
	if *out != "" {
		if err := os.WriteFile(*out, append(recJSON, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "record %s\n", recJSON)
	lineJSON, _ := json.Marshal(line)
	fmt.Fprintf(stdout, "%s\n", lineJSON)
	if !rec.Correct {
		return 1
	}
	return 0
}

// printTable prints the per-layer table of a traced run.
func printTable(w io.Writer, workload string, m map[string]float64) {
	fmt.Fprintf(w, "per-layer metrics, workload %s\n", workload)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %16.4f %-8s (%s is better)\n", d.Name, m[d.Name], d.Unit, d.Better)
	}
}

// compare prints how each metric of record B differs from record A. It
// refuses records from different machines, workloads or trace modes.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 1
		}
	}
	a, b := recs[0], recs[1]
	if err := sameMachine(a.Fingerprint, b.Fingerprint); err != nil {
		fmt.Fprintf(stderr, "perfbench: refusing to compare results from different machines: %v\n", err)
		return 1
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "perfbench: refusing to compare %s/trace=%v with %s/trace=%v\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 1
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-34s %16s %16s %9s\n", "metric", "A", "B", "B/A")
	for _, n := range names {
		r := math.NaN()
		if a.Metrics[n] != 0 {
			r = b.Metrics[n] / a.Metrics[n]
		}
		fmt.Fprintf(stdout, "%-34s %16.4f %16.4f %9.3f\n", n, a.Metrics[n], b.Metrics[n], r)
	}
	return 0
}

// recordGolden runs every candidate task of deep and wide once and prints
// the golden list: the tasks each workload keeps and the states each
// examines.
func recordGolden(stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout, "# workload\ttask\tstates examined (budget 50000, one worker)")
	for _, w := range []string{"deep", "wide"} {
		cands, err := candidates(w)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		for i := range cands {
			r := runTask(&cands[i], nil, nil, i)
			if r.Err != nil {
				fmt.Fprintf(stderr, "%s %s: dropped: %v\n", w, cands[i].ID, r.Err)
				continue
			}
			if !keep(w, r.States) {
				continue
			}
			fmt.Fprintf(stdout, "%s\t%s\t%d\n", w, cands[i].ID, r.States)
		}
	}
	return 0
}
