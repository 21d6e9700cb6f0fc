package main

import (
	"strings"

	"tupelo/internal/obs"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (--trace 0), on every
// workload. p50_ms and slow_ms are the median and p90 over the ladder
// tasks (deep, wide) or the committed pairs (serve) of each one's median
// time; a serve pair's requests are mostly repository hits, each timed
// from send to answer.
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"slow_ms", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// opKinds are the operator families core labels its per-operator metrics
// with.
var opKinds = []string{
	"rename_rel", "rename_att", "drop", "promote", "demote", "deref",
	"partition", "product", "union", "merge", "apply", "other",
}

// serveRejectReasons are the server.jobs.rejected reasons.
var serveRejectReasons = []string{"bad-request", "draining", "breaker-open", "tenant-quota", "queue-full", "abandoned"}

// perLayer are the metrics of a traced run (--trace 1), on every workload;
// a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"states_examined", "count", "lower"},
		{"states_per_s", "states/s", "higher"},
		{"search.expand_ns", "ns", "lower"},
		{"search.goaltest_ns", "ns", "lower"},
		{"search.generated_per_state", "ratio", "lower"},
		{"heuristic.eval_ns", "ns", "lower"},
		{"heuristic.cache_hit_ratio", "ratio", "higher"},
		{"core.succmemo_hit_ratio", "ratio", "higher"},
		{"alloc_bytes_per_state", "B", "lower"},
		{"allocs_per_state", "count", "lower"},
		{"gc.cpu_frac", "ratio", "lower"},
	}
	for _, k := range opKinds {
		defs = append(defs, metricDef{"core.op_apply_ns." + k, "ns", "lower"})
	}
	for _, k := range opKinds {
		defs = append(defs, metricDef{"core.ops_applied_ratio." + k, "ratio", "higher"})
	}
	for _, st := range ladderStages {
		defs = append(defs, metricDef{st + "_us", "us", "lower"})
	}
	defs = append(defs,
		metricDef{"ladder.unaccounted_frac", "ratio", "lower"},
		metricDef{"sqlgen.unsupported", "count", "lower"},
		metricDef{"task_p50_ms", "ms", "lower"},
		metricDef{"task_p90_ms", "ms", "lower"},
		metricDef{"hit_p50_ms", "ms", "lower"},
		metricDef{"hit_p99_ms", "ms", "lower"},
		metricDef{"cold_p50_ms", "ms", "lower"},
		metricDef{"cold_p99_ms", "ms", "lower"},
		metricDef{"server.job_ms", "ms", "lower"},
		metricDef{"server.overhead_ms", "ms", "lower"},
		metricDef{"repo.get_us", "us", "lower"},
		metricDef{"repo.put_us", "us", "lower"},
		metricDef{"server.repo_hit_ratio", "ratio", "higher"},
	)
	for _, r := range serveRejectReasons {
		defs = append(defs, metricDef{"server.rejected." + r, "count", "lower"})
	}
	return append(defs,
		metricDef{"fail_frac", "ratio", "lower"},
		metricDef{"obs.overhead_ratio", "ratio", "lower"},
	)
}()

// matching reports whether a registry name is base, with or without labels.
func matching(name, base string) bool {
	return name == base || strings.HasPrefix(name, base+"{")
}

func sumCounters(s obs.Snapshot, base string) float64 {
	var n int64
	for name, v := range s.Counters {
		if matching(name, base) {
			n += v
		}
	}
	return float64(n)
}

// histMeanNS is the mean observation, in ns, over every histogram of the
// family.
func histMeanNS(s obs.Snapshot, base string) float64 {
	var count, total int64
	for name, h := range s.Histograms {
		if matching(name, base) {
			count += h.Count
			total += h.TotalNS
		}
	}
	return ratio(float64(total), float64(count))
}

// snapshotDelta is after minus before, for the instruments that count up.
func snapshotDelta(after, before obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{
		Counters:   make(map[string]int64),
		Timers:     make(map[string]obs.TimerSnapshot),
		Histograms: make(map[string]obs.HistogramSnapshot),
	}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, v := range after.Timers {
		b := before.Timers[k]
		d.Timers[k] = obs.TimerSnapshot{Count: v.Count - b.Count, TotalNS: v.TotalNS - b.TotalNS}
	}
	for k, v := range after.Histograms {
		b := before.Histograms[k]
		d.Histograms[k] = obs.HistogramSnapshot{Count: v.Count - b.Count, TotalNS: v.TotalNS - b.TotalNS}
	}
	return d
}

// engineLayers derives the search, heuristic and core metrics from the
// engine's metrics registry.
func engineLayers(s obs.Snapshot, m map[string]float64) {
	examined := sumCounters(s, "search.examined")
	m["search.expand_ns"] = histMeanNS(s, "search.expand.seconds")
	m["search.goaltest_ns"] = histMeanNS(s, "search.goaltest.seconds")
	m["search.generated_per_state"] = ratio(sumCounters(s, "search.generated"), examined)
	m["heuristic.eval_ns"] = histMeanNS(s, "heuristic.eval.seconds")
	hits, misses := sumCounters(s, "heuristic.cache.hits"), sumCounters(s, "heuristic.cache.misses")
	m["heuristic.cache_hit_ratio"] = ratio(hits, hits+misses)
	hits, misses = sumCounters(s, "core.succmemo.hits"), sumCounters(s, "core.succmemo.misses")
	m["core.succmemo_hit_ratio"] = ratio(hits, hits+misses)
	for _, k := range opKinds {
		m["core.op_apply_ns."+k] = histMeanNS(s, obs.Name("core.op.apply.seconds", "op", k))
		m["core.ops_applied_ratio."+k] = ratio(
			sumCounters(s, obs.Name("core.ops.applied", "op", k)),
			sumCounters(s, obs.Name("core.ops.proposed", "op", k)))
	}
}

// runtimeLayers derives allocation and GC figures from a runtime counter
// delta over a run that examined states states.
func runtimeLayers(d rtCounters, states float64, m map[string]float64) {
	m["alloc_bytes_per_state"] = ratio(float64(d.allocBytes), states)
	m["allocs_per_state"] = ratio(float64(d.allocObjects), states)
	m["gc.cpu_frac"] = ratio(d.gcCPU, d.totalCPU)
}
