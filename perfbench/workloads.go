package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"tupelo/internal/obs"
)

// Set-ups per run; the run reports their median.
const (
	ladderSetups = 25
	serveSetups  = 9
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// buildDir receives the serve repositories.
	buildDir string
	golden   map[string]map[string]int
}

// outcome is a workload run's result before it is printed.
type outcome struct {
	attempted, failed int
	// problems are wrong outputs; any makes the run incorrect.
	problems []string
	metrics  map[string]float64
	// tracer holds a traced run's spans.
	tracer *tracer
}

func runWorkload(cfg runConfig) (*outcome, error) {
	switch cfg.workload {
	case "deep", "wide":
		return runLadder(cfg)
	case "serve":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want deep, wide or serve)", cfg.workload)
}

// passStats accumulates the tasks of whole passes over a pool.
type passStats struct {
	taskWalls   map[int][]float64 // ms per run, by pool index
	wall        time.Duration
	search      time.Duration
	passStates  int // states examined by one pass
	states      int // by all passes
	unsupported int // per pass
	attempted   int
	failed      int
	problems    []string
	rt          rtCounters
}

// pass runs the whole pool once, in the next permutation rng draws: the
// seed of rng fixes every pass's order. Each task starts
// from a collected heap, as a fresh tupelo process would, so its time does
// not depend on the garbage the task before it left.
func (ps *passStats) pass(pool []Task, rng *rand.Rand, reg *obs.Registry, tr *tracer) {
	var rt rtCounters
	states, unsupported := 0, 0
	for _, i := range rng.Perm(len(pool)) {
		runtime.GC()
		rt0 := readRuntime()
		r := runTask(&pool[i], reg, tr, ps.attempted)
		ps.attempted++
		if ps.taskWalls == nil {
			ps.taskWalls = make(map[int][]float64)
		}
		ps.taskWalls[i] = append(ps.taskWalls[i], ms(r.Wall))
		rt = rt.add(readRuntime().sub(rt0))
		ps.wall += r.Wall
		ps.search += r.Search
		states += r.States
		if r.Unsupported {
			unsupported++
		}
		if r.Err != nil {
			ps.failed++
			ps.problems = append(ps.problems, fmt.Sprintf("%s: %v", pool[i].ID, r.Err))
		}
	}
	ps.states += states
	ps.passStates, ps.unsupported = states, unsupported
	ps.rt = ps.rt.add(rt)
}

// taskMedians is each task's median wall time over the passes, in ms.
func (ps *passStats) taskMedians() []float64 {
	out := make([]float64, 0, len(ps.taskWalls))
	for _, w := range ps.taskWalls {
		out = append(out, median(w))
	}
	return out
}

// untilLimit repeats step until the next step would end further past limit
// than the last one ended before it.
func untilLimit(limit time.Duration, step func()) {
	start := time.Now()
	for {
		t0 := time.Now()
		step()
		if time.Since(start)+time.Since(t0)/2 >= limit {
			return
		}
	}
}

func runLadder(cfg runConfig) (*outcome, error) {
	var pool []Task
	var setups []float64
	for i := 0; i < ladderSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		p, err := loadPool(cfg.workload, cfg.golden)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		pool = p
	}
	o := &outcome{metrics: make(map[string]float64)}
	if !cfg.trace {
		// The peak is taken per pass, and the median over passes reported.
		peak := startHeapPeak()
		ps, rng := &passStats{}, rand.New(rand.NewSource(cfg.seed))
		var peaks []float64
		untilLimit(cfg.seconds, func() {
			ps.pass(pool, rng, nil, nil)
			peaks = append(peaks, peak.cut())
		})
		peak.stopMB()
		o.metrics["peak_heap_mb"] = median(peaks)
		o.metrics["setup_s"] = median(setups)
		tm := ps.taskMedians()
		o.metrics["p50_ms"] = quantile(tm, 0.5)
		o.metrics["slow_ms"] = quantile(tm, 0.9)
		o.attempted, o.failed, o.problems = ps.attempted, ps.failed, ps.problems
		return o, nil
	}

	// Traced: untraced passes alternate with traced passes of the same
	// order, which run with the engine's registry on and spans around
	// every ladder stage.
	un, tp := &passStats{}, &passStats{}
	unRNG, tpRNG := rand.New(rand.NewSource(cfg.seed)), rand.New(rand.NewSource(cfg.seed))
	reg, tr := obs.NewRegistry(), newTracer()
	untilLimit(cfg.seconds, func() {
		un.pass(pool, unRNG, nil, nil)
		tp.pass(pool, tpRNG, reg, tr)
	})
	o.tracer = tr
	o.attempted = un.attempted + tp.attempted
	o.failed = un.failed + tp.failed
	o.problems = append(un.problems, tp.problems...)

	m := o.metrics
	m["states_examined"] = float64(un.passStates)
	m["states_per_s"] = ratio(float64(un.states), un.search.Seconds())
	engineLayers(reg.Snapshot(), m)
	runtimeLayers(un.rt, float64(un.states), m)
	self, _ := tr.selfTimes()
	tasks := float64(tp.attempted)
	for _, st := range ladderStages {
		m[st+"_us"] = ratio(us(self[st]), tasks)
	}
	m["ladder.unaccounted_frac"] = ratio(float64(self["task"]), float64(tp.wall))
	m["sqlgen.unsupported"] = float64(un.unsupported)
	tm := un.taskMedians()
	m["task_p50_ms"] = quantile(tm, 0.5)
	m["task_p90_ms"] = quantile(tm, 0.9)
	m["fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	m["obs.overhead_ratio"] = ratio(float64(tp.wall), float64(un.wall))
	return o, nil
}

func runServe(cfg runConfig) (*outcome, error) {
	debug.SetGCPercent(serveGCPercent)
	root := filepath.Join(cfg.buildDir, "serve")
	var env *serveEnv
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		t0 := time.Now()
		e, err := startServe(root)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()

	// Warm up on one window of a stream of another seed, checked but not
	// timed.
	o := &outcome{metrics: make(map[string]float64)}
	wst := env.drive(newServeStream(^cfg.seed, len(env.pairs)), serveBlock*len(env.pairs), 0, false, nil)
	o.attempted, o.failed, o.problems = wst.attempted, wst.failed, wst.problems

	limit := cfg.seconds
	if cfg.trace {
		limit /= 2
	}
	before, err := env.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	un := env.drive(newServeStream(cfg.seed, len(env.pairs)), -1, limit, !cfg.trace, nil)
	rt := readRuntime().sub(rt0)
	o.attempted += un.attempted
	o.failed += un.failed
	o.problems = append(o.problems, un.problems...)

	if !cfg.trace {
		// As on deep and wide, the median and p90 over pairs of each
		// pair's median latency: a delay on a minority of a pair's
		// requests, such as a burst of host steal, barely moves them,
		// while a cost the program pays on most requests, growing over
		// the run or not, does. They are taken per window, where every
		// pair has the same mix, and the median over windows reported.
		o.metrics["p50_ms"] = un.p50()
		o.metrics["slow_ms"] = un.slow()
		// The heap the server retains, per window, median over windows; a
		// run too short for a whole window reads it once at the end.
		if len(un.heaps) == 0 {
			un.heaps = append(un.heaps, retainedHeapMB())
		}
		o.metrics["peak_heap_mb"] = median(un.heaps)
		o.metrics["setup_s"] = median(setups)
		return o, nil
	}

	// Traced: the same requests again with a span around each, then
	// direct repository calls on the workload's own entries.
	mid, err := env.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp := env.drive(newServeStream(cfg.seed, len(env.pairs)), un.attempted, 0, false, tr)
	after, err := env.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	o.attempted += tp.attempted
	o.failed += tp.failed
	o.problems = append(o.problems, tp.problems...)
	if err := env.repoCalls(tr); err != nil {
		return nil, err
	}
	o.tracer = tr

	m := o.metrics
	ud, td := snapshotDelta(mid, before), snapshotDelta(after, mid)
	engineLayers(td, m)
	examined := sumCounters(ud, "search.examined")
	job := ud.Timers["server.job.duration"]
	m["states_examined"] = float64(un.examined)
	m["states_per_s"] = ratio(examined, float64(job.TotalNS)/1e9)
	runtimeLayers(rt, examined, m)
	m["hit_p50_ms"] = quantile(un.hitList, 0.5)
	m["hit_p99_ms"] = quantile(un.hitList, 0.99)
	m["cold_p50_ms"] = quantile(un.coldList, 0.5)
	m["cold_p99_ms"] = quantile(un.coldList, 0.99)
	tjob := td.Timers["server.job.duration"]
	jobMS := ratio(float64(tjob.TotalNS), float64(tjob.Count)) / 1e6
	m["server.job_ms"] = jobMS
	m["server.overhead_ms"] = tp.meanCold() - jobMS
	self, count := tr.selfTimes()
	m["repo.get_us"] = ratio(us(self["repo.get"]), float64(count["repo.get"]))
	m["repo.put_us"] = ratio(us(self["repo.put"]), float64(count["repo.put"]))
	hits, misses := sumCounters(ud, "server.repo.hits"), sumCounters(ud, "server.repo.misses")
	m["server.repo_hit_ratio"] = ratio(hits, hits+misses)
	for _, r := range serveRejectReasons {
		m["server.rejected."+r] = sumCounters(ud, obs.Name("server.jobs.rejected", "reason", r))
	}
	m["fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	m["obs.overhead_ratio"] = ratio(tp.meanAll(), un.meanAll())
	return o, nil
}

// repoGetRounds and repoPuts size the direct repository calls of a traced
// serve run.
const (
	repoGetRounds = 4
	repoPuts      = 40
)

// repoCalls times repo.Get on every committed pair and repo.Put of a
// sample of those entries, each call in its own span.
func (e *serveEnv) repoCalls(tr *tracer) error {
	id := 0
	for round := 0; round < repoGetRounds; round++ {
		for _, p := range e.pairs {
			sp := tr.start("repo.get", id, -1)
			_, ok := e.repo.Get(p.key)
			tr.end(sp)
			id++
			if !ok {
				return fmt.Errorf("repo.Get: pair %s not committed", p.ID)
			}
		}
	}
	for i := 0; i < repoPuts && i < len(e.pairs); i++ {
		ent, _ := e.repo.Get(e.pairs[i].key)
		cp := *ent
		sp := tr.start("repo.put", id, -1)
		err := e.repo.Put(&cp)
		tr.end(sp)
		id++
		if err != nil {
			return err
		}
	}
	return nil
}
