package main

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"tupelo/internal/core"
	"tupelo/internal/critio"
	"tupelo/internal/fira"
	"tupelo/internal/relation"
	"tupelo/internal/search"
	"tupelo/internal/server"
	"tupelo/internal/sqlgen"
	"tupelo/internal/sqlrun"
)

// ladderOutput runs a task's ladder by hand and returns what the check
// sees.
func ladderOutput(t *testing.T, task Task) (src, tgt *relation.Database, out taskOutput) {
	t.Helper()
	si, err := critio.ReadString(task.Source)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := critio.ReadString(task.Target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Discover(si.DB, ti.DB, core.Options{
		Algorithm: task.Algorithm, Heuristic: task.Heuristic, Workers: 1,
		Limits: search.Limits{MaxStates: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	expr := core.Simplify(res.Expr, si.DB, nil)
	script, err := sqlgen.Generate(expr, si.DB, sqlgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sqlrun.NewEngine(si.DB)
	if err := eng.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	sqlDB, err := eng.Database(script.Final)
	if err != nil {
		t.Fatal(err)
	}
	return si.DB, ti.DB, taskOutput{States: res.Stats.Examined, Expr: expr.String(), SQL: sqlDB}
}

func wideTask(t *testing.T, id string) Task {
	t.Helper()
	pool, err := loadPool("wide", mustGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range pool {
		if task.ID == id {
			return task
		}
	}
	t.Fatalf("no wide task %s", id)
	return Task{}
}

// TestChecksCatchSeededFaults: the untouched outcome passes, and each of a
// corrupted expression, a wrong golden count and a mismatched SQL result
// fails the check.
func TestChecksCatchSeededFaults(t *testing.T) {
	task := wideTask(t, "exp1/12/IDA/h1")
	src, tgt, out := ladderOutput(t, task)
	if err := checkTask(&task, src, tgt, out); err != nil {
		t.Fatalf("clean outcome fails the check: %v", err)
	}
	if r := runTask(&task, nil, nil, 0); r.Err != nil || r.States != task.Golden {
		t.Fatalf("ladder: states %d (golden %d), err %v", r.States, task.Golden, r.Err)
	}

	expr := fira.MustParse(out.Expr)
	faults := map[string]func(*Task, *taskOutput){
		"last step dropped": func(_ *Task, o *taskOutput) { o.Expr = expr[:len(expr)-1].String() },
		"unparsable text":   func(_ *Task, o *taskOutput) { o.Expr = strings.Replace(o.Expr, "->", "=>", 1) },
		"golden off by one": func(tk *Task, _ *taskOutput) { tk.Golden++ },
		"SQL result is the source": func(_ *Task, o *taskOutput) {
			o.SQL = src
		},
	}
	for name, fault := range faults {
		tk, o := task, out
		fault(&tk, &o)
		if err := checkTask(&tk, src, tgt, o); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestServeCheckCatchesCorruptedMapping: a served mapping is checked like a
// fresh one.
func TestServeCheckCatchesCorruptedMapping(t *testing.T) {
	pairs, err := servePairs()
	if err != nil {
		t.Fatal(err)
	}
	var e serveEnv
	e.pairs = pairs
	i := len(pairs) - 1 // Flights B→A
	res, err := core.Discover(pairs[i].src, pairs[i].tgt, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := serveResult{status: http.StatusOK, resp: server.JobResponse{Solved: true, Expr: res.Expr.String()}}
	if err := e.check(serveReq{pair: i}, good, nil); err != nil {
		t.Fatalf("clean answer fails the check: %v", err)
	}
	bad := good
	bad.resp.Expr = res.Expr[:len(res.Expr)-1].String()
	if err := e.check(serveReq{pair: i}, bad, nil); err == nil {
		t.Fatal("corrupted served mapping passed the check")
	}
	refused := serveResult{status: http.StatusTooManyRequests}
	if err := e.check(serveReq{pair: i}, refused, nil); err == nil {
		t.Fatal("a refused request passed the check")
	}
}

// TestServeFailureIsNotALatency: a refused request, which comes back fast,
// makes the run incorrect and stays out of the latency samples.
func TestServeFailureIsNotALatency(t *testing.T) {
	pairs, err := servePairs()
	if err != nil {
		t.Fatal(err)
	}
	e := serveEnv{pairs: pairs}
	i := len(pairs) - 1 // Flights B→A
	res, err := core.Discover(pairs[i].src, pairs[i].tgt, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	good := serveResult{start: start, done: start.Add(2 * time.Millisecond), status: http.StatusOK,
		resp: server.JobResponse{Solved: true, Cached: true, Expr: res.Expr.String()}}
	refused := serveResult{start: start, done: start.Add(10 * time.Microsecond), status: http.StatusTooManyRequests}
	st := newStreamStats(len(pairs), true)
	for j, r := range []serveResult{good, refused, refused} {
		st.add(&e, j, serveReq{pair: i}, r, nil)
	}
	if st.attempted != 3 || st.failed != 2 || len(st.problems) != 2 {
		t.Fatalf("attempted %d, failed %d, problems %q", st.attempted, st.failed, st.problems)
	}
	if st.nAll != 1 || len(st.hitList) != 1 || st.hitList[0] != 2 || st.p50() != 2 {
		t.Fatalf("%d latency samples, hits %v: want only the answered request's 2 ms", st.nAll, st.hitList)
	}
}

// TestServeMedians: a delay on a minority of one pair's requests, or on
// one window of several, does not move the figures; a cost paid on most
// requests does.
func TestServeMedians(t *testing.T) {
	if got := (byPair{{1, 1, 9}, {2, 9, 2}, {3, 3, 3}, {}}).quantile(0.5); got != 2 {
		t.Errorf("median over pairs = %v, want 2", got)
	}
	// Two pairs, of cost 1 and 2: a window is 2·serveBlock requests.
	run := func(delay func(w, i int) float64) *streamStats {
		st := newStreamStats(2, false)
		for w := 0; w < 5; w++ {
			for i := 0; i < serveBlock; i++ {
				for p := 0; p < 2; p++ {
					st.record(serveReq{pair: p, cold: i == 0}, float64(1+p)+delay(w, i))
				}
			}
		}
		return st
	}
	for _, c := range []struct {
		what      string
		delay     func(w, i int) float64
		p50, slow float64
	}{
		{"no delay", func(w, i int) float64 { return 0 }, 1.5, 1.9},
		{"a third of the requests delayed", func(w, i int) float64 { return float64(10 * (i % 3 / 2)) }, 1.5, 1.9},
		{"one window delayed", func(w, i int) float64 { return float64(10 * (w / 4)) }, 1.5, 1.9},
		{"a cost growing over the run", func(w, i int) float64 { return float64(w) }, 3.5, 3.9},
	} {
		st := run(c.delay)
		if len(st.p50s) != 5 || math.Abs(st.p50()-c.p50) > 1e-9 || math.Abs(st.slow()-c.slow) > 1e-9 {
			t.Errorf("%s: %d windows, p50 %v, slow %v; want 5, %v, %v", c.what, len(st.p50s), st.p50(), st.slow(), c.p50, c.slow)
		}
	}
}
