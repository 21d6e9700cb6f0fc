package main

import (
	"context"
	"fmt"
	"time"

	"tupelo/internal/core"
	"tupelo/internal/critio"
	"tupelo/internal/fira"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
	"tupelo/internal/sqlgen"
	"tupelo/internal/sqlrun"
)

// taskTimeout stops a task that would otherwise keep the run past its exit
// deadline; the budget normally ends a failing search long before.
const taskTimeout = 60 * time.Second

// Ladder stage span names, in ladder order.
var ladderStages = []string{
	"critio.parse", "core.discover", "core.simplify", "core.verify",
	"sqlgen.generate", "sqlrun.exec", "check.replay",
}

// taskResult is one ladder run's outcome.
type taskResult struct {
	States int
	// Search is the time inside core.DiscoverContext, Wall the whole
	// ladder.
	Search time.Duration
	Wall   time.Duration
	// Unsupported marks a mapping sqlgen has no translation for.
	Unsupported bool
	Err         error
}

// taskOutput is what the ladder hands to the correctness check.
type taskOutput struct {
	States int
	// Expr is the final mapping in fira's canonical text.
	Expr string
	// SQL is the sqlrun result of the mapping's SQL script; nil when the
	// mapping has no SQL form.
	SQL *relation.Database
}

var sqlFuncs = sqlgen.DefaultSQLFuncs()

// sqlSupported reports whether sqlgen can translate every λ of expr.
func sqlSupported(expr fira.Expr) bool {
	for _, op := range expr {
		if ap, ok := op.(fira.Apply); ok {
			if _, ok := sqlFuncs[ap.Func]; !ok {
				return false
			}
		}
	}
	return true
}

// runTask runs the ladder for one task: parse the critio text, discover a
// mapping (one worker, no tracer or flight recorder; reg is the metrics
// registry, nil when untraced), simplify, verify, translate to SQL, execute
// the SQL, and check the outcome independently. Spans go to tr under id.
func runTask(t *Task, reg *obs.Registry, tr *tracer, id int) (r taskResult) {
	start := time.Now()
	root := tr.start("task", id, -1)
	defer func() {
		tr.end(root)
		r.Wall = time.Since(start)
	}()
	stage := func(name string) func() {
		sp := tr.start(name, id, root)
		return func() { tr.end(sp) }
	}

	done := stage("critio.parse")
	src, err := critio.ReadString(t.Source)
	var tgt *critio.Instance
	if err == nil {
		tgt, err = critio.ReadString(t.Target)
	}
	done()
	if err != nil {
		r.Err = err
		return r
	}

	opts := core.Options{
		Algorithm:       t.Algorithm,
		Heuristic:       t.Heuristic,
		Workers:         1,
		Limits:          search.Limits{MaxStates: budget},
		Correspondences: append(append([]lambda.Correspondence(nil), src.Corrs...), tgt.Corrs...),
		Registry:        t.Registry,
		Metrics:         reg,
	}
	ctx, cancel := context.WithTimeout(context.Background(), taskTimeout)
	done = stage("core.discover")
	s0 := time.Now()
	res, err := core.DiscoverContext(ctx, src.DB, tgt.DB, opts)
	r.Search = time.Since(s0)
	done()
	cancel()
	if err != nil {
		r.Err = fmt.Errorf("discover: %w", err)
		return r
	}
	r.States = res.Stats.Examined

	done = stage("core.simplify")
	expr := core.Simplify(res.Expr, src.DB, t.Registry)
	done()

	done = stage("core.verify")
	err = core.Verify(expr, src.DB, tgt.DB, t.Registry)
	done()
	if err != nil {
		r.Err = fmt.Errorf("verify: %w", err)
		return r
	}

	out := taskOutput{States: r.States, Expr: expr.String()}
	if r.Unsupported = !sqlSupported(expr); !r.Unsupported {
		done = stage("sqlgen.generate")
		script, err := sqlgen.Generate(expr, src.DB, sqlgen.Options{Registry: t.Registry})
		done()
		if err != nil {
			r.Err = err
			return r
		}
		done = stage("sqlrun.exec")
		eng := sqlrun.NewEngine(src.DB)
		err = eng.ExecScript(script.String())
		if err == nil {
			out.SQL, err = eng.Database(script.Final)
		}
		done()
		if err != nil {
			r.Err = err
			return r
		}
	}

	done = stage("check.replay")
	r.Err = checkTask(t, src.DB, tgt.DB, out)
	done()
	return r
}

// checkMapping is the check every mapping gets, fresh or served from the
// repository: parse its text, replay it on the source, and require the
// result to contain the target. It returns the replayed database.
func checkMapping(text string, src, tgt *relation.Database, reg *lambda.Registry) (*relation.Database, error) {
	expr, err := fira.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("check: mapping does not parse: %w", err)
	}
	got, err := expr.Eval(src, reg)
	if err != nil {
		return nil, fmt.Errorf("check: replaying the mapping: %w", err)
	}
	if !got.Contains(tgt) {
		return nil, fmt.Errorf("check: replayed mapping does not contain the target")
	}
	return got, nil
}

// checkTask checks a ladder outcome: the states examined equal the golden
// count, the mapping replays to a superset of the target, and the SQL
// result equals the replayed result.
func checkTask(t *Task, src, tgt *relation.Database, out taskOutput) error {
	if t.Golden > 0 && out.States != t.Golden {
		return fmt.Errorf("check: %s examined %d states, golden list says %d", t.ID, out.States, t.Golden)
	}
	got, err := checkMapping(out.Expr, src, tgt, t.Registry)
	if err != nil {
		return err
	}
	if out.SQL != nil && !out.SQL.Equal(got) {
		return fmt.Errorf("check: SQL result differs from the fira result")
	}
	return nil
}
