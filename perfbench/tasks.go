package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"strconv"
	"strings"

	"tupelo/internal/critio"
	"tupelo/internal/datagen"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// budget is the per-task state budget. It equals tupelo-bench's default
// -budget, so a triple both harnesses run examines the same states.
const budget = 50000

// harnessSeed is the seed tupelo-bench hands the BAMM generator by default;
// the wide workload draws its BAMM pairs from the same domains.
const harnessSeed = 2006

// Deep keeps long searches only; wide keeps short searches only.
const (
	deepMinStates = 1000
	wideMaxStates = 40
)

// Task is one ladder run: a (pair, algorithm, heuristic) triple whose pair
// is carried as critio text, so every run pays for parsing it.
type Task struct {
	// ID names the triple: family/param/algorithm/heuristic.
	ID        string
	Algorithm search.Algorithm
	Heuristic heuristic.Kind
	Source    string
	Target    string
	// Registry resolves the pair's λ functions; nil for λ-free pairs.
	Registry *lambda.Registry
	// Golden is the states examined when golden.tsv was recorded; 0
	// while recording.
	Golden int
}

type config struct {
	algo search.Algorithm
	kind heuristic.Kind
}

// encode renders a pair's instances as critio text, correspondences on
// the source side.
func encode(src, tgt *relation.Database, corrs []lambda.Correspondence) (string, string) {
	return critio.WriteString(&critio.Instance{DB: src, Corrs: corrs}),
		critio.WriteString(&critio.Instance{DB: tgt})
}

func taskID(family string, param int, c config) string {
	return fmt.Sprintf("%s/%d/%s/%s", family, param, c.algo, c.kind)
}

// deepCandidates enumerates the long-search universe: exp1 synthetic pairs
// (n=5..8) and exp3 λ tasks (Inventory and RealEstateII, n=3..6) under IDA
// and RBFS with blind h0 and the vector heuristics.
func deepCandidates() ([]Task, error) {
	kinds := []heuristic.Kind{heuristic.H0, heuristic.Levenshtein, heuristic.Euclid, heuristic.EuclidNorm, heuristic.Cosine}
	var configs []config
	for _, a := range []search.Algorithm{search.IDA, search.RBFS} {
		for _, k := range kinds {
			configs = append(configs, config{a, k})
		}
	}
	var out []Task
	for n := 5; n <= 8; n++ {
		src, tgt, err := datagen.MatchingPair(n)
		if err != nil {
			return nil, err
		}
		s, t := encode(src, tgt, nil)
		for _, c := range configs {
			out = append(out, Task{ID: taskID("exp1", n, c), Algorithm: c.algo, Heuristic: c.kind, Source: s, Target: t})
		}
	}
	for _, dom := range []*datagen.ComplexDomain{datagen.Inventory(), datagen.RealEstateII()} {
		for n := 3; n <= 6; n++ {
			src, tgt, corrs, err := dom.Task(n)
			if err != nil {
				return nil, err
			}
			s, t := encode(src, tgt, corrs)
			for _, c := range configs {
				out = append(out, Task{ID: taskID("exp3-"+dom.Name, n, c), Algorithm: c.algo, Heuristic: c.kind,
					Source: s, Target: t, Registry: dom.Registry})
			}
		}
	}
	return out, nil
}

// wideCandidates enumerates the short-search universe under the paper's
// quick configurations: every 4th BAMM sibling schema per domain (the pairs
// of tupelo-bench -exp 2 -sample 4), synthetic pairs n=12..32, and Flights
// B→A.
func wideCandidates() ([]Task, error) {
	configs := []config{{search.RBFS, heuristic.Cosine}, {search.IDA, heuristic.H1}, {search.RBFS, heuristic.H3}}
	type pair struct {
		family string
		param  int
		src    string
		tgt    string
	}
	var pairs []pair
	for _, d := range datagen.BAMM(harnessSeed) {
		for i := 0; i < len(d.Targets); i += 4 {
			s, t := encode(d.Fixed, d.Targets[i], nil)
			pairs = append(pairs, pair{"exp2-" + d.Name, i, s, t})
		}
	}
	for n := 12; n <= 32; n += 2 {
		src, tgt, err := datagen.MatchingPair(n)
		if err != nil {
			return nil, err
		}
		s, t := encode(src, tgt, nil)
		pairs = append(pairs, pair{"exp1", n, s, t})
	}
	s, t := encode(datagen.FlightsB(), datagen.FlightsA(), nil)
	pairs = append(pairs, pair{"flights-BA", 0, s, t})
	var out []Task
	for _, c := range configs {
		for _, p := range pairs {
			out = append(out, Task{ID: taskID(p.family, p.param, c), Algorithm: c.algo, Heuristic: c.kind, Source: p.src, Target: p.tgt})
		}
	}
	return out, nil
}

func candidates(workload string) ([]Task, error) {
	switch workload {
	case "deep":
		return deepCandidates()
	case "wide":
		return wideCandidates()
	}
	return nil, fmt.Errorf("no task universe for workload %q", workload)
}

// keep is the pool filter applied when recording the golden list: only
// triples that solve within the budget, and only long (deep) or short
// (wide) searches.
func keep(workload string, states int) bool {
	if workload == "deep" {
		return states >= deepMinStates
	}
	return states <= wideMaxStates
}

//go:embed golden.tsv
var goldenTSV string

// parseGolden reads "workload<TAB>task<TAB>states" lines; '#' starts a
// comment line.
func parseGolden(text string) (map[string]map[string]int, error) {
	out := make(map[string]map[string]int)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.Split(s, "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("golden line %d: want 3 tab-separated fields, got %d", line, len(f))
		}
		n, err := strconv.Atoi(f[2])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("golden line %d: bad states count %q", line, f[2])
		}
		if out[f[0]] == nil {
			out[f[0]] = make(map[string]int)
		}
		if _, dup := out[f[0]][f[1]]; dup {
			return nil, fmt.Errorf("golden line %d: duplicate task %s", line, f[1])
		}
		out[f[0]][f[1]] = n
	}
	return out, nil
}

// loadPool builds a workload's task pool: the candidates the golden list
// kept, each carrying its golden states count. Every golden task must still
// be a candidate, or the list and the universe have drifted apart.
func loadPool(workload string, golden map[string]map[string]int) ([]Task, error) {
	cands, err := candidates(workload)
	if err != nil {
		return nil, err
	}
	want := golden[workload]
	var pool []Task
	for _, t := range cands {
		if n, ok := want[t.ID]; ok {
			t.Golden = n
			pool = append(pool, t)
		}
	}
	if len(pool) != len(want) {
		return nil, fmt.Errorf("golden list names %d %s tasks, the universe has %d of them", len(want), workload, len(pool))
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty %s pool", workload)
	}
	return pool, nil
}
