package main

import (
	"math/rand"
	"reflect"
	"testing"

	"tupelo/internal/experiments"
	"tupelo/internal/heuristic"
	"tupelo/internal/search"
)

func mustGolden(t *testing.T) map[string]map[string]int {
	t.Helper()
	g, err := parseGolden(goldenTSV)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTaskListsDeterministic: for a fixed seed the pools, the pass orders
// and the serve request stream repeat exactly; another seed reorders them.
func TestTaskListsDeterministic(t *testing.T) {
	golden := mustGolden(t)
	for _, w := range []string{"deep", "wide"} {
		a, err := loadPool(w, golden)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loadPool(w, golden)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(taskIDs(a), taskIDs(b)) {
			t.Fatalf("%s: pool differs between loads", w)
		}
		for i := range a {
			if a[i].Source != b[i].Source || a[i].Target != b[i].Target || a[i].Golden != b[i].Golden {
				t.Fatalf("%s: task %s differs between loads", w, a[i].ID)
			}
		}
		r1, r2, r3 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7)), rand.New(rand.NewSource(8))
		for pass := 0; pass < 3; pass++ {
			p1, p2, p3 := r1.Perm(len(a)), r2.Perm(len(a)), r3.Perm(len(a))
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("%s pass %d: same seed, different order", w, pass)
			}
			if reflect.DeepEqual(p1, p3) {
				t.Fatalf("%s pass %d: seeds 7 and 8 give the same order", w, pass)
			}
		}
	}

	draw := func(seed int64, n int) []serveReq {
		s := newServeStream(seed, 225)
		reqs := make([]serveReq, n)
		for i := range reqs {
			reqs[i] = s.next()
		}
		return reqs
	}
	s1, s2, s3 := draw(7, 1000), draw(7, 1000), draw(8, 1000)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("serve stream: same seed, different stream")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("serve stream: seeds 7 and 8 give the same stream")
	}
	// Every block of 10 holds one no_cache request, and each 10·pairs
	// requests ask for every pair cold once.
	s4 := draw(7, 10*225)
	coldPairs := make(map[int]bool)
	for b := 0; b < len(s4); b += 10 {
		n := 0
		for _, q := range s4[b : b+10] {
			if q.cold {
				n++
				coldPairs[q.pair] = true
			}
		}
		if n != 1 {
			t.Fatalf("serve stream: block at %d holds %d no_cache requests", b, n)
		}
	}
	if len(coldPairs) != 225 {
		t.Fatalf("serve stream: %d distinct pairs cold in one cycle, want 225", len(coldPairs))
	}
}

func taskIDs(ts []Task) []string {
	ids := make([]string, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// servePairCount is the size of the serve workload's committed pair set.
const servePairCount = 221

// TestPoolShapes pins what each workload is for: deep averages at least
// 10k states a task, wide stays at or under 40 states a task.
func TestPoolShapes(t *testing.T) {
	golden := mustGolden(t)
	deep, err := loadPool("deep", golden)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, task := range deep {
		sum += task.Golden
	}
	if avg := sum / len(deep); avg < 10000 {
		t.Errorf("deep averages %d states a task, want >= 10000", avg)
	}
	wide, err := loadPool("wide", golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range wide {
		if task.Golden > wideMaxStates {
			t.Errorf("wide task %s examines %d states", task.ID, task.Golden)
		}
	}
	pairs, err := servePairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != servePairCount {
		t.Errorf("serve commits %d pairs, want %d", len(pairs), servePairCount)
	}
}

// TestGoldenMatchesHarness: a triple the paper-experiment harness also runs,
// at the same budget and seed, examines the states the golden list says.
func TestGoldenMatchesHarness(t *testing.T) {
	golden := mustGolden(t)
	cfg := experiments.Config{Budget: budget, Seed: harnessSeed, Workers: 1}
	var ms []experiments.Measurement
	runs := []func() ([]experiments.Measurement, error){
		func() ([]experiments.Measurement, error) {
			return experiments.RunExp1(experiments.Exp1Options{
				Algorithm: search.IDA, SetSizes: []int{12, 20, 32}, BlindSizes: []int{6}}, cfg)
		},
		func() ([]experiments.Measurement, error) {
			return experiments.RunExp2(experiments.Exp2Options{
				Heuristics: []heuristic.Kind{heuristic.Cosine, heuristic.H3}, SampleEvery: 4}, cfg)
		},
		func() ([]experiments.Measurement, error) {
			return experiments.RunExp3(experiments.Exp3Options{
				Domain: "RealEstateII", MaxFunctions: 6, Heuristics: []heuristic.Kind{heuristic.H0, heuristic.Cosine}}, cfg)
		},
	}
	for _, run := range runs {
		got, err := run()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, got...)
	}
	matched := 0
	for _, m := range ms {
		family := m.Experiment
		if m.Experiment != "exp1" {
			family += "-" + m.Label
		}
		id := taskID(family, m.Param, config{m.Algorithm, m.Heuristic})
		for _, w := range []string{"deep", "wide"} {
			want, ok := golden[w][id]
			if !ok || m.Censored {
				continue
			}
			matched++
			if m.States != want {
				t.Errorf("%s %s: harness examined %d states, golden list says %d", w, id, m.States, want)
			}
		}
	}
	if matched < 50 {
		t.Errorf("only %d golden triples also ran in the harness", matched)
	}
}
