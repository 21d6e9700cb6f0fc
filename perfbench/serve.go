package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"tupelo/internal/critio"
	"tupelo/internal/datagen"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/repo"
	"tupelo/internal/server"
)

// The serve workload's closed loop: one client calls the server's handler
// in process and sends the next request when the answer to the last is in;
// one request in serveBlock carries no_cache.
const (
	serveBlock  = 10
	serveTenant = "bench"
)

// serveGCPercent is the serve process's GOGC. The workload's live heap is
// about 1–3 MB, far below a serving deployment's, so at the default of 100
// the GC's 4 MB minimum target has it collect several times per cold
// request. Every cycle stops the world and waits for both vCPUs, so host
// steal on either one stalls the request. At 400 the GC has headroom like
// a larger deployment's, and cold latency depends far less on steal (see
// README.md).
const serveGCPercent = 400

// preCommitClients is how many clients commit the pairs in set-up.
const preCommitClients = 2

// servePair is one committed (source, target) pair with its pre-encoded
// request bodies and the parsed instances its answers are checked against.
type servePair struct {
	ID       string
	src, tgt *relation.Database
	hitBody  []byte
	coldBody []byte
	key      string
}

// serveRegistry resolves λs when replaying served mappings: the server
// runs every job with the builtins.
var serveRegistry = lambda.Builtins()

// servePairs builds the committed pair set: every BAMM sibling schema,
// synthetic pairs n=1..8, λ tasks n=1..5 in both exp3 domains, and Flights
// B→A, deduplicated by repository key.
func servePairs() ([]servePair, error) {
	var out []servePair
	seen := make(map[string]bool)
	add := func(id string, src, tgt *relation.Database, corrs []lambda.Correspondence) error {
		s, t := encode(src, tgt, corrs)
		si, err := critio.ReadString(s)
		if err != nil {
			return err
		}
		ti, err := critio.ReadString(t)
		if err != nil {
			return err
		}
		key := repo.PairKey(si.DB, ti.DB)
		if seen[key] {
			return nil
		}
		seen[key] = true
		p := servePair{ID: id, src: si.DB, tgt: ti.DB, key: key}
		if p.hitBody, err = json.Marshal(server.JobRequest{Tenant: serveTenant, Source: s, Target: t}); err != nil {
			return err
		}
		if p.coldBody, err = json.Marshal(server.JobRequest{Tenant: serveTenant, Source: s, Target: t, NoCache: true}); err != nil {
			return err
		}
		out = append(out, p)
		return nil
	}
	for _, d := range datagen.BAMM(harnessSeed) {
		for i, t := range d.Targets {
			if err := add(fmt.Sprintf("exp2-%s/%d", d.Name, i), d.Fixed, t, nil); err != nil {
				return nil, err
			}
		}
	}
	for n := 1; n <= 8; n++ {
		src, tgt, err := datagen.MatchingPair(n)
		if err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("exp1/%d", n), src, tgt, nil); err != nil {
			return nil, err
		}
	}
	for _, dom := range []*datagen.ComplexDomain{datagen.Inventory(), datagen.RealEstateII()} {
		for n := 1; n <= 5; n++ {
			src, tgt, corrs, err := dom.Task(n)
			if err != nil {
				return nil, err
			}
			if err := add(fmt.Sprintf("exp3-%s/%d", dom.Name, n), src, tgt, corrs); err != nil {
				return nil, err
			}
		}
	}
	if err := add("flights-BA/0", datagen.FlightsB(), datagen.FlightsA(), nil); err != nil {
		return nil, err
	}
	return out, nil
}

// serveReq is one request of the stream.
type serveReq struct {
	pair int
	cold bool
}

// serveStream draws the request stream from the seed. Each block of
// serveBlock consecutive requests holds one no_cache request, at a seeded
// offset. The cold requests and the hits each cycle through their own
// seeded permutation of the pairs, so each window of serveBlock·pairs
// requests asks for every pair cold once and as a hit serveBlock-1 times:
// every window has the same mix, whatever the seed.
type serveStream struct {
	rng               *rand.Rand
	hits, colds       []int
	i, coldAt, nh, nc int
}

func newServeStream(seed int64, pairs int) *serveStream {
	rng := rand.New(rand.NewSource(seed))
	return &serveStream{rng: rng, hits: rng.Perm(pairs), colds: rng.Perm(pairs)}
}

// next returns the stream's next request.
func (s *serveStream) next() serveReq {
	i := s.i
	s.i++
	if i%serveBlock == 0 {
		s.coldAt = i + s.rng.Intn(serveBlock)
	}
	if i == s.coldAt {
		s.nc++
		return serveReq{pair: s.colds[(s.nc-1)%len(s.colds)], cold: true}
	}
	s.nh++
	return serveReq{pair: s.hits[(s.nh-1)%len(s.hits)]}
}

// serveEnv is a running in-process tupelo-serve: repository in a temp
// directory, and the server's HTTP handler, which the client calls
// directly.
type serveEnv struct {
	dir     string
	repo    *repo.Repo
	srv     *server.Server
	handler http.Handler
	pairs   []servePair
}

// startServe sets the workload up: inputs, repository, server, and the
// pre-commit of every pair (each answer checked).
func startServe(root string) (*serveEnv, error) {
	pairs, err := servePairs()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "serve-repo-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, pairs: pairs}
	if e.repo, err = repo.Open(dir, repo.Options{}); err == nil {
		e.srv, err = server.New(server.Config{Repo: e.repo})
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.handler = e.srv.Handler()
	// Two clients commit the pairs, so one solves while the other waits
	// on its fsync and the CPUs seldom idle.
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	for c := 0; c < preCommitClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(pairs); i += preCommitClients {
				q := serveReq{pair: i}
				errs[i] = e.check(q, e.do(q, nil, -1), nil)
			}
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			e.close()
			return nil, fmt.Errorf("pre-commit %s: %w", pairs[i].ID, err)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
	os.RemoveAll(e.dir)
}

// serveResult is one request's outcome.
type serveResult struct {
	start, done time.Time
	status      int
	resp        server.JobResponse
	err         error
}

func (r serveResult) latency() time.Duration { return r.done.Sub(r.start) }

// do sends one request and waits for its answer, in a span when traced.
func (e *serveEnv) do(q serveReq, tr *tracer, id int) (r serveResult) {
	body, name := e.pairs[q.pair].hitBody, "serve.hit"
	if q.cold {
		body, name = e.pairs[q.pair].coldBody, "serve.cold"
	}
	r.start = time.Now()
	sp := tr.start(name, id, -1)
	defer func() {
		tr.end(sp)
		r.done = time.Now()
	}()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	e.handler.ServeHTTP(w, req)
	r.status = w.Code
	if r.status == http.StatusOK {
		r.err = json.Unmarshal(w.Body.Bytes(), &r.resp)
	}
	return r
}

// check verifies one answer: status 200, a solved mapping served from the
// repository exactly when the request allowed it, and the mapping replayed
// on the source containing the target. replayed memoizes replays of the
// same (pair, mapping).
func (e *serveEnv) check(q serveReq, r serveResult, replayed map[string]bool) error {
	switch {
	case r.err != nil:
		return r.err
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d", r.status)
	case !r.resp.Solved:
		return fmt.Errorf("unsolved")
	}
	memo := fmt.Sprintf("%d\n%s", q.pair, r.resp.Expr)
	if replayed[memo] {
		return nil
	}
	p := e.pairs[q.pair]
	if _, err := checkMapping(r.resp.Expr, p.src, p.tgt, serveRegistry); err != nil {
		return err
	}
	if replayed != nil {
		replayed[memo] = true
	}
	return nil
}

// drive runs the closed loop: it sends s's requests one at a time, each
// when the answer to the last is in, until n requests are answered (n < 0:
// no count) or, when limit is positive, limit has passed. Each answer is
// checked as it arrives, outside its timed interval. With heap set, drive
// reads the heap the server retains at the end of each window and keeps
// no hit latency past its window, so the reading does not grow with the
// number of requests answered; without, it keeps every hit and cold
// latency for quantiles.
func (e *serveEnv) drive(s *serveStream, n int, limit time.Duration, heap bool, tr *tracer) *streamStats {
	st := newStreamStats(len(e.pairs), !heap)
	replayed := make(map[string]bool)
	start := time.Now()
	for i := 0; n < 0 || i < n; i++ {
		if limit > 0 && time.Since(start) >= limit {
			break
		}
		q := s.next()
		st.add(e, i, q, e.do(q, tr, i), replayed)
		if heap && len(st.heaps) < len(st.p50s) {
			st.heaps = append(st.heaps, retainedHeapMB())
		}
	}
	return st
}

// retainedHeapMB collects the garbage and returns the live heap, in MB.
// Between requests that is what the server retains: its repository index,
// caches and bookkeeping. It is read after a collection, not as the GC
// runs, because a cycle also counts as live what requests allocate while
// it marks, which grows with how long host steal stretches the cycle.
func retainedHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// metricsSnapshot reads the server's registry through GET /metrics?format=json.
func (e *serveEnv) metricsSnapshot() (obs.Snapshot, error) {
	var s obs.Snapshot
	w := httptest.NewRecorder()
	e.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if w.Code != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: status %d", w.Code)
	}
	err := json.Unmarshal(w.Body.Bytes(), &s)
	return s, err
}

// streamStats summarizes one driven stream. The latency samples hold only
// the requests that passed their check, so a refusal or an error status,
// which comes back fast, cannot lower a latency figure. A window is
// serveBlock·pairs requests, every pair cold once and as a hit
// serveBlock-1 times, so every window has the same mix.
type streamStats struct {
	window   byPair // latencies of the current window
	inWindow int
	// p50s and p90s hold each complete window's median and p90 over pairs
	// of the pair's median latency, ms.
	p50s, p90s []float64
	sumAll     float64
	nAll       int
	sumCold    float64
	nCold      int
	// keep keeps every hit and cold latency for quantiles.
	keep              bool
	hitList, coldList []float64 // ms
	heaps             []float64 // the retained heap at each window's end, MB
	examined          int
	attempted, failed int
	problems          []string
}

func newStreamStats(pairs int, keep bool) *streamStats {
	return &streamStats{window: make(byPair, pairs), keep: keep}
}

// add checks request i's answer. Any failed request, a refusal or an
// error status included, is a problem that makes the run incorrect, as any
// failed task is on deep and wide.
func (st *streamStats) add(e *serveEnv, i int, q serveReq, r serveResult, replayed map[string]bool) {
	st.attempted++
	err := e.check(q, r, replayed)
	if err == nil && r.resp.Cached == q.cold {
		err = fmt.Errorf("cached=%v for a no_cache=%v request", r.resp.Cached, q.cold)
	}
	if err != nil {
		st.failed++
		st.problems = append(st.problems, fmt.Sprintf("request %d (%s): %v", i, e.pairs[q.pair].ID, err))
		return
	}
	if q.cold {
		st.examined += r.resp.Examined
	}
	st.record(q, ms(r.latency()))
}

// record adds one answered request's latency in ms.
func (st *streamStats) record(q serveReq, lat float64) {
	st.sumAll += lat
	st.nAll++
	st.window[q.pair] = append(st.window[q.pair], lat)
	st.inWindow++
	if st.inWindow == serveBlock*len(st.window) {
		st.p50s = append(st.p50s, st.window.quantile(0.5))
		st.p90s = append(st.p90s, st.window.quantile(0.9))
		for p := range st.window {
			st.window[p] = st.window[p][:0]
		}
		st.inWindow = 0
	}
	switch {
	case q.cold:
		st.sumCold += lat
		st.nCold++
		if st.keep {
			st.coldList = append(st.coldList, lat)
		}
	case st.keep:
		st.hitList = append(st.hitList, lat)
	}
}

// p50 and slow are the median over complete windows of each window's
// median and p90 over pairs of the pair's median latency; with no complete
// window, those of the samples so far. A pair's ten requests in a window
// are nine hits and one no_cache solve, so its median is a hit's latency.
func (st *streamStats) p50() float64 { return st.overWindows(st.p50s, 0.5) }

func (st *streamStats) slow() float64 { return st.overWindows(st.p90s, 0.9) }

func (st *streamStats) overWindows(done []float64, q float64) float64 {
	if len(done) == 0 {
		return st.window.quantile(q)
	}
	return median(done)
}

func (st *streamStats) meanAll() float64 { return ratio(st.sumAll, float64(st.nAll)) }

func (st *streamStats) meanCold() float64 { return ratio(st.sumCold, float64(st.nCold)) }
