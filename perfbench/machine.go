package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fingerprint identifies the machine and toolchain a result was measured
// on. Results compare only when fingerprints match.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	RefLoopNS  float64 `json:"ref_loop_ns_per_op"`
}

// refLoopTolerance is how far two reference-loop timings may differ and
// still count as the same machine.
const refLoopTolerance = 0.10

func machineFingerprint() fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RefLoopNS:  refLoop(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var refSink uint64

// refLoop times a fixed dependent chain of integer operations and returns
// the median ns per iteration of five timings.
func refLoop() float64 {
	const iters = 1 << 21
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x2545F4914F6CDD1D
		}
		ts = append(ts, float64(time.Since(start))/iters)
		refSink += x
	}
	return median(ts)
}

// sameMachine returns nil when a and b come from the same machine and
// toolchain, else the first difference.
func sameMachine(a, b fingerprint) error {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Errorf("CPU model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NProc != b.NProc:
		return fmt.Errorf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("Go %s vs %s", a.GoVersion, b.GoVersion)
	case math.Abs(a.RefLoopNS-b.RefLoopNS) > refLoopTolerance*math.Min(a.RefLoopNS, b.RefLoopNS):
		return fmt.Errorf("reference loop %.3f vs %.3f ns/op", a.RefLoopNS, b.RefLoopNS)
	}
	return nil
}

// rtCounters is a reading of the runtime's cumulative allocation and CPU
// counters.
type rtCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtCounters) add(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// heapPeak samples the live heap the last GC marked, every millisecond
// until stopped, and keeps the largest value since the last cut.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// cut returns the peak since the last cut, in MB, and starts a new one.
func (h *heapPeak) cut() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// stop ends sampling and returns the peak since the last cut, in MB.
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.cut()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// byPair holds latency samples grouped by serve pair.
type byPair [][]float64

// quantile is the q-quantile over pairs of each pair's median sample.
// Pairs differ in cost, so a quantile over their mixed samples would move
// with every sample a disturbance delays; a pair's own median moves only
// when most of its samples do.
func (b byPair) quantile(q float64) float64 {
	var meds []float64
	for _, xs := range b {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return quantile(meds, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
