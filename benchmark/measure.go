package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
)

// runOpts is one measurement of one workload.
type runOpts struct {
	Seed    int64
	Seconds float64 // length of the measured window
	Traced  bool    // per-layer run (spans, counts, CPU profile) instead of end-to-end
	Short   bool    // the small shapes the tests use
	// CPUProfile, when set, keeps the traced window's raw profile there.
	CPUProfile string
}

// result is what one run of one workload produced.
type result struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Seed      int64   `json:"seed"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Samples   int     `json:"samples"` // latency samples behind the percentiles
	Metrics   metrics `json:"metrics"`
	// Digest is the sha256 of the simulated Reports (sim workloads): equal
	// digests mean a change left every simulated statistic untouched.
	Digest     string   `json:"report_digest,omitempty"`
	Violations []string `json:"violations,omitempty"`

	tracer *tracer
}

func (r *result) correct() bool { return len(r.Violations) == 0 }

// defs is the metric table of the driver's result line: end-to-end, or
// per-layer when traced.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// measured is every metric the run took: with tracing off, the wall-clock
// rows too.
func (r *result) measured() []metricDef {
	if r.Traced {
		return perLayer
	}
	return untraced
}

// memCount is the process's allocation counters, at an instant or over a
// window (heapSys is always the level, never a difference).
type memCount struct {
	mallocs, bytes, heapSys uint64
	numGC                   uint32
}

func readMem() memCount {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCount{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, heapSys: ms.HeapSys, numGC: ms.NumGC}
}

// since is what was allocated between s0 and s.
func (s memCount) since(s0 memCount) memCount {
	return memCount{mallocs: s.mallocs - s0.mallocs, bytes: s.bytes - s0.bytes, heapSys: s.heapSys, numGC: s.numGC - s0.numGC}
}

// report writes the runtime rows of the per-layer table.
func (d memCount) report(m metrics) {
	m["go.num_gc"] = float64(d.numGC)
	m["go.peak_heap_mb"] = float64(d.heapSys) / (1 << 20)
}

// profile is a CPU profile being taken around a traced window.
type profile struct {
	buf  bytes.Buffer
	path string
}

func startProfile(path string) (*profile, error) {
	p := &profile{path: path}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and attributes it to the *.cpu_share rows.
func (p *profile) stop() (metrics, error) {
	pprof.StopCPUProfile()
	if p.path != "" {
		if err := os.WriteFile(p.path, p.buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	return cpuShares(p.buf.Bytes())
}

// percentile is the nearest-rank p-th percentile; with fewer than 100
// samples the 99th is the maximum.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// sortedPercentile is percentile for values already in ascending order.
func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
