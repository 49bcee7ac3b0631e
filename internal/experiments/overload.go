package experiments

// The overload benchmark: the one experiment that measures the LIVE
// serving path (wall-clock goroutines through the gateway, not the
// discrete-event simulator). It drives the gateway past saturation in
// open loop — arrivals keep coming whether or not the system keeps up,
// the regime where a closed-loop benchmark silently self-throttles —
// and compares admission control on vs off at the same offered load:
//
//   - shedding on: the bounded admission queue + deadline rejection
//     keep tail latency flat; excess load turns into fast 429s and
//     goodput plateaus at capacity.
//   - shedding off: the backlog queues inside the cluster, so latency
//     grows with the length of the overload — the p99 divergence row.
//
// Every row also carries the allocation telemetry (runtime.MemStats
// deltas and the request-arena counters) that pins the zero-alloc
// claim under real concurrency, not just in AllocsPerRun.
//
// Unlike every other experiment these rows are wall-clock measurements:
// they are excluded from `-exp all` and from the CI determinism gates,
// and benchregress compares them only with a loose threshold.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpufaas/internal/faas"
)

// Overload benchmark shape. The cluster is deliberately small (one
// node, four GPUs), the batch size 1 (the watchdog runs a REAL forward
// pass on the CPU per image — at batch 32 that compute would dwarf the
// simulated GPU time on a small runner), and the profile scale chosen
// so one inference occupies a GPU for ~89ms wall: capacity ≈ 45 req/s,
// which a single-core CI runner can drive at 2x in open loop without
// the load generator itself becoming the bottleneck.
const (
	overloadGPUs      = 4
	overloadTimeScale = 0.1
	overloadBatch     = 1
	overloadModel     = "resnet18"
	// overloadConcurrent is the admission concurrency limit: 2x the GPU
	// count, enough in-flight to keep every GPU busy while one batch is
	// in the scheduler hand-off.
	overloadConcurrent = 2 * overloadGPUs
	overloadQueueDepth = 2 * overloadConcurrent
	overloadMaxWait    = 100 * time.Millisecond
)

// OverloadRow is one phase of the overload benchmark.
type OverloadRow struct {
	// Name identifies the phase: "closed_loop" (the capacity
	// calibration), "overload_shed_on", "overload_shed_off".
	Name string `json:"name"`
	// Shedding reports whether admission control was enabled.
	Shedding bool `json:"shedding"`
	// OfferedRPS is the open-loop arrival rate (0 for the closed loop).
	OfferedRPS float64 `json:"offered_rps"`
	// DurationSec is the arrival window; the drain of the backlog after
	// the last arrival is included in the latency sample but not here.
	DurationSec float64 `json:"duration_sec"`

	Sent   int64 `json:"sent"`
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
	Errors int64 `json:"errors"`
	// GoodputRPS is served requests over the full wall time including
	// the backlog drain — the rate the system actually sustained.
	GoodputRPS float64 `json:"goodput_rps"`

	// Latency quantiles over served requests only (sheds are not
	// latency, they are the absence of it — counted above).
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	// Shed decomposition (from the admission counters; zero when off).
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	ShedTenant    int64 `json:"shed_tenant"`

	// Allocation telemetry: heap allocations per sent request across
	// the whole phase (driver included) and the live request arena's
	// counters — in steady state Allocated stops at the peak in-flight
	// count while Reused keeps growing.
	AllocsPerOp    float64 `json:"allocs_per_op"`
	HeapDeltaMB    float64 `json:"heap_delta_mb"`
	ArenaAllocated int64   `json:"arena_allocated"`
	ArenaReused    int64   `json:"arena_reused"`
	ArenaPeakLive  int64   `json:"arena_peak_live"`
}

// overloadGateway builds the benchmark gateway; admission control is
// attached only for the shedding-on phase.
func overloadGateway(shed bool, timeScale float64) (*faas.Gateway, error) {
	cfg := faas.GatewayConfig{
		Policy:        "LALBO3",
		Nodes:         1,
		GPUsPerNode:   overloadGPUs,
		TimeScale:     timeScale,
		InvokeTimeout: 60 * time.Second,
	}
	if shed {
		cfg.Admission = &faas.AdmissionConfig{
			MaxConcurrent: overloadConcurrent,
			QueueDepth:    overloadQueueDepth,
			MaxWait:       overloadMaxWait,
		}
	}
	g, err := faas.NewGateway(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := g.Deploy(faas.FunctionSpec{
		Name:       "overload-fn",
		GPUEnabled: true,
		Model:      overloadModel,
		BatchSize:  overloadBatch,
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// phaseCounts accumulates one phase's outcomes.
type phaseCounts struct {
	mu     sync.Mutex
	latsMs []float64
	served atomic.Int64
	shed   atomic.Int64
	errs   atomic.Int64
}

// invokeOnce drives one request and files its outcome.
func (pc *phaseCounts) invokeOnce(g *faas.Gateway) {
	t0 := time.Now()
	_, err := g.Invoke("overload-fn", faas.InvokeRequest{})
	latMs := float64(time.Since(t0)) / float64(time.Millisecond)
	var shedErr *faas.ShedError
	switch {
	case err == nil:
		pc.served.Add(1)
		pc.mu.Lock()
		pc.latsMs = append(pc.latsMs, latMs)
		pc.mu.Unlock()
	case errors.As(err, &shedErr):
		pc.shed.Add(1)
	default:
		pc.errs.Add(1)
	}
}

// quantiles fills the latency columns of a row from the served sample.
func (pc *phaseCounts) quantiles(row *OverloadRow) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	sort.Float64s(pc.latsMs)
	n := len(pc.latsMs)
	if n == 0 {
		return
	}
	at := func(q float64) float64 {
		i := int(q * float64(n-1))
		return pc.latsMs[i]
	}
	row.P50Ms = at(0.50)
	row.P95Ms = at(0.95)
	row.P99Ms = at(0.99)
	row.MaxMs = pc.latsMs[n-1]
}

// closedLoop drives the gateway with a fixed worker count for the
// window and returns the sustained completion rate: the measured
// capacity that sizes the open-loop overload.
func closedLoop(g *faas.Gateway, workers int, window time.Duration) (OverloadRow, error) {
	var pc phaseCounts
	var sent atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sent.Add(1)
				pc.invokeOnce(g)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if pc.errs.Load() > 0 || pc.served.Load() == 0 {
		return OverloadRow{}, fmt.Errorf("experiments: overload calibration broke: served=%d errors=%d",
			pc.served.Load(), pc.errs.Load())
	}
	row := OverloadRow{
		Name:        "closed_loop",
		DurationSec: window.Seconds(),
		Sent:        sent.Load(),
		Served:      pc.served.Load(),
		GoodputRPS:  float64(pc.served.Load()) / elapsed.Seconds(),
	}
	pc.quantiles(&row)
	return row, nil
}

// openLoop offers arrivals at a fixed rate regardless of completions
// for the window, then drains the backlog so every in-flight request's
// latency lands in the sample.
func openLoop(g *faas.Gateway, name string, shedding bool, rps float64, window time.Duration) OverloadRow {
	interval := time.Duration(float64(time.Second) / rps)
	var pc phaseCounts
	var wg sync.WaitGroup
	var sent int64

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	for next := start; time.Since(start) < window; next = next.Add(interval) {
		// Open loop: sleep to the schedule, and when the driver falls
		// behind (GC pause, scheduling), send immediately — late
		// arrivals burst instead of silently lowering the offered rate.
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc.invokeOnce(g)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	row := OverloadRow{
		Name:        name,
		Shedding:    shedding,
		OfferedRPS:  rps,
		DurationSec: window.Seconds(),
		Sent:        sent,
		Served:      pc.served.Load(),
		Shed:        pc.shed.Load(),
		Errors:      pc.errs.Load(),
		GoodputRPS:  float64(pc.served.Load()) / elapsed.Seconds(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(sent),
		HeapDeltaMB: (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20),
	}
	pc.quantiles(&row)
	for _, st := range g.AdmissionStats() {
		row.ShedQueueFull += st.ShedQueueFull
		row.ShedDeadline += st.ShedDeadline
		row.ShedTenant += st.ShedTenant
	}
	arena := g.ArenaStats()
	row.ArenaAllocated = arena.Allocated
	row.ArenaReused = arena.Reused
	row.ArenaPeakLive = arena.PeakLive
	return row
}

// OverloadSweep measures capacity in closed loop, then offers 2x that
// in open loop with shedding on and off. Short mode shrinks the
// windows to CI-smoke length.
func OverloadSweep(short bool) ([]OverloadRow, error) {
	if short {
		return overloadSweep(1500*time.Millisecond, 2*time.Second, overloadTimeScale)
	}
	return overloadSweep(3*time.Second, 6*time.Second, overloadTimeScale)
}

// overloadSweep is OverloadSweep with its phase lengths — calib for the
// capacity calibration (a third of it warms each overload gateway),
// window for each open-loop overload phase — and the profile time scale.
// Every gateway pays one model load before its first completion, so a
// sweep with short phases needs a small scale to be short itself.
func overloadSweep(calib, window time.Duration, timeScale float64) ([]OverloadRow, error) {
	// Capacity calibration on its own gateway (no admission: a closed
	// loop at bounded concurrency never needs shedding).
	g, err := overloadGateway(false, timeScale)
	if err != nil {
		return nil, err
	}
	calibRow, err := closedLoop(g, overloadConcurrent, calib)
	if err != nil {
		return nil, err
	}
	rows := []OverloadRow{calibRow}
	offered := 2 * calibRow.GoodputRPS

	for _, shed := range []bool{true, false} {
		g, err := overloadGateway(shed, timeScale)
		if err != nil {
			return nil, err
		}
		// Warm the model caches and the runtime pools before measuring.
		if _, err := closedLoop(g, overloadConcurrent, calib/3); err != nil {
			return nil, err
		}
		name := "overload_shed_on"
		if !shed {
			name = "overload_shed_off"
		}
		rows = append(rows, openLoop(g, name, shed, offered, window))
	}
	return rows, nil
}

// WriteOverloadTable renders the sweep.
func WriteOverloadTable(w io.Writer, rows []OverloadRow) {
	fmt.Fprintf(w, "%-18s %5s %8s %7s %7s %6s %5s %9s %8s %8s %8s %9s %6s\n",
		"phase", "shed", "offered", "sent", "served", "shed#", "err",
		"goodput", "p50(ms)", "p95(ms)", "p99(ms)", "allocs/op", "arena")
	for _, r := range rows {
		shed := "off"
		if r.Shedding {
			shed = "on"
		}
		fmt.Fprintf(w, "%-18s %5s %8.1f %7d %7d %6d %5d %9.1f %8.1f %8.1f %8.1f %9.1f %6d\n",
			r.Name, shed, r.OfferedRPS, r.Sent, r.Served, r.Shed, r.Errors,
			r.GoodputRPS, r.P50Ms, r.P95Ms, r.P99Ms, r.AllocsPerOp, r.ArenaAllocated)
	}
}
