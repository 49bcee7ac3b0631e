package experiments

// Hot-path microbenchmarks for the BENCH snapshot: the discrete-event
// engine's schedule+fire cycle, the scheduler's per-decision round and
// the GPU manager's launch → completion cycle between them.
// These are the loops every simulated request crosses, some several times,
// so their ns/op and allocs/op gate how large a fleet / how long a trace
// the experiment grids can sweep. faas-bench embeds the rows in the
// gpufaas-bench/v1 snapshot next to the figure series, with the
// pre-refactor baselines (measured at the PR-3 seed, Xeon 2.10GHz) kept
// inline so a regression is visible in the artifact itself.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"gpufaas/internal/cache"
	"gpufaas/internal/cluster"
	"gpufaas/internal/core"
	"gpufaas/internal/gpu"
	"gpufaas/internal/gpumgr"
	"gpufaas/internal/models"
	"gpufaas/internal/multicell"
	"gpufaas/internal/ordset"
	"gpufaas/internal/sim"
	"gpufaas/internal/trace"
)

// HotpathRow is one microbenchmark result. Baseline* fields carry the
// pre-refactor measurement where one exists (zero = the case did not
// exist before the pooled-engine/dense-ord rework).
type HotpathRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op,omitempty"`
}

// fill converts a testing.BenchmarkResult into a row.
func (r *HotpathRow) fill(res testing.BenchmarkResult) {
	r.NsPerOp = float64(res.T.Nanoseconds()) / float64(res.N)
	r.BytesPerOp = res.AllocedBytesPerOp()
	r.AllocsPerOp = res.AllocsPerOp()
}

// Hotpath runs the microbenchmarks. Wall cost is a few seconds (each case
// runs via testing.Benchmark's standard calibration).
func Hotpath() ([]HotpathRow, error) {
	var rows []HotpathRow

	// Engine schedule+fire at two standing queue depths; the cost every
	// arrival / load-done / completion event pays.
	for _, c := range []struct {
		depth          int
		baselineNs     float64
		baselineAllocs int64
	}{
		{0, 67.0, 1},
		{1024, 242.2, 1},
	} {
		depth := c.depth
		row := HotpathRow{
			Name:                fmt.Sprintf("engine_fire/depth=%d", depth),
			BaselineNsPerOp:     c.baselineNs,
			BaselineAllocsPerOp: c.baselineAllocs,
		}
		row.fill(testing.Benchmark(func(b *testing.B) {
			e := sim.New()
			for i := 0; i < depth; i++ {
				e.After(time.Duration(i+1)*time.Hour, "standing", func(sim.Time) {})
			}
			fn := func(sim.Time) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(time.Millisecond, "fire", fn)
				e.Step()
			}
		}))
		rows = append(rows, row)
	}

	// One scheduler decision round against a real 64-GPU cluster backend
	// (cache index, idle set): enqueue one request, run Schedule. The
	// dispatches are not executed, so the fleet stays idle and every
	// round measures the same decision shape. No pre-refactor baseline:
	// the seed had no per-round case (the full-round numbers live in
	// BenchmarkScheduleDecision and EXPERIMENTS.md).
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.GPUsPerNode = 16, 4
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	s := c.Scheduler()
	row := HotpathRow{Name: "schedule_round/64gpus"}
	row.fill(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := &core.Request{ID: int64(i), Model: "resnet18", BatchSize: 32, Arrival: sim.Time(i)}
			if err := s.Enqueue(r); err != nil {
				b.Fatal(err)
			}
			s.Schedule(sim.Time(i))
		}
	}))
	rows = append(rows, row)

	// The 1024-GPU round: the saturated deep-queue regime, scan baseline
	// first so its measurement rides along as the indexed row's inline
	// baseline (and as its own row for benchregress).
	scanRow := HotpathRow{Name: "schedule_round/1024gpus_scan"}
	scanRow.fill(testing.Benchmark(func(b *testing.B) { scheduleRound1024(b, true) }))
	rows = append(rows, scanRow)
	idxRow := HotpathRow{
		Name:                "schedule_round/1024gpus",
		BaselineNsPerOp:     scanRow.NsPerOp,
		BaselineAllocsPerOp: scanRow.AllocsPerOp,
	}
	idxRow.fill(testing.Benchmark(func(b *testing.B) { scheduleRound1024(b, false) }))
	rows = append(rows, idxRow)

	// What the GPU manager adds to a dispatched request at the same fleet
	// size: one cache-hit launch plus the engine event that completes it.
	launchRow := HotpathRow{Name: "launch_complete/1024gpus"}
	launchRow.fill(testing.Benchmark(launchComplete1024))
	rows = append(rows, launchRow)

	// The front-door routing decision at the 16-cell shard width: the
	// per-request cost every multi-cell arrival pays once per cell
	// worker (each worker replays the full stream through its private
	// router). No pre-multicell baseline exists.
	for _, pol := range multicell.RouterPolicies {
		pol := pol
		row := HotpathRow{Name: fmt.Sprintf("router_route/%v/16cells", pol)}
		row.fill(testing.Benchmark(func(b *testing.B) {
			router, err := multicell.NewRouter(multicell.RouterConfig{
				Cells: 16, Policy: pol, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]trace.Request, 1024)
			for i := range reqs {
				reqs[i] = trace.Request{
					ID:       int64(i),
					Function: fmt.Sprintf("f%03d", i%97),
					Model:    fmt.Sprintf("m%02d", i%31),
					Arrival:  time.Duration(i) * 10 * time.Millisecond,
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				router.Route(reqs[i%len(reqs)])
			}
		}))
		rows = append(rows, row)
	}

	// End-to-end streaming replay of the small scale cell: the cost of a
	// full simulated run on the O(in-flight) path.
	replay := HotpathRow{Name: "streaming_replay/64gpus_6min"}
	replay.fill(testing.Benchmark(func(b *testing.B) {
		p := streamingReplayParams()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(p); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rows = append(rows, replay)
	return rows, nil
}

// ---- launch → completion cycle ----

// launchMaxMembers is the largest launch a LaunchCycle dispatches.
const launchMaxMembers = 8

// LaunchCycle builds a sim-clock GPU manager over the given number of
// GPUs, warms it (one model resident on every GPU, timers and launch
// slots at their steady size) and returns the cycle that the
// launch_complete row times and TestHotpathZeroAlloc pins at zero
// allocations: dispatch one cache-hit launch of `members` requests
// (1..8) on the next GPU, round-robin, and run the engine through its
// completion.
func LaunchCycle(gpus int) (cycle func(members int) error, err error) {
	engine := sim.New()
	zoo := models.Default()
	cm, err := cache.NewManager(cache.PolicyLRU, func(model string) (int64, bool) {
		m, ok := zoo.Get(model)
		return m.OccupancyBytes(), ok
	})
	if err != nil {
		return nil, err
	}
	mgr, err := gpumgr.New(gpumgr.Config{
		Node:     "bench",
		Clock:    sim.SimClock{E: engine},
		Cache:    cm,
		Zoo:      zoo,
		Profiles: models.TableProfiles(cluster.DefaultGPUType, zoo),
	})
	if err != nil {
		return nil, err
	}
	ids := make([]string, gpus)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench/gpu%d", i)
		dev, err := gpu.New(gpu.Config{ID: ids[i], Node: "bench", Type: cluster.DefaultGPUType, Capacity: cluster.DefaultGPUMemory})
		if err != nil {
			return nil, err
		}
		if err := mgr.AddDevice(dev); err != nil {
			return nil, err
		}
	}
	reqs := make([]*core.Request, launchMaxMembers)
	for i := range reqs {
		reqs[i] = &core.Request{ID: int64(i), Function: "bench", Model: "resnet18", BatchSize: 1}
	}
	next := 0
	cycle = func(members int) error {
		id := ids[next%len(ids)]
		next++
		now := engine.Now()
		_, dropped, err := mgr.ExecuteBatch(reqs[0], reqs[1:members], id, now)
		if err != nil || len(dropped) != 0 {
			return fmt.Errorf("launch on %s: dropped %d, err %v", id, len(dropped), err)
		}
		engine.Run(0)
		return nil
	}
	// Two passes at full width: the first loads the model everywhere, and
	// completions hand result buffers from GPU to GPU, so it takes the
	// second for every one of them to have reached full size.
	for i := 0; i < 2*gpus; i++ {
		if err := cycle(launchMaxMembers); err != nil {
			return nil, err
		}
	}
	return cycle, nil
}

// launchComplete1024 measures LaunchCycle's single-request cycle at the
// scale round's fleet size.
func launchComplete1024(b *testing.B) {
	cycle, err := LaunchCycle(roundFleet)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- 1024-GPU scheduling round ----

// The scale-round fixture reproduces the regime that made per-round cost
// grow with fleet × queue before the indexed placement path: a saturated
// 1024-GPU fleet (8 freshly idle GPUs per round — completions free GPUs
// a handful at a time), a burst-deep global queue of 1024 requests drawn
// from 32 hot models, and hot models resident on ~340 busy GPUs each
// (duplicates scale with the fleet). None of the queue is cached on the
// idle GPUs, so the scan baseline walks the full queue per idle GPU and
// runs a full holder argmin per placement, while the indexed path
// consults the per-model position index, walks the idle side of the
// holder intersection, and reuses the memoized argmin across the round.
const (
	roundFleet      = 1024
	roundIdleGPUs   = 8
	roundHotModels  = 32
	roundQueueDepth = 1024
)

// roundBackend is a frozen synthetic core.Backend at fleet scale; the
// benchmark recreates the Scheduler per iteration (outside the timer)
// so every measured round sees identical state.
type roundBackend struct {
	ids     []string
	busy    []bool
	est     []time.Duration
	holders map[string][]ordset.Ord
	idle    []core.Ord
	load    time.Duration
	infer   time.Duration
}

func newRoundBackend() *roundBackend {
	bk := &roundBackend{
		ids:     make([]string, roundFleet),
		busy:    make([]bool, roundFleet),
		est:     make([]time.Duration, roundFleet),
		holders: make(map[string][]ordset.Ord, roundHotModels),
		load:    5 * time.Second,
		infer:   2 * time.Second,
	}
	firstIdle := roundFleet - roundIdleGPUs
	for o := 0; o < roundFleet; o++ {
		bk.ids[o] = fmt.Sprintf("gpu%04d", o)
		if o < firstIdle {
			bk.busy[o] = true
			// Finish estimates beyond the load time: waiting never beats
			// a miss, so rounds produce no parking and stay stateless.
			bk.est[o] = 60*time.Second + time.Duration(o)*time.Millisecond
		} else {
			bk.idle = append(bk.idle, core.Ord(o))
		}
	}
	for m := 0; m < roundHotModels; m++ {
		var hs []ordset.Ord
		for o := 0; o < firstIdle; o++ {
			if o%3 == m%3 {
				hs = append(hs, core.Ord(o))
			}
		}
		bk.holders[roundModel(m)] = hs
	}
	return bk
}

func roundModel(m int) string { return fmt.Sprintf("hot%02d", m) }

func (bk *roundBackend) Ords() []core.Ord {
	out := make([]core.Ord, len(bk.ids))
	for i := range out {
		out[i] = core.Ord(i)
	}
	return out
}
func (bk *roundBackend) OrdBound() core.Ord { return core.Ord(len(bk.ids)) }
func (bk *roundBackend) OrdOf(id string) (core.Ord, bool) {
	for i, s := range bk.ids {
		if s == id {
			return core.Ord(i), true
		}
	}
	return 0, false
}
func (bk *roundBackend) IDOf(o core.Ord) string { return bk.ids[o] }
func (bk *roundBackend) Busy(o core.Ord) bool   { return bk.busy[o] }
func (bk *roundBackend) Cached(o core.Ord, model string) bool {
	return ordset.Contains(bk.holders[model], o)
}
func (bk *roundBackend) GPUsCaching(model string) []core.Ord { return bk.holders[model] }
func (bk *roundBackend) EstimatedFinish(o core.Ord, _ sim.Time) time.Duration {
	if !bk.busy[o] {
		return 0
	}
	return bk.est[o]
}
func (bk *roundBackend) LoadTime(core.Ord, string) time.Duration       { return bk.load }
func (bk *roundBackend) InferTime(core.Ord, string, int) time.Duration { return bk.infer }
func (bk *roundBackend) IdleOrds() []core.Ord                          { return bk.idle }

// scheduleRound1024 measures one full Schedule round over the fixture.
// Scheduler construction and queue fill happen outside the timer; the
// request objects are shared across iterations (Enqueue resets the skip
// count). Requests arrive in blocks of eight per model, so the round's
// successive head placements repeat models — the shape a bursty hot
// model produces.
func scheduleRound1024(b *testing.B, scan bool) {
	bk := newRoundBackend()
	reqs := make([]*core.Request, roundQueueDepth)
	for i := range reqs {
		reqs[i] = &core.Request{
			ID:        int64(i),
			Model:     roundModel((i / 8) % roundHotModels),
			BatchSize: 32,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.New(core.Config{
			Policy:        core.LALBO3,
			O3Limit:       core.DefaultO3Limit,
			ScanPlacement: scan,
		}, bk)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reqs {
			if err := s.Enqueue(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if ds := s.Schedule(0); len(ds) != roundIdleGPUs {
			b.Fatalf("round dispatched %d, want %d", len(ds), roundIdleGPUs)
		}
	}
}

// streamingReplayParams is the small streaming scale cell the replay
// benchmark and hotpath row measure end to end (64 GPUs, 6 minutes).
func streamingReplayParams() RunParams {
	return RunParams{
		Policy:      core.LALBO3,
		WorkingSet:  64,
		Nodes:       16,
		GPUsPerNode: 4,
		Streaming:   true,
		Workload: WorkloadParams{
			Minutes:           6,
			RequestsPerMinute: 64 * 325 / 12,
			WorkingSet:        64,
			Batch:             models.EvalBatchSize,
			Seed:              1,
		},
	}
}

// WriteHotpathTable renders the rows with their baselines.
func WriteHotpathTable(w io.Writer, rows []HotpathRow) {
	fmt.Fprintf(w, "%-26s %10s %8s %8s %14s %12s\n",
		"case", "ns/op", "B/op", "allocs", "baseline ns/op", "baseline allocs")
	for _, r := range rows {
		base, baseAllocs := "-", "-"
		if r.BaselineNsPerOp > 0 {
			base = fmt.Sprintf("%.1f", r.BaselineNsPerOp)
			baseAllocs = fmt.Sprintf("%d", r.BaselineAllocsPerOp)
		}
		fmt.Fprintf(w, "%-26s %10.1f %8d %8d %14s %12s\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, base, baseAllocs)
	}
}
