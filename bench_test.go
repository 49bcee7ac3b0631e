// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§V). Each benchmark runs the corresponding experiment and
// reports the figure's metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every row/series the paper reports. Absolute times are the
// simulator's (driven by the paper's own Table I profile); the shape —
// who wins, by what factor, where the crossovers fall — is the
// reproduction target (see EXPERIMENTS.md).
package gpufaas

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gpufaas/internal/autoscale"
	"gpufaas/internal/cache"
	"gpufaas/internal/cluster"
	"gpufaas/internal/core"
	"gpufaas/internal/experiments"
	"gpufaas/internal/sim"
	"gpufaas/internal/trace"
)

// benchRun executes one experiment per iteration and reports its metrics.
func benchRun(b *testing.B, p experiments.RunParams, metrics func(experiments.Row) map[string]float64) {
	b.Helper()
	var last experiments.Row
	for i := 0; i < b.N; i++ {
		row, err := experiments.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	for name, v := range metrics(last) {
		b.ReportMetric(v, name)
	}
}

// BenchmarkTableIProfiles regenerates Table I: per-model occupancy, load
// time and inference time at batch 32, via the §IV-A profiling procedure.
func BenchmarkTableIProfiles(b *testing.B) {
	var rows []experiments.TableIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(first.LoadTime.Seconds(), "min_load_s")
		b.ReportMetric(last.LoadTime.Seconds(), "max_load_s")
		b.ReportMetric(float64(len(rows)), "models")
	}
}

// fig4Cases is the scheduler x working-set matrix shared by Figures 4-6.
func fig4Cases() []experiments.RunParams {
	var out []experiments.RunParams
	for _, ws := range experiments.PaperWorkingSets {
		for _, pol := range experiments.PaperPolicies {
			out = append(out, experiments.RunParams{Policy: pol, WorkingSet: ws})
		}
	}
	return out
}

func caseName(p experiments.RunParams) string {
	return fmt.Sprintf("%s/ws=%d", p.Policy, p.WorkingSet)
}

// BenchmarkFig4aLatency reproduces Fig. 4a: average function latency per
// scheduler and working-set size.
func BenchmarkFig4aLatency(b *testing.B) {
	for _, p := range fig4Cases() {
		p := p
		b.Run(caseName(p), func(b *testing.B) {
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"avg_latency_s": r.AvgLatencySec,
					"p99_latency_s": r.P99LatencySec,
				}
			})
		})
	}
}

// BenchmarkFig4bMissRatio reproduces Fig. 4b: cache miss ratio.
func BenchmarkFig4bMissRatio(b *testing.B) {
	for _, p := range fig4Cases() {
		p := p
		b.Run(caseName(p), func(b *testing.B) {
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{"miss_ratio": r.MissRatio}
			})
		})
	}
}

// BenchmarkFig4cUtilization reproduces Fig. 4c: average GPU (SM)
// utilization.
func BenchmarkFig4cUtilization(b *testing.B) {
	for _, p := range fig4Cases() {
		p := p
		b.Run(caseName(p), func(b *testing.B) {
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"sm_utilization": r.SMUtilization,
					"load_fraction":  r.LoadFraction,
				}
			})
		})
	}
}

// BenchmarkFig5FalseMiss reproduces Fig. 5: false-miss ratio.
func BenchmarkFig5FalseMiss(b *testing.B) {
	for _, p := range fig4Cases() {
		p := p
		b.Run(caseName(p), func(b *testing.B) {
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{"false_miss_ratio": r.FalseMissRatio}
			})
		})
	}
}

// BenchmarkFig6Duplicates reproduces Fig. 6: time-averaged duplicates of
// the most popular model.
func BenchmarkFig6Duplicates(b *testing.B) {
	for _, p := range fig4Cases() {
		p := p
		b.Run(caseName(p), func(b *testing.B) {
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{"dup_top1": r.TopModelDuplicates}
			})
		})
	}
}

// BenchmarkFig7O3Sensitivity reproduces Fig. 7: the O3 starvation-limit
// sweep at working set 35 (latency, miss ratio, latency variance).
func BenchmarkFig7O3Sensitivity(b *testing.B) {
	for _, limit := range experiments.Fig7Limits {
		limit := limit
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			p := experiments.RunParams{Policy: core.LALBO3, O3Limit: &limit, WorkingSet: 35}
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"avg_latency_s": r.AvgLatencySec,
					"miss_ratio":    r.MissRatio,
					"lat_var_s2":    r.LatencyVarianceSec2,
				}
			})
		})
	}
}

// BenchmarkAblationCachePolicy compares LRU/FIFO/LFU replacement under
// LALBO3 (the §VI "Cache Replacement Policy" discussion).
func BenchmarkAblationCachePolicy(b *testing.B) {
	for _, pol := range []string{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			p := experiments.RunParams{Policy: core.LALBO3, WorkingSet: 35, CachePolicy: pol}
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"avg_latency_s": r.AvgLatencySec,
					"miss_ratio":    r.MissRatio,
				}
			})
		})
	}
}

// BenchmarkAblationLocalQueue quantifies Algorithm 2's busy-GPU parking
// (the finish-time-estimation mechanism): LALB with and without the
// per-GPU local queues, at working set 25.
func BenchmarkAblationLocalQueue(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "parking=on"
		if disabled {
			name = "parking=off"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.RunParams{Policy: core.LALB, WorkingSet: 25, DisableLocalQueue: disabled}
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"avg_latency_s": r.AvgLatencySec,
					"miss_ratio":    r.MissRatio,
					"queue_moves":   float64(r.LocalQueueMoves),
				}
			})
		})
	}
}

// BenchmarkAblationGPUScaling scales the cluster (2..5 nodes x 4 GPUs)
// under LALBO3 at working set 25 (§VI "Overhead and Scalability").
func BenchmarkAblationGPUScaling(b *testing.B) {
	for _, nodes := range []int{2, 3, 4, 5} {
		nodes := nodes
		b.Run(fmt.Sprintf("gpus=%d", nodes*4), func(b *testing.B) {
			p := experiments.RunParams{Policy: core.LALBO3, WorkingSet: 25, Nodes: nodes, GPUsPerNode: 4}
			benchRun(b, p, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"avg_latency_s":  r.AvgLatencySec,
					"sm_utilization": r.SMUtilization,
				}
			})
		})
	}
}

// BenchmarkHeterogeneity runs the heterogeneity sweep cells
// (homogeneous-fast / homogeneous-cheap / mixed fleets on the non-flat
// traces), reporting the cost column the tiered autoscaler trades
// against p95.
func BenchmarkHeterogeneity(b *testing.B) {
	for _, cell := range experiments.HeterogeneitySpecs(testing.Short()) {
		cell := cell
		b.Run(cell.Name, func(b *testing.B) {
			benchRun(b, cell.Params, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"cost":        r.Cost,
					"gpu_seconds": r.GPUSeconds,
					"p95_s":       r.P95LatencySec,
					"peak_gpus":   float64(r.PeakGPUs),
				}
			})
		})
	}
}

// BenchmarkElasticity runs the elasticity sweep cells (fixed vs
// autoscaled fleets on diurnal/bursty traces), reporting the
// cost-vs-latency pair the autoscale subsystem trades on.
func BenchmarkElasticity(b *testing.B) {
	for _, cell := range experiments.ElasticitySpecs(testing.Short()) {
		cell := cell
		b.Run(cell.Name, func(b *testing.B) {
			benchRun(b, cell.Params, func(r experiments.Row) map[string]float64 {
				return map[string]float64{
					"gpu_seconds": r.GPUSeconds,
					"p95_s":       r.P95LatencySec,
					"miss_ratio":  r.MissRatio,
					"peak_gpus":   float64(r.PeakGPUs),
				}
			})
		})
	}
}

// BenchmarkAutoscaleDecision measures one autoscaler evaluation tick —
// signal sampling plus policy decision — against a live 12-GPU cluster.
// This is the control-plane overhead each tick adds to the event loop.
func BenchmarkAutoscaleDecision(b *testing.B) {
	for _, policy := range []string{"target-util", "step"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			pol, err := autoscale.ParsePolicy(policy, 0.7, 1, 4, 0.5, 2)
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewCluster(WithAutoscaler(AutoscaleConfig{
				Policy:   pol,
				MinGPUs:  12,
				MaxGPUs:  12, // clamp to a no-op so ticks measure pure decision cost
				Horizon:  time.Minute,
				Interval: time.Second,
			}))
			if err != nil {
				b.Fatal(err)
			}
			// Pre-fill latency windows and fleet state with a tiny run.
			names := []string{"resnet18", "vgg19", "alexnet"}
			reqs := make([]trace.Request, 60)
			for i := range reqs {
				reqs[i] = trace.Request{
					ID: int64(i), Function: "bench", Model: names[i%len(names)],
					Arrival: time.Duration(i) * 100 * time.Millisecond, BatchSize: 32,
				}
			}
			if _, err := c.RunWorkload(reqs); err != nil {
				b.Fatal(err)
			}
			a := c.Autoscaler()
			now := c.Engine().Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Evaluate(now)
			}
		})
	}
}

// schedBackend is a synthetic core.Backend over a large cluster used by
// BenchmarkScheduleDecision. In scan mode it reproduces the seed's
// lookup shape: GPUsCaching walks every GPU and idle GPUs are found by
// scanning Busy. The indexed variant (idleListerBackend wrapper +
// precomputed holder lists) is the shape the cluster backend has after
// the Cache-Manager-index / idle-set refactor.
type schedBackend struct {
	ids     []string
	busy    []bool                     // ord-indexed
	cached  map[string]map[string]bool // gpuID -> model set
	holders map[string][]core.Ord      // model -> GPU ords, ascending
	indexed bool
}

func (s *schedBackend) Ords() []core.Ord {
	out := make([]core.Ord, len(s.ids))
	for i := range s.ids {
		out[i] = core.Ord(i)
	}
	return out
}
func (s *schedBackend) OrdBound() core.Ord { return core.Ord(len(s.ids)) }
func (s *schedBackend) OrdOf(id string) (core.Ord, bool) {
	for i, g := range s.ids {
		if g == id {
			return core.Ord(i), true
		}
	}
	return 0, false
}
func (s *schedBackend) IDOf(o core.Ord) string           { return s.ids[o] }
func (s *schedBackend) Busy(o core.Ord) bool             { return s.busy[o] }
func (s *schedBackend) Cached(o core.Ord, m string) bool { return s.cached[s.ids[o]][m] }
func (s *schedBackend) GPUsCaching(m string) []core.Ord {
	if s.indexed {
		return s.holders[m]
	}
	// Seed shape: recompute the holder list by scanning every GPU.
	var out []core.Ord
	for i, id := range s.ids {
		if s.cached[id][m] {
			out = append(out, core.Ord(i))
		}
	}
	return out
}
func (s *schedBackend) EstimatedFinish(o core.Ord, now sim.Time) time.Duration {
	if s.busy[o] {
		return 40 * time.Millisecond
	}
	return 0
}
func (s *schedBackend) LoadTime(o core.Ord, m string) time.Duration { return 90 * time.Millisecond }
func (s *schedBackend) InferTime(o core.Ord, m string, batch int) time.Duration {
	return 12 * time.Millisecond
}

// idleListerBackend adds the core.IdleLister extension, so the scheduler
// iterates the precomputed idle set instead of scanning.
type idleListerBackend struct {
	*schedBackend
	idle []core.Ord
}

func (b idleListerBackend) IdleOrds() []core.Ord { return b.idle }

// newSchedBackend builds a 64-GPU, 192-model cluster snapshot: half the
// GPUs busy, each model resident on up to two GPUs.
func newSchedBackend(indexed bool) (core.Backend, *schedBackend) {
	const gpus, mdls = 64, 192
	s := &schedBackend{
		busy:    make([]bool, gpus),
		cached:  make(map[string]map[string]bool),
		holders: make(map[string][]core.Ord),
		indexed: indexed,
	}
	for g := 0; g < gpus; g++ {
		id := fmt.Sprintf("g%02d", g)
		s.ids = append(s.ids, id)
		s.cached[id] = make(map[string]bool)
		s.busy[g] = g%2 == 1
	}
	rng := rand.New(rand.NewSource(7))
	for m := 0; m < mdls; m++ {
		model := fmt.Sprintf("m%03d", m)
		for _, g := range []int{rng.Intn(gpus), rng.Intn(gpus)} {
			id := s.ids[g]
			if !s.cached[id][model] {
				s.cached[id][model] = true
			}
		}
		for g, id := range s.ids { // holders in registration (ord) order
			if s.cached[id][model] {
				s.holders[model] = append(s.holders[model], core.Ord(g))
			}
		}
	}
	if !indexed {
		return s, s
	}
	var idle []core.Ord
	for g := range s.ids {
		if !s.busy[g] {
			idle = append(idle, core.Ord(g))
		}
	}
	return idleListerBackend{schedBackend: s, idle: idle}, s
}

// schedRequests builds a deterministic queue of n requests over the
// backend's models (zipf-ish: low-numbered models are hotter).
func schedRequests(n int) []*core.Request {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1.0, 191)
	reqs := make([]*core.Request, n)
	for i := range reqs {
		reqs[i] = &core.Request{
			ID:        int64(i),
			Model:     fmt.Sprintf("m%03d", zipf.Uint64()),
			BatchSize: 32,
			Arrival:   sim.Time(i),
		}
	}
	return reqs
}

// scheduleOnce runs one full Schedule round over a fresh scheduler and
// queue, returning the dispatches.
func scheduleOnce(b testing.TB, backend core.Backend, n int) []core.Dispatch {
	s, err := core.New(core.Config{Policy: core.LALBO3, O3Limit: core.DefaultO3Limit}, backend)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range schedRequests(n) {
		if err := s.Enqueue(r); err != nil {
			b.Fatal(err)
		}
	}
	return s.Schedule(sim.Time(n))
}

// TestScheduleDecisionEquivalence pins the refactor's contract: the
// indexed backend (incremental idle set + holder lists) and the
// scan-based backend produce identical dispatch sequences.
func TestScheduleDecisionEquivalence(t *testing.T) {
	idxBackend, _ := newSchedBackend(true)
	scanBackend, _ := newSchedBackend(false)
	di := scheduleOnce(t, idxBackend, 256)
	ds := scheduleOnce(t, scanBackend, 256)
	if len(di) != len(ds) {
		t.Fatalf("dispatch counts differ: indexed=%d scan=%d", len(di), len(ds))
	}
	for i := range di {
		if di[i].Req.ID != ds[i].Req.ID || di[i].GPU != ds[i].GPU ||
			di[i].ExpectHit != ds[i].ExpectHit || di[i].FromLocalQueue != ds[i].FromLocalQueue {
			t.Errorf("dispatch %d differs: indexed=%+v scan=%+v", i, di[i], ds[i])
		}
	}
	if len(di) == 0 {
		t.Fatal("no dispatches produced")
	}
}

// BenchmarkScheduleDecision measures one full Schedule round (64 GPUs,
// half busy, 256 queued requests) with the indexed backend (incremental
// idle set + model→resident-GPUs holder lists) against the seed's
// scan-based lookups. This is the hot path of every simulation event.
// The indexed/scan rows rebuild the scheduler and queue per iteration
// (fixture cost included, for cross-commit comparability); the steady row
// reuses one scheduler and measures the pure per-decision path — enqueue
// one request, run one Schedule round — which is where the ring-buffer
// queue, dense-ord state and pooled dispatch slices show up directly.
func BenchmarkScheduleDecision(b *testing.B) {
	for _, mode := range []string{"indexed", "scan"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			backend, _ := newSchedBackend(mode == "indexed")
			var dispatches int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dispatches = len(scheduleOnce(b, backend, 256))
			}
			b.ReportMetric(float64(dispatches), "dispatches")
		})
	}
	b.Run("steady", func(b *testing.B) {
		// Fully-idle fleet: every round dispatches exactly the request it
		// enqueued (idle holders mean a hit elsewhere or a miss here, and
		// never a park), so pool requests recycle only after dispatch and
		// the measured shape is fixed regardless of b.N.
		_, raw := newSchedBackend(true)
		for i := range raw.busy {
			raw.busy[i] = false
		}
		idle := make([]core.Ord, len(raw.ids))
		for i := range idle {
			idle[i] = core.Ord(i)
		}
		s, err := core.New(core.Config{Policy: core.LALBO3, O3Limit: core.DefaultO3Limit},
			idleListerBackend{schedBackend: raw, idle: idle})
		if err != nil {
			b.Fatal(err)
		}
		reqs := schedRequests(256)
		var dispatched int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := reqs[i%len(reqs)]
			r.Arrival = sim.Time(i)
			if err := s.Enqueue(r); err != nil {
				b.Fatal(err)
			}
			n := len(s.Schedule(sim.Time(i)))
			if n != 1 {
				b.Fatalf("steady round dispatched %d requests", n)
			}
			dispatched += n
		}
		b.ReportMetric(float64(dispatched)/float64(b.N), "dispatches/op")
	})
}

// TestHotpathZeroAlloc pins the hot loops every simulated request crosses
// at 0 allocs/op with tracing disabled (the zero obs.Options): the
// engine's schedule+fire cycle, the steady per-decision scheduler round,
// the GPU manager's launch → completion cycle that links them, and all
// three together as one warm cluster's Submit → dispatch → complete. The
// instrumentation hooks are nil-guarded pointer checks and a launch fills
// its GPU's resident slot; if either ever escapes into an allocation,
// this fails before the BENCH snapshot quietly regresses.
func TestHotpathZeroAlloc(t *testing.T) {
	t.Run("engine_fire", func(t *testing.T) {
		e := sim.New()
		fn := func(sim.Time) {}
		// Warm the engine's event pool before measuring.
		for i := 0; i < 512; i++ {
			e.After(time.Millisecond, "fire", fn)
			e.Step()
		}
		if avg := testing.AllocsPerRun(1000, func() {
			e.After(time.Millisecond, "fire", fn)
			e.Step()
		}); avg != 0 {
			t.Errorf("engine fire allocates %.2f allocs/op, want 0", avg)
		}
	})
	t.Run("steady_decision", func(t *testing.T) {
		// The steady fixture from BenchmarkScheduleDecision: fully idle
		// 64-GPU fleet, so every round dispatches exactly one request.
		_, raw := newSchedBackend(true)
		for i := range raw.busy {
			raw.busy[i] = false
		}
		idle := make([]core.Ord, len(raw.ids))
		for i := range idle {
			idle[i] = core.Ord(i)
		}
		s, err := core.New(core.Config{Policy: core.LALBO3, O3Limit: core.DefaultO3Limit},
			idleListerBackend{schedBackend: raw, idle: idle})
		if err != nil {
			t.Fatal(err)
		}
		reqs := schedRequests(256)
		tick := 0
		round := func() {
			r := reqs[tick%len(reqs)]
			r.Arrival = sim.Time(tick)
			if err := s.Enqueue(r); err != nil {
				t.Fatal(err)
			}
			if n := len(s.Schedule(sim.Time(tick))); n != 1 {
				t.Fatalf("steady round dispatched %d requests", n)
			}
			tick++
		}
		for i := 0; i < 512; i++ {
			round() // warm the queue ring, dispatch pool and ord state
		}
		if avg := testing.AllocsPerRun(1000, round); avg != 0 {
			t.Errorf("steady decision allocates %.2f allocs/op, want 0", avg)
		}
	})
	t.Run("launch_complete", func(t *testing.T) {
		cycle, err := experiments.LaunchCycle(8)
		if err != nil {
			t.Fatal(err)
		}
		for _, members := range []int{1, 4} {
			if avg := testing.AllocsPerRun(1000, func() {
				if err := cycle(members); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%d-member launch+complete allocates %.2f allocs/op, want 0", members, avg)
			}
		}
	})
	t.Run("cluster_submit_complete", func(t *testing.T) {
		c, err := cluster.New(cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		req := &core.Request{Function: "fn", Model: "resnet18", BatchSize: 32}
		cycle := func() {
			// The request is done with once its completion has run.
			req.ID++
			req.Arrival = c.Engine().Now()
			if err := c.Submit(req); err != nil {
				t.Fatal(err)
			}
			c.Engine().Run(0)
		}
		// Past the first miss, and short of the next growth of the
		// cluster's latency sample (it starts with room for 4096).
		for i := 0; i < 512; i++ {
			cycle()
		}
		before := c.Completed()
		if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
			t.Errorf("cluster submit+complete allocates %.2f allocs/op, want 0", avg)
		}
		if done := c.Completed() - before; done != 1001 {
			t.Errorf("%d completions for 1001 cycles", done)
		}
	})
	t.Run("miss_evict_cycle", func(t *testing.T) {
		// One 5 GiB GPU holds one of two 3.9 GB models, so alternating
		// them makes every cycle miss + evict + insert: the replacement
		// list's node and the index's holder list are both recycled. (3.00
		// allocs/op with container/list and a dropped holder list: the
		// list element, the boxed model name, the holder slice.)
		cfg := cluster.DefaultConfig()
		cfg.Nodes, cfg.GPUsPerNode, cfg.GPUMemory = 1, 1, 5<<30
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pair := [2]string{"vgg16", "vgg16.bn"}
		req := &core.Request{Function: "fn", BatchSize: 32}
		cycle := func() {
			req.ID++
			req.Model = pair[req.ID%2]
			req.Arrival = c.Engine().Now()
			if err := c.Submit(req); err != nil {
				t.Fatal(err)
			}
			c.Engine().Run(0)
		}
		for i := 0; i < 512; i++ {
			cycle()
		}
		before := c.CacheManager().Metrics().Misses
		if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
			t.Errorf("miss+evict+insert allocates %.2f allocs/op, want 0", avg)
		}
		if missed := c.CacheManager().Metrics().Misses - before; missed != 1001 {
			t.Errorf("%d misses for 1001 cycles", missed)
		}
	})
}

// BenchmarkSchedulerOverhead measures the raw decision cost of one
// Schedule round at a realistic queue depth — the §VI scalability claim
// that decisions are bounded by cached-model counts rather than queue
// length.
func BenchmarkSchedulerOverhead(b *testing.B) {
	rep, err := RunExperiment("LALBO3", 35)
	if err != nil {
		b.Fatal(err)
	}
	// The experiment above is the workload; re-running per iteration
	// keeps this honest but slow. Instead report events/op from a single
	// run and time full simulations.
	_ = rep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("LALBO3", 35); err != nil {
			b.Fatal(err)
		}
	}
}
