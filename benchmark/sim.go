package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"gpufaas/internal/cluster"
	"gpufaas/internal/experiments"
	"gpufaas/internal/models"
	"gpufaas/internal/multicell"
	"gpufaas/internal/trace"
)

// The simulator workloads drive the same public calls experiments.Run and
// experiments.RunCells compose — Workload / StreamWorkload, cluster.New,
// RunWorkload / RunWorkloadStream, multicell.Run — one stage at a time, so
// each stage can be timed. staged_test.go holds the staged path to a
// Report byte-identical to the composed one.

// simWorkload is a simulator workload: the replay runs that make up one
// iteration of its measured loop. Every iteration repeats the same runs, so
// the inputs depend on the seed alone, not on how many iterations fit.
type simWorkload struct {
	runs func(seed int64, short bool) []experiments.RunParams
	// cells > 1 shards every run into that many cells.
	cells int
}

// clusterConfig resolves the RunParams fields the benchmark's workloads set
// into a cluster configuration (sans zoo) and the effective workload.
func clusterConfig(p experiments.RunParams) (cluster.Config, experiments.WorkloadParams) {
	cfg := cluster.DefaultConfig()
	cfg.Policy = p.Policy
	if p.Nodes > 0 {
		cfg.Nodes = p.Nodes
	}
	if p.GPUsPerNode > 0 {
		cfg.GPUsPerNode = p.GPUsPerNode
	}
	cfg.MaxBatch = p.MaxBatch
	if p.Chaos != nil {
		cc := *p.Chaos
		cfg.Chaos = &cc
	}
	cfg.Retry = p.Retry
	wp := p.Workload
	if wp.Minutes == 0 {
		wp = experiments.DefaultWorkload(p.WorkingSet)
	}
	return cfg, wp
}

// stagedSource sits between a replay and its arrival stream. It always
// notes when the replay first asks for arrivals — the moment set-up ends —
// and, under a tracer, spans and sums every Next call.
type stagedSource struct {
	src   cluster.ArrivalSource
	first time.Time

	tr     *tracer // nil: untimed
	track  int
	parent int
	calls  int64
	total  time.Duration
}

func (s *stagedSource) Next() ([]trace.Request, bool) {
	if s.first.IsZero() {
		s.first = time.Now()
	}
	if s.tr == nil {
		return s.src.Next()
	}
	t0 := time.Now()
	sp := s.tr.open("trace.stream_next", "trace", s.track, s.calls, s.parent)
	batch, ok := s.src.Next()
	s.tr.close(sp)
	s.calls++
	s.total += time.Since(t0)
	return batch, ok
}

// simRun is the outcome of one staged replay run.
type simRun struct {
	reportJSON                  []byte
	injected, completed, failed int64
	finalLive                   int64
	setup, wall                 time.Duration
	layer                       metrics
}

// layerMax lists the per-layer metrics that combine across runs as a
// maximum; layerMean those that combine as a mean. The rest are sums.
var (
	layerMax = map[string]bool{
		"sim.max_queue_len": true, "core.peak_local_queue": true,
		"cluster.arena_peak_live": true, "cluster.ord_bound": true, "faas.arena_peak_live": true,
	}
	layerMean = map[string]bool{
		"gpumgr.sm_utilization": true, "gpumgr.load_fraction": true,
		"cluster.final_gpus": true, "cluster.sim_avg_latency_s": true, "cluster.sim_p95_latency_s": true,
		"multicell.cpu_per_wall": true, "cache.hit_ratio": true,
	}
)

// addLayer folds one part's per-layer metrics — a run's, a cell's, an
// iteration's — into a total.
func addLayer(total, part metrics) {
	for k, v := range part {
		if layerMax[k] {
			total[k] = max(total[k], v)
		} else {
			total[k] += v
		}
	}
}

// stagedRun replays one single-cluster run stage by stage.
func stagedRun(p experiments.RunParams, tr *tracer, id int64) (simRun, error) {
	start := time.Now()
	top := tr.open("sim.run", "bench", 0, id, -1)
	cfg, wp := clusterConfig(p)

	var (
		topModel string
		src      *stagedSource
		reqs     []trace.Request
	)
	sp := tr.open("trace.build", "trace", 0, id, top)
	if p.Streaming {
		built, err := experiments.StreamWorkload(wp, models.Default(), p.StreamChunk)
		if err != nil {
			return simRun{}, err
		}
		cfg.Zoo, topModel = built.Zoo, built.TopModel
		src = &stagedSource{src: built.Stream, tr: tr, parent: top}
	} else {
		built, err := experiments.Workload(wp, models.Default())
		if err != nil {
			return simRun{}, err
		}
		cfg.Zoo, topModel, reqs = built.Zoo, built.TopModel, built.Requests
	}
	tr.close(sp)
	builtAt := time.Now()

	sp = tr.open("cluster.new", "cluster", 0, id, top)
	c, err := cluster.New(cfg)
	if err != nil {
		return simRun{}, err
	}
	if topModel != "" {
		c.TrackModel(topModel)
	}
	tr.close(sp)
	ready := time.Now()

	sp = tr.open("cluster.replay", "cluster", 0, id, top)
	var rep cluster.Report
	if src != nil {
		src.parent = sp
		rep, err = c.RunWorkloadStream(src)
	} else {
		rep, err = c.RunWorkload(reqs)
	}
	if err != nil {
		return simRun{}, err
	}
	tr.close(sp)
	tr.close(top)
	done := time.Now()

	out := simRun{
		injected:  int64(len(reqs)),
		completed: rep.Requests,
		failed:    rep.Failed,
		setup:     ready.Sub(start),
		wall:      done.Sub(start),
	}
	if out.reportJSON, err = json.Marshal(rep); err != nil {
		return simRun{}, err
	}
	out.layer = clusterLayer(rep, c.CacheManager().Metrics().Requests)
	l := out.layer
	if st := rep.Streaming; st != nil {
		out.injected, out.finalLive = st.Requests, st.FinalLive
		l["trace.stream_next_s"] = src.total.Seconds()
	}
	l["trace.build_s"] = builtAt.Sub(start).Seconds()
	l["trace.requests"] = float64(out.injected)
	l["cluster.new_s"] = ready.Sub(builtAt).Seconds()
	l["cluster.replay_s"] = done.Sub(ready).Seconds()
	l["sim.events_fired"] = float64(c.Engine().Fired())
	return out, nil
}

// clusterLayer reads a cluster Report's counters into per-layer metrics.
// lookups is the cache-lookup count behind the Report's miss ratio.
func clusterLayer(rep cluster.Report, lookups int64) metrics {
	l := metrics{
		"sim.max_queue_len":         float64(rep.MaxEventQueueLen),
		"core.o3_dispatches":        float64(rep.O3Dispatches),
		"core.starved":              float64(rep.Starved),
		"core.local_queue_moves":    float64(rep.LocalQueueMoves),
		"core.peak_local_queue":     float64(rep.PeakLocalQueue),
		"core.batched_dispatches":   float64(rep.BatchedDispatches),
		"core.batched_members":      float64(rep.BatchedMembers),
		"cache.lookups":             float64(lookups),
		"cache.misses":              float64(rep.Misses),
		"cache.false_misses":        float64(rep.FalseMisses),
		"gpumgr.sm_utilization":     rep.SMUtilization,
		"gpumgr.load_fraction":      rep.LoadFraction,
		"chaos.gpu_failures":        float64(rep.Failures),
		"chaos.interrupted":         float64(rep.Interrupted),
		"chaos.retries":             float64(rep.Retries),
		"cluster.ord_bound":         float64(rep.OrdBound),
		"cluster.final_gpus":        float64(rep.FinalGPUs),
		"cluster.sim_avg_latency_s": rep.AvgLatencySec,
		"cluster.sim_p95_latency_s": rep.P95LatencySec,
	}
	if lookups > 0 {
		l["cache.hit_ratio"] = 1 - float64(rep.Misses)/float64(lookups)
	}
	if st := rep.Streaming; st != nil {
		l["cluster.arena_peak_live"] = float64(st.PeakInflight)
		l["cluster.arena_allocated"] = float64(st.ArenaAllocated)
	}
	return l
}

// cellWorkers is how many cells simulate at once: the cores this box has,
// up to the cell count the workload uses.
func cellWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

// stagedCells replays one run sharded into cells through multicell.Run,
// with the per-cell set-up experiments.RunCells performs done here so it
// can be timed.
func stagedCells(p experiments.RunParams, cells, workers int, tr *tracer, id int64) (simRun, error) {
	start := time.Now()
	cpu0 := processCPU()
	top := tr.open("multicell.run", "multicell", 0, id, -1)
	_, wp := clusterConfig(p)
	nodes := multicell.PartitionCounts(p.Nodes, cells)
	// One slot per cell, each written by the one worker that sets the cell
	// up and read after Run returns.
	type cellStage struct {
		build time.Duration
		ready time.Time
		src   *stagedSource
	}
	stages := make([]cellStage, cells)
	res, err := multicell.Run(multicell.Config{
		Cells:   cells,
		Router:  multicell.RouterConfig{Policy: multicell.RouteHash, Seed: wp.Seed},
		Workers: workers,
		Setup: func(cell int) (multicell.CellSpec, error) {
			t0 := time.Now()
			cp := p
			cp.Nodes = nodes[cell]
			cfg, cwp := clusterConfig(cp)
			sp := tr.open("trace.build", "trace", cell+1, id, top)
			built, err := experiments.StreamWorkload(cwp, models.Default(), cp.StreamChunk)
			if err != nil {
				return multicell.CellSpec{}, err
			}
			tr.close(sp)
			cfg.Zoo = built.Zoo
			src := &stagedSource{src: built.Stream, tr: tr, track: cell + 1, parent: top}
			stages[cell] = cellStage{build: time.Since(t0), ready: time.Now(), src: src}
			return multicell.CellSpec{Config: cfg, Source: src, TopModel: built.TopModel}, nil
		},
	})
	if err != nil {
		return simRun{}, err
	}
	tr.close(top)
	wall := time.Since(start)
	cpu := processCPU() - cpu0

	m := res.Merged
	out := simRun{completed: m.Requests, failed: m.Failed, wall: wall}
	if out.reportJSON, err = json.Marshal(m); err != nil {
		return simRun{}, err
	}
	// Counts are summed over the cells, peaks are the worst cell's.
	l := metrics{}
	out.layer = l
	var build, newCluster, next time.Duration
	for i, c := range res.Cells {
		addLayer(l, clusterLayer(c.Report, c.Stats.CacheRequests))
		build += stages[i].build
		newCluster += stages[i].src.first.Sub(stages[i].ready)
		next += stages[i].src.total
	}
	for k := range layerMean {
		l[k] /= float64(cells)
	}
	out.setup = build + newCluster
	if st := m.Streaming; st != nil {
		out.injected, out.finalLive = st.Requests, st.FinalLive
	}
	l["cluster.final_gpus"] = float64(m.FinalGPUs)
	l["trace.build_s"] = build.Seconds()
	l["trace.stream_next_s"] = next.Seconds()
	l["trace.requests"] = float64(out.injected)
	l["cluster.new_s"] = newCluster.Seconds()
	l["multicell.run_s"] = res.WallSeconds
	l["multicell.cpu_per_wall"] = cpu.Seconds() / wall.Seconds()
	l["multicell.min_cell_requests"] = float64(m.CellSpread.MinRequests)
	l["multicell.max_cell_requests"] = float64(m.CellSpread.MaxRequests)
	return out, nil
}

// processCPU is the CPU time, user plus system, this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simIter is one iteration of a simulator workload's measured loop.
type simIter struct {
	injected, completed, failed int64
	wall, setup                 time.Duration
	runWalls                    []time.Duration
	digest                      string // sha256 over the runs' Report JSON, in run order
	layer                       metrics
	violations                  []string
}

// iterate makes one pass over the workload's runs, staged.
func (w simWorkload) iterate(seed int64, short bool, tr *tracer, iter int64) (simIter, error) {
	runs := w.runs(seed, short)
	it := simIter{layer: metrics{}}
	h := sha256.New()
	for i, p := range runs {
		id := iter*int64(len(runs)) + int64(i)
		var r simRun
		var err error
		if w.cells > 1 {
			r, err = stagedCells(p, w.cells, cellWorkers(), tr, id)
		} else {
			r, err = stagedRun(p, tr, id)
		}
		if err != nil {
			return simIter{}, fmt.Errorf("run %d: %w", i, err)
		}
		h.Write(r.reportJSON)
		it.injected += r.injected
		it.completed += r.completed
		it.failed += r.failed
		it.wall += r.wall
		it.setup += r.setup
		it.runWalls = append(it.runWalls, r.wall)
		if r.completed+r.failed != r.injected {
			it.violations = append(it.violations, fmt.Sprintf("run %d: completed %d + failed %d != injected %d", i, r.completed, r.failed, r.injected))
		}
		if r.finalLive != 0 {
			it.violations = append(it.violations, fmt.Sprintf("run %d: %d requests still live in the arena after the drain", i, r.finalLive))
		}
		addLayer(it.layer, r.layer)
	}
	for k := range layerMean {
		it.layer[k] /= float64(len(runs))
	}
	it.digest = hex.EncodeToString(h.Sum(nil))
	return it, nil
}

// reference replays the iteration through the composed paths —
// experiments.Run, or experiments.RunCells on one worker — and returns the
// digest the staged iterations must reproduce.
func (w simWorkload) reference(seed int64, short bool) (string, error) {
	h := sha256.New()
	for i, p := range w.runs(seed, short) {
		var rep any
		if w.cells > 1 {
			res, err := experiments.RunCells(experiments.CellParams{Run: p, Cells: w.cells, Workers: 1})
			if err != nil {
				return "", fmt.Errorf("reference run %d: %w", i, err)
			}
			rep = res.Merged
		} else {
			row, err := experiments.Run(p)
			if err != nil {
				return "", fmt.Errorf("reference run %d: %w", i, err)
			}
			rep = row.Report
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// simWindow is a measured loop of iterations.
type simWindow struct {
	iters   []simIter
	elapsed time.Duration
	mem     memCount
}

// measure iterates for at least the given time (and at least once).
func (w simWorkload) measure(seed int64, short bool, seconds float64, tr *tracer) (simWindow, error) {
	var win simWindow
	mem0 := readMem()
	start := time.Now()
	for len(win.iters) == 0 || time.Since(start).Seconds() < seconds {
		it, err := w.iterate(seed, short, tr, int64(len(win.iters)))
		if err != nil {
			return simWindow{}, err
		}
		win.iters = append(win.iters, it)
	}
	win.elapsed = time.Since(start)
	win.mem = readMem().since(mem0)
	return win, nil
}

// runWallsUS is every replay run's wall time in the window, in µs.
func (win simWindow) runWallsUS() []float64 {
	var out []float64
	for _, it := range win.iters {
		for _, d := range it.runWalls {
			out = append(out, float64(d)/1e3)
		}
	}
	return out
}

// wallClock writes the window's wall-clock rows: requests an iteration
// replays per second of its median wall time (workload build + cluster
// build + replay + report), and the runs' median and 99th-percentile wall
// time. With fewer than 100 runs in the window the 99th is the slowest.
func (win simWindow) wallClock(m metrics) {
	walls := win.runWallsUS()
	m["wall.requests_per_s"] = float64(win.iters[0].completed) / median(win.iterWalls())
	m["wall.latency_p50_us"] = median(walls)
	m["wall.latency_p99_us"] = percentile(walls, 99)
}

func (win simWindow) iterWalls() []float64 {
	out := make([]float64, len(win.iters))
	for i, it := range win.iters {
		out[i] = it.wall.Seconds()
	}
	return out
}

// check applies the simulator correctness gate to a window: conservation
// and a clean arena in every run, and one digest across all iterations.
func (win simWindow) check() []string {
	var bad []string
	for i, it := range win.iters {
		bad = append(bad, it.violations...)
		if it.digest != win.iters[0].digest {
			bad = append(bad, fmt.Sprintf("iteration %d digest %s differs from iteration 0 %s", i, it.digest, win.iters[0].digest))
		}
	}
	return bad
}

// run measures the workload and assembles its result.
func (w simWorkload) run(o runOpts) (*result, error) {
	res := &result{Metrics: metrics{}}
	// The composed path runs first, outside the clock: it is the
	// correctness reference, and it brings the heap to its steady size
	// before anything is timed.
	want, err := w.reference(o.Seed, o.Short)
	if err != nil {
		return nil, err
	}
	half := o.Seconds
	if o.Traced {
		half /= 2
	}
	plain, err := w.measure(o.Seed, o.Short, half, nil)
	if err != nil {
		return nil, err
	}
	res.Violations = plain.check()
	first := plain.iters[0]
	res.Digest = first.digest
	if want != first.digest {
		res.Violations = append(res.Violations, fmt.Sprintf("staged digest %s differs from the composed path's %s", first.digest, want))
	}

	if !o.Traced {
		var setups []float64
		for _, it := range plain.iters {
			res.Attempted += it.injected
			res.Failed += it.failed
			setups = append(setups, it.setup.Seconds())
		}
		m := res.Metrics
		m["allocs_per_request"] = float64(plain.mem.mallocs) / float64(res.Attempted)
		m["bytes_per_request"] = float64(plain.mem.bytes) / float64(res.Attempted)
		m["success_share"] = 1 - float64(res.Failed)/float64(res.Attempted)
		m["setup_s"] = median(setups)
		plain.wallClock(m)
		res.Samples = len(plain.runWallsUS())
		return res, nil
	}

	tr := newTracer()
	prof, err := startProfile(o.CPUProfile)
	if err != nil {
		return nil, err
	}
	traced, err := w.measure(o.Seed, o.Short, half, tr)
	shares, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	res.Violations = append(res.Violations, traced.check()...)
	if d := traced.iters[0].digest; d != first.digest {
		res.Violations = append(res.Violations, fmt.Sprintf("traced digest %s differs from untraced %s", d, first.digest))
	}
	m := res.Metrics
	for _, it := range traced.iters {
		res.Attempted += it.injected
		res.Failed += it.failed
		res.Samples += len(it.runWalls)
		addLayer(m, it.layer)
	}
	for k := range m {
		if !layerMax[k] {
			m[k] /= float64(len(traced.iters)) // per iteration
		}
	}
	for k, v := range shares {
		m[k] = v
	}
	if n := m["cache.lookups"]; n > 0 {
		m["cache.hit_ratio"] = 1 - m["cache.misses"]/n // over all runs, not a mean of ratios
	}
	if n := m["trace.requests"]; n > 0 {
		m["sim.events_per_request"] = m["sim.events_fired"] / n
	}
	if s := m["cluster.replay_s"]; s > 0 {
		m["sim.events_per_s"] = m["sim.events_fired"] / s
	}
	traced.mem.report(m)
	plain.wallClock(m)
	m["bench.run_s"] = traced.elapsed.Seconds()
	m["bench.samples"] = float64(res.Samples)
	m["bench.trace_overhead_share"] = median(traced.iterWalls())/median(plain.iterWalls()) - 1
	res.tracer = tr
	return res, nil
}
