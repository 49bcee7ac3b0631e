package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpufaas/internal/cluster"
	"gpufaas/internal/core"
	"gpufaas/internal/dataset"
	"gpufaas/internal/datastore"
	"gpufaas/internal/faas"
	"gpufaas/internal/models"
	"gpufaas/internal/nn"
	"gpufaas/internal/sim"
)

// The live workloads are closed loops: each caller sends its next invoke
// only when the previous one has answered. GPU service time on this path
// is a model constant (TimeScale x Table I), so the fleet (1x8 GPUs) stays
// unsaturated and the numbers are the cost of the software around it.

type liveKind int

const (
	liveHTTPInfer liveKind = iota // real HTTP POST to a GPU inference function
	liveHTTPEcho                  // real HTTP POST to an echo function
	livePredict                   // InferenceClient.Predict, no gateway
)

// liveWorkload is a live-path workload.
type liveWorkload struct {
	kind      liveKind
	timeScale float64
	models    []string // one GPU function per model, batch 1
	warmup    int      // invokes that end set-up (caches filled, lazy state built)
	sampleCap int      // per-caller latency samples to make room for up front
	spanEvery int64    // traced run: span one request in this many
}

const (
	liveBatch    = 1
	echoBodySize = 64
)

// callers leaves one core to the HTTP server. Predict callers take every
// core, up to 4: a lone caller parks while the scaled GPU timer runs, and
// then measures how long this box takes to wake a thread (about a
// millisecond in one invoke of twenty), not the control plane.
func (w liveWorkload) callers() int {
	n := runtime.GOMAXPROCS(0)
	if w.kind == livePredict {
		return min(n, 4)
	}
	return max(1, n-1)
}

func (w liveWorkload) specs() []faas.FunctionSpec {
	if w.kind == liveHTTPEcho {
		return []faas.FunctionSpec{{Name: "echo", Handler: faas.HandlerEcho}}
	}
	specs := make([]faas.FunctionSpec, len(w.models))
	for i, m := range w.models {
		specs[i] = faas.FunctionSpec{Name: m, Handler: faas.HandlerInference, GPUEnabled: true, Model: m, BatchSize: liveBatch}
	}
	return specs
}

// liveSystem is a system under test, entered at one rung of the ladder.
type liveSystem struct {
	// op performs invoke i of one caller and checks the reply.
	op   func(caller int, i int64) error
	stop func()
	// counts reads per-layer counts through the system's public accessors,
	// once the loop has gone quiet.
	counts func(m metrics)
	// modelUS is the mean GPU time (load + infer) the system reported per
	// op, in µs: the part of a Submit that is model constant, not software.
	modelUS func() float64
}

// opInputs are the seeded request inputs: echo bodies, and which function
// each Predict caller invokes next.
type opInputs struct {
	bodies [][]byte
	picks  []uint8
}

func newOpInputs(seed int64, functions int) opInputs {
	rng := rand.New(rand.NewSource(seed))
	in := opInputs{bodies: make([][]byte, 256), picks: make([]uint8, 4096)}
	for i := range in.bodies {
		in.bodies[i] = make([]byte, echoBodySize)
		rng.Read(in.bodies[i])
	}
	for i := range in.picks {
		in.picks[i] = uint8(rng.Intn(functions))
	}
	return in
}

func (in opInputs) body(i int64) []byte { return in.bodies[i%int64(len(in.bodies))] }

// pick spreads callers over the sequence so they do not move in step.
func (in opInputs) pick(caller int, i int64) int {
	return int(in.picks[(i+int64(caller)*1021)%int64(len(in.picks))])
}

func (w liveWorkload) gateway() (*faas.Gateway, error) {
	g, err := faas.NewGateway(faas.GatewayConfig{
		Nodes: 1, GPUsPerNode: 8, TimeScale: w.timeScale,
		// Admission is on, as deployed, with limits a closed loop of a few
		// callers never reaches.
		Admission: &faas.AdmissionConfig{MaxConcurrent: 64},
	})
	if err != nil {
		return nil, err
	}
	for _, spec := range w.specs() {
		if _, err := g.Deploy(spec); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// gatewayCounts reads what a gateway's accessors expose after a run.
func gatewayCounts(g *faas.Gateway) func(metrics) {
	return func(m metrics) {
		arena := g.ArenaStats()
		m["faas.arena_allocated"] = float64(arena.Allocated)
		m["faas.arena_peak_live"] = float64(arena.PeakLive)
		for _, cell := range g.AdmissionStats() {
			m["faas.admission_shed"] += float64(cell.ShedTotal())
		}
		m["datastore.records"] = float64(g.Store().Len())
		clusterCounts(g.Cluster(), m)
	}
}

// clusterCounts reads a quiescent live cluster's scheduler and cache
// counters; the Report's simulated-time rows mean nothing on a wall clock.
func clusterCounts(c *cluster.Cluster, m metrics) {
	for k, v := range clusterLayer(c.Snapshot(), c.CacheManager().Metrics().Requests) {
		if strings.HasPrefix(k, "core.") || strings.HasPrefix(k, "cache.") || k == "cluster.ord_bound" || k == "cluster.final_gpus" {
			m[k] = v
		}
	}
}

// checkInference verifies an inference reply carries one prediction per
// input.
func checkInference(predictions int) error {
	if predictions != liveBatch {
		return fmt.Errorf("inference returned %d predictions, want %d", predictions, liveBatch)
	}
	return nil
}

// httpSystem is rung R0: a real listener, http.Server and keep-alive
// clients around the gateway.
func (w liveWorkload) httpSystem(seed int64) (*liveSystem, error) {
	g, err := w.gateway()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: g.Handler()}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // always ErrServerClosed: stop closes the server
		close(served)
	}()
	callers := w.callers()
	transport := &http.Transport{MaxIdleConnsPerHost: callers, DisableCompression: true}
	client := &http.Client{Transport: transport}
	url := "http://" + ln.Addr().String() + "/function/" + w.specs()[0].Name
	in := newOpInputs(seed, 1)
	replies := make([]bytes.Buffer, callers)
	echo := w.kind == liveHTTPEcho
	return &liveSystem{
		op: func(caller int, i int64) error {
			var body []byte
			if echo {
				body = in.body(i)
			}
			resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				return err
			}
			reply := &replies[caller]
			reply.Reset()
			_, err = reply.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(reply.Bytes()))
			}
			if echo {
				if !bytes.Equal(reply.Bytes(), body) {
					return errors.New("echo body did not round-trip")
				}
				return nil
			}
			var out struct {
				Predictions []int `json:"predictions"`
			}
			if err := json.Unmarshal(reply.Bytes(), &out); err != nil {
				return fmt.Errorf("inference reply: %w", err)
			}
			return checkInference(len(out.Predictions))
		},
		stop: func() {
			transport.CloseIdleConnections()
			srv.Close()
			<-served
		},
		counts: gatewayCounts(g),
	}, nil
}

// gatewaySystem is rung R1: Gateway.Invoke without HTTP.
func (w liveWorkload) gatewaySystem(seed int64) (*liveSystem, error) {
	g, err := w.gateway()
	if err != nil {
		return nil, err
	}
	name := w.specs()[0].Name
	in := newOpInputs(seed, 1)
	echo := w.kind == liveHTTPEcho
	return &liveSystem{
		op: func(_ int, i int64) error {
			if !echo {
				resp, err := g.Invoke(name, faas.InvokeRequest{})
				if err != nil {
					return err
				}
				return checkInference(len(resp.Predictions))
			}
			body := in.body(i)
			resp, err := g.Invoke(name, faas.InvokeRequest{Body: body})
			if err != nil {
				return err
			}
			if !bytes.Equal(resp.Body, body) {
				return errors.New("echo body did not round-trip")
			}
			return nil
		},
		stop:   func() {},
		counts: gatewayCounts(g),
	}, nil
}

// liveCluster builds the RealClock cluster the gateway builds for itself:
// 1x8 GPUs, Table I profiles scaled by the workload's TimeScale. withSink
// adds the gateway's datastore sink, for ladder rungs that stand in for a
// gateway's inside.
func (w liveWorkload) liveCluster(withSink bool, onResult func(faas.Result), onDrop func(int64, error)) (*cluster.Cluster, sim.Clock, error) {
	zoo := models.Default()
	clock := sim.NewRealClock()
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.GPUsPerNode = 1, 8
	cfg.Zoo = zoo
	cfg.Profiles = faas.ScaledProfiles(zoo, cluster.DefaultGPUType, w.timeScale)
	cfg.Clock = clock
	cfg.OnResult = onResult
	cfg.OnDrop = onDrop
	if withSink {
		cfg.Sink = faas.DatastoreSink{Store: datastore.New()}
	}
	c, err := cluster.New(cfg)
	return c, clock, err
}

// predictSystem is rung R2, and the live-predict workload itself: the
// §III-A client interface over a live cluster, no gateway above it.
func (w liveWorkload) predictSystem(seed int64, withSink bool) (*liveSystem, error) {
	var ic *faas.InferenceClient
	c, clock, err := w.liveCluster(withSink,
		func(res faas.Result) { ic.Route(res) },
		func(id int64, err error) { ic.Drop(id, err) })
	if err != nil {
		return nil, err
	}
	ic = faas.NewInferenceClient(c, clock, time.Minute)
	specs := w.specs()
	in := newOpInputs(seed, len(specs))
	return &liveSystem{
		op: func(caller int, i int64) error {
			spec := specs[in.pick(caller, i)]
			res, err := ic.Predict(spec, liveBatch)
			if err != nil {
				return err
			}
			if res.Model != spec.Model {
				return fmt.Errorf("predict for %s answered for %s", spec.Model, res.Model)
			}
			return nil
		},
		stop: func() {},
		counts: func(m metrics) {
			arena := ic.ArenaStats()
			m["faas.arena_allocated"] = float64(arena.Allocated)
			m["faas.arena_peak_live"] = float64(arena.PeakLive)
			clusterCounts(c, m)
		},
	}, nil
}

// submitSystem is rung R3: Cluster.Submit with a benchmark-side waiter on
// OnResult, one caller.
func (w liveWorkload) submitSystem(seed int64, withSink bool) (*liveSystem, error) {
	type outcome struct {
		res faas.Result
		err error
	}
	done := make(chan outcome, 1)
	c, clock, err := w.liveCluster(withSink,
		func(res faas.Result) { done <- outcome{res: res} },
		func(_ int64, err error) { done <- outcome{err: err} })
	if err != nil {
		return nil, err
	}
	specs := w.specs()
	in := newOpInputs(seed, len(specs))
	var ops int64
	var model time.Duration
	return &liveSystem{
		op: func(caller int, i int64) error {
			spec := specs[in.pick(caller, i)]
			ops++
			req := &core.Request{ID: ops, Function: spec.Name, Model: spec.Model, BatchSize: liveBatch, Arrival: clock.Now()}
			if err := c.Submit(req); err != nil {
				return err
			}
			out := <-done
			if out.err != nil {
				return out.err
			}
			if out.res.ReqID != req.ID {
				return fmt.Errorf("submit %d completed as %d", req.ID, out.res.ReqID)
			}
			model += out.res.LoadTime + out.res.InferTime
			return nil
		},
		stop:    func() {},
		modelUS: func() float64 { return float64(model) / 1e3 / float64(max(ops, 1)) },
	}, nil
}

// nnSystem is rung R4: the CPU forward pass an inference invoke runs —
// input batch, preprocessing, network.
func (w liveWorkload) nnSystem() (*liveSystem, error) {
	pool, err := dataset.EvalPool(1)
	if err != nil {
		return nil, err
	}
	network, err := nn.Build(w.models[0], 1)
	if err != nil {
		return nil, err
	}
	return &liveSystem{
		op: func(int, int64) error {
			imgs, err := dataset.Batch(pool, 0, liveBatch)
			if err != nil {
				return err
			}
			x, err := dataset.ToTensor(imgs, nn.InputSize)
			if err != nil {
				return err
			}
			preds, err := network.Predict(x)
			if err != nil {
				return err
			}
			return checkInference(len(preds))
		},
		stop: func() {},
	}, nil
}

// encodeSystem is rung R5: marshalling the inference reply.
func encodeSystem() *liveSystem {
	resp := faas.InvokeResponse{
		Predictions: make([]int, liveBatch), GPU: "node0/gpu0", Hit: true,
		QueueWait: 3 * time.Microsecond, InferTime: 1250 * time.Microsecond, TotalLatency: 1253 * time.Microsecond,
	}
	return &liveSystem{
		op: func(int, int64) error {
			_, err := json.Marshal(resp)
			return err
		},
		stop: func() {},
	}
}

// workloadSystem enters the system where the workload's callers do.
func (w liveWorkload) workloadSystem(seed int64) (*liveSystem, error) {
	if w.kind == livePredict {
		return w.predictSystem(seed, false)
	}
	return w.httpSystem(seed)
}

// setUp builds a system and warms it up, and returns how long that took in
// seconds. The warm-up invokes come from as many callers as the measured
// loop has, so they run under its conditions.
func (w liveWorkload) setUp(build func() (*liveSystem, error), callers int) (*liveSystem, float64, error) {
	start := time.Now()
	sys, err := build()
	if err != nil {
		return nil, 0, err
	}
	// The callers draw on one count, so that all of them stay busy until
	// the warm-up is over: the last invokes of a caller left alone would
	// each wait for this box to wake a thread.
	errs := make([]error, callers)
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			for i := int64(0); errs[caller] == nil && started.Add(1) <= int64(w.warmup); i++ {
				errs[caller] = sys.op(caller, i)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		sys.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return sys, time.Since(start).Seconds(), nil
}

// loopOut is what one or more closed loops measured.
type loopOut struct {
	ok          int64 // successful invokes, all callers
	slices      []loopSlice
	attempted   int64
	failed      int64
	orderErrors int64 // failures that were "core: out-of-order enqueue"
	firstErr    error
	elapsed     time.Duration
	mem         memCount
}

// loopSlice is about one second of a loop. The reported rate and
// percentiles are medians over slices, so a burst of interference from
// outside the process moves one slice, not the result.
type loopSlice struct {
	perSecond, p50US, p99US float64
}

// add folds a later loop into lo.
func (lo *loopOut) add(next loopOut) {
	lo.ok += next.ok
	lo.slices = append(lo.slices, next.slices...)
	lo.attempted += next.attempted
	lo.failed += next.failed
	lo.orderErrors += next.orderErrors
	if lo.firstErr == nil {
		lo.firstErr = next.firstErr
	}
	lo.elapsed += next.elapsed
	lo.mem.mallocs += next.mem.mallocs
	lo.mem.bytes += next.mem.bytes
	lo.mem.numGC += next.mem.numGC
	lo.mem.heapSys = max(lo.mem.heapSys, next.mem.heapSys)
}

// closedLoop runs callers against the system for the given time. lat holds
// one latency buffer per caller, emptied here and handed back grown, so
// successive loops reuse them. With a tracer it spans one invoke in
// spanEvery, by request index.
func closedLoop(sys *liveSystem, lat [][]int64, seconds float64, tr *tracer, spanEvery int64, spanName string) loopOut {
	type callerOut struct {
		lat                 []int64
		marks               []int // len(lat) as each slice ended
		failed, orderErrors int64
		firstErr            error
	}
	slices := max(int(seconds), 1)
	sliceLen := time.Duration(seconds * float64(time.Second) / float64(slices))
	outs := make([]callerOut, len(lat))
	for i := range outs {
		outs[i].lat = lat[i][:0]
		outs[i].marks = make([]int, 0, slices)
	}
	var wg sync.WaitGroup
	mem0 := readMem()
	start := time.Now()
	deadline := start.Add(sliceLen * time.Duration(slices))
	for c := range outs {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			out := &outs[caller]
			t := time.Now()
			sliceEnd := start.Add(sliceLen)
			for i := int64(0); t.Before(deadline); i++ {
				sp := -1
				if tr != nil && i%spanEvery == 0 {
					sp = tr.open(spanName, "bench", caller+1, i, -1)
				}
				err := sys.op(caller, i)
				now := time.Now()
				tr.close(sp)
				if err != nil {
					out.failed++
					if strings.Contains(err.Error(), "out-of-order enqueue") {
						out.orderErrors++
					}
					if out.firstErr == nil {
						out.firstErr = err
					}
				} else {
					out.lat = append(out.lat, int64(now.Sub(t)))
				}
				for ; !now.Before(sliceEnd); sliceEnd = sliceEnd.Add(sliceLen) {
					out.marks = append(out.marks, len(out.lat))
				}
				t = now
			}
		}(c)
	}
	wg.Wait()
	lo := loopOut{elapsed: time.Since(start), mem: readMem().since(mem0)}
	for c, out := range outs {
		lat[c] = out.lat
		lo.attempted += int64(len(out.lat)) + out.failed
		lo.failed += out.failed
		lo.orderErrors += out.orderErrors
		if lo.firstErr == nil {
			lo.firstErr = out.firstErr
		}
		lo.ok += int64(len(out.lat))
	}
	var us []float64
	for k := 0; k < slices; k++ {
		us = us[:0]
		for _, out := range outs {
			from, to := 0, len(out.lat)
			if k > 0 {
				from = out.marks[k-1]
			}
			if k < slices-1 {
				to = out.marks[k]
			}
			for _, ns := range out.lat[from:to] {
				us = append(us, float64(ns)/1e3)
			}
		}
		if len(us) > 0 {
			sort.Float64s(us)
			lo.slices = append(lo.slices, loopSlice{float64(len(us)) / sliceLen.Seconds(), sortedPercentile(us, 50), sortedPercentile(us, 99)})
		}
	}
	return lo
}

// steady is the median slice's rate and latency percentiles.
func (lo loopOut) steady() loopSlice {
	var rate, p50, p99 []float64
	for _, s := range lo.slices {
		rate, p50, p99 = append(rate, s.perSecond), append(p50, s.p50US), append(p99, s.p99US)
	}
	return loopSlice{median(rate), median(p50), median(p99)}
}

// wallClock writes a loop's wall-clock rows.
func (s loopSlice) wallClock(m metrics) {
	m["wall.requests_per_s"] = s.perSecond
	m["wall.latency_p50_us"] = s.p50US
	m["wall.latency_p99_us"] = s.p99US
}

func (lo loopOut) violations() []string {
	if lo.failed == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d of %d invokes failed, first: %v", lo.failed, lo.attempted, lo.firstErr)}
}

// segmentSeconds is how long a freshly built system is measured before the
// run's window starts over on the next one. What a system has accumulated
// when it is measured (the datastore keeps a record per invoke) then does
// not depend on how long the run is, and set-up is timed all through the
// run, not only at its start.
const segmentSeconds = 3

// segmented measures n segments: set up, warm up, loop for the given time,
// tear down. It returns the loops folded together, the set-up times in
// seconds and, under a tracer, the systems' counts (summed over segments,
// peaks their maximum).
func (w liveWorkload) segmented(build func() (*liveSystem, error), n int, seconds float64, tr *tracer) (loopOut, []float64, metrics, error) {
	callers := w.callers()
	lat := make([][]int64, callers)
	for i := range lat {
		lat[i] = make([]int64, 0, w.sampleCap)
	}
	var total loopOut
	counts := metrics{}
	setups := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		sys, took, err := w.setUp(build, callers)
		if err != nil {
			return loopOut{}, nil, nil, err
		}
		setups = append(setups, took)
		total.add(closedLoop(sys, lat, seconds, tr, w.spanEvery, "invoke"))
		if tr != nil {
			c := metrics{}
			sys.counts(c)
			addLayer(counts, c)
		}
		sys.stop()
	}
	counts["cluster.final_gpus"] /= float64(n)
	if lookups := counts["cache.lookups"]; lookups > 0 {
		counts["cache.hit_ratio"] = 1 - counts["cache.misses"]/lookups
	}
	return total, setups, counts, nil
}

// run measures the workload and assembles its result.
func (w liveWorkload) run(o runOpts) (*result, error) {
	res := &result{Metrics: metrics{}}
	m := res.Metrics
	build := func() (*liveSystem, error) { return w.workloadSystem(o.Seed) }
	rungSeconds := 0.5
	if o.Short {
		rungSeconds = 0.05
		w.warmup = min(w.warmup, 4)
	}
	segments := max(int(o.Seconds/segmentSeconds), 2)
	seconds := o.Seconds / float64(segments)
	if o.Traced {
		// Half the segments run untraced, so the tracing overhead compares
		// like with like.
		segments /= 2
	}

	plain, setupTimes, _, err := w.segmented(build, segments, seconds, nil)
	if err != nil {
		return nil, err
	}
	res.Violations = plain.violations()
	if plain.ok == 0 {
		return nil, fmt.Errorf("no invoke succeeded, first error: %v", plain.firstErr)
	}
	steady := plain.steady()

	if !o.Traced {
		ok := float64(plain.ok)
		res.Attempted, res.Failed, res.Samples = plain.attempted, plain.failed, int(plain.ok)
		m["allocs_per_request"] = float64(plain.mem.mallocs) / ok
		m["bytes_per_request"] = float64(plain.mem.bytes) / ok
		m["success_share"] = ok / float64(plain.attempted)
		m["setup_s"] = median(setupTimes)
		steady.wallClock(m)
		return res, nil
	}

	tr := newTracer()
	prof, err := startProfile(o.CPUProfile)
	if err != nil {
		return nil, err
	}
	traced, _, counts, err := w.segmented(build, segments, seconds, tr)
	shares, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	res.Violations = append(res.Violations, traced.violations()...)
	res.Attempted, res.Failed, res.Samples = traced.attempted, traced.failed, int(traced.ok)
	for k, v := range counts {
		m[k] = v
	}
	for k, v := range shares {
		m[k] = v
	}
	traced.mem.report(m)
	m["faas.enqueue_order_errors"] = float64(plain.orderErrors + traced.orderErrors)
	steady.wallClock(m)
	m["bench.run_s"] = traced.elapsed.Seconds()
	m["bench.samples"] = float64(traced.ok)
	if rate := traced.steady().perSecond; rate > 0 {
		m["bench.trace_overhead_share"] = steady.perSecond/rate - 1
	}
	if err := w.ladder(o.Seed, rungSeconds, tr, m); err != nil {
		return nil, err
	}
	res.tracer = tr
	return res, nil
}

// rungOut is one ladder rung's cost per op, one caller.
type rungOut struct {
	us, allocs, bytes, modelUS float64
}

// climb measures one rung: set up, then a one-caller closed loop.
func (w liveWorkload) climb(name string, seconds float64, tr *tracer, build func() (*liveSystem, error)) (rungOut, error) {
	sys, _, err := w.setUp(build, 1)
	if err != nil {
		return rungOut{}, fmt.Errorf("rung %s: %w", name, err)
	}
	defer sys.stop()
	lo := closedLoop(sys, [][]int64{make([]int64, 0, 1<<16)}, seconds, tr, 64, name)
	if lo.failed > 0 || lo.ok == 0 {
		return rungOut{}, fmt.Errorf("rung %s: %d of %d ops failed, first: %v", name, lo.failed, lo.attempted, lo.firstErr)
	}
	ops := float64(lo.ok)
	out := rungOut{us: lo.steady().p50US, allocs: float64(lo.mem.mallocs) / ops, bytes: float64(lo.mem.bytes) / ops}
	if sys.modelUS != nil {
		out.modelUS = sys.modelUS()
	}
	return out, nil
}

// ladder enters identically configured systems one layer deeper at a time
// — R0 HTTP POST, R1 Gateway.Invoke, R2 InferenceClient.Predict, R3
// Cluster.Submit, R4 nn forward pass, R5 reply encoding — and reports each
// layer's self time: its rung minus the rungs it contains. A workload
// climbs only the rungs under its own entry point.
func (w liveWorkload) ladder(seed int64, seconds float64, tr *tracer, m metrics) error {
	overHTTP, predicts := w.kind != livePredict, w.kind != liveHTTPEcho
	// Under a gateway, R2 and R3 stand in for its inside and carry its
	// datastore sink; live-predict's own cluster has none.
	rungs := []struct {
		name  string
		on    bool
		build func() (*liveSystem, error)
	}{
		{"R0 http", overHTTP, func() (*liveSystem, error) { return w.httpSystem(seed) }},
		{"R1 gateway", overHTTP, func() (*liveSystem, error) { return w.gatewaySystem(seed) }},
		{"R2 predict", predicts, func() (*liveSystem, error) { return w.predictSystem(seed, overHTTP) }},
		{"R3 submit", predicts, func() (*liveSystem, error) { return w.submitSystem(seed, overHTTP) }},
		{"R4 nn", w.kind == liveHTTPInfer, w.nnSystem},
		{"R5 encode", w.kind == liveHTTPInfer, func() (*liveSystem, error) { return encodeSystem(), nil }},
	}
	var r [6]rungOut
	for i, g := range rungs {
		if !g.on {
			continue
		}
		var err error
		if r[i], err = w.climb(g.name, seconds, tr, g.build); err != nil {
			return err
		}
	}
	self := func(v float64) float64 { return max(v, 0) } // a rung cannot cost less than nothing
	m["faas.http_self_us"] = self(r[0].us - r[1].us)
	m["faas.gateway_self_us"] = self(r[1].us - r[2].us - r[4].us - r[5].us)
	m["faas.inferclient_self_us"] = self(r[2].us - r[3].us)
	m["faas.encode_us"] = r[5].us
	m["faas.invoke_allocs"] = r[1].allocs
	m["faas.predict_allocs"] = r[2].allocs
	m["cluster.submit_overhead_us"] = self(r[3].us - r[3].modelUS)
	m["cluster.submit_allocs"] = r[3].allocs
	m["nn.predict_us"] = r[4].us
	m["nn.predict_allocs"] = r[4].allocs
	m["nn.predict_bytes"] = r[4].bytes
	top := r[0].us
	if !overHTTP {
		top = r[2].us
	}
	sum := m["faas.http_self_us"] + m["faas.gateway_self_us"] + m["faas.inferclient_self_us"] + r[3].us + r[4].us + r[5].us
	m["faas.ladder_residual_share"] = math.Abs(top-sum) / top
	return nil
}
