package faas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpufaas/internal/autoscale"
	"gpufaas/internal/cluster"
	"gpufaas/internal/core"
	"gpufaas/internal/datastore"
	"gpufaas/internal/gpumgr"
	"gpufaas/internal/models"
	"gpufaas/internal/multicell"
	"gpufaas/internal/sim"
)

// GatewayConfig assembles a live GPU-FaaS gateway.
type GatewayConfig struct {
	// Policy is the scheduler policy name ("LB", "LALB", "LALBO3").
	Policy string
	// O3Limit is the LALBO3 starvation limit (default 25).
	O3Limit int
	// Nodes / GPUsPerNode / GPUMemory describe the cluster (defaults:
	// the paper's 3x4 testbed).
	Nodes       int
	GPUsPerNode int
	GPUMemory   int64
	// Fleet declares a heterogeneous GPU fleet (device classes with
	// counts, memory, cost). When nil the homogeneous
	// Nodes/GPUsPerNode/GPUMemory fields apply.
	Fleet cluster.FleetSpec
	// TimeScale scales the Table I profile times so demos run quickly
	// (0.001 turns seconds into milliseconds). Default 1.0.
	TimeScale float64
	// InvokeTimeout bounds one inference invocation (default 60s,
	// scaled by TimeScale is the caller's business — this is wall time).
	InvokeTimeout time.Duration
	// Zoo overrides the Table I model zoo.
	Zoo *models.Zoo
	// Autoscale attaches an autoscaler to the live cluster; the admin
	// endpoints (/system/autoscaler) expose and toggle it. Multi-cell
	// gateways reject it (per-cell policies must not share hysteresis
	// state; see ROADMAP).
	Autoscale *autoscale.Config
	// Cells shards the live fleet into this many independent cells,
	// each with its own scheduler/cache stack, behind the same
	// deterministic front-door router the simulation uses (0 or 1: one
	// cluster). The admin endpoints take ?cell=N and /system/cells
	// summarizes the fleet.
	Cells int
	// CellRouter names the front-door policy ("hash", "affinity",
	// "leastload"); empty selects "hash".
	CellRouter string
	// Admission enables per-cell admission control and load shedding
	// on the invocation path (bounded queue, deadline-aware rejection,
	// per-tenant token buckets). Nil leaves the path unbounded — the
	// pre-overload-work behavior, kept as the shedding-off comparison
	// mode for the overload benchmark.
	Admission *AdmissionConfig
	// MaxBodyBytes caps an HTTP invocation body; larger requests get
	// 413 Request Entity Too Large. Default 64 MiB.
	MaxBodyBytes int64
}

// Gateway is the public route of the FaaS platform (Fig. 1): it handles
// function CRUD and invocation, and fronts the GPU scheduler.
type Gateway struct {
	registry *Registry
	cells    []*cluster.Cluster // cell 0 is the whole fleet when unsharded
	store    *datastore.Store
	infer    *InferenceClient
	clock    sim.Clock
	router   *multicell.Router // nil on a single-cell gateway

	// fns maps function name -> *liveFunction. Invoke only ever reads
	// it; Deploy/Update/Remove publish whole entries, so concurrent
	// invocations of different (or the same) function share no lock —
	// the old global mutex serialized every invocation in the fleet.
	fns          sync.Map
	admit        *admission // nil: admission control disabled
	maxBodyBytes int64
	// latHists holds one request-duration histogram per cell; /metrics
	// exposes them as gpufaas_request_duration_seconds{cell="N"}.
	latHists []*promHistogram
}

// liveFunction is the per-function invocation state the hot path
// touches: the watchdog, the round-robin replica cursor and the replica
// count (both atomics — Scale publishes, Invoke consumes), and the
// registry's stored entry whose Invocations counter Invoke bumps
// atomically instead of taking the registry lock.
type liveFunction struct {
	wd       *Watchdog
	fn       *Function
	rr       atomic.Uint64
	replicas atomic.Int64
	cell     int // admission home cell (front-door ring position)
}

// replica returns the container index the cursor last selected.
func (lf *liveFunction) replica(cursor uint64) int {
	n := lf.replicas.Load()
	if n <= 0 {
		return 0
	}
	return int(cursor % uint64(n))
}

// NewGateway builds the gateway plus its live cluster and datastore.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Policy == "" {
		cfg.Policy = "LALBO3"
	}
	pol, err := core.ParsePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("faas: negative time scale %g", cfg.TimeScale)
	}
	if cfg.InvokeTimeout == 0 {
		cfg.InvokeTimeout = 60 * time.Second
	}
	zoo := cfg.Zoo
	if zoo == nil {
		zoo = models.Default()
	}
	cells := cfg.Cells
	if cells == 0 {
		cells = 1
	}
	if cells < 1 {
		return nil, fmt.Errorf("faas: need >= 1 cell, got %d", cells)
	}
	routerPol := multicell.RouteHash
	if cfg.CellRouter != "" {
		if routerPol, err = multicell.ParsePolicy(cfg.CellRouter); err != nil {
			return nil, err
		}
	}
	if cells > 1 && cfg.Autoscale != nil {
		// An autoscale.Config carries one live policy instance; cells
		// must not share its hysteresis state. Per-cell autoscaling is a
		// ROADMAP follow-on.
		return nil, errors.New("faas: autoscaler is single-cell only (per-cell autoscaling is not wired yet)")
	}

	ccfg := cluster.DefaultConfig()
	ccfg.Policy = pol
	if cfg.O3Limit > 0 {
		ccfg.O3Limit = cfg.O3Limit
	}
	if cfg.Nodes > 0 {
		ccfg.Nodes = cfg.Nodes
	}
	if cfg.GPUsPerNode > 0 {
		ccfg.GPUsPerNode = cfg.GPUsPerNode
	}
	if cfg.GPUMemory > 0 {
		ccfg.GPUMemory = cfg.GPUMemory
	}
	ccfg.Zoo = zoo
	if cfg.Fleet == nil {
		ccfg.Profiles = ScaledProfiles(zoo, cluster.DefaultGPUType, cfg.TimeScale)
	} else {
		prof, err := FleetProfiles(zoo, cfg.Fleet, cfg.TimeScale)
		if err != nil {
			return nil, err
		}
		ccfg.Profiles = prof
	}
	clock := sim.NewRealClock()
	ccfg.Clock = clock
	ccfg.Autoscale = cfg.Autoscale

	// Shard the declared fleet (or node count) across the cells exactly
	// as the simulation does.
	var cellFleets []cluster.FleetSpec
	var cellNodes []int
	if cfg.Fleet != nil {
		cellFleets, err = multicell.PartitionFleet(cfg.Fleet, cells)
		if err != nil {
			return nil, err
		}
	} else {
		cellNodes = multicell.PartitionCounts(ccfg.Nodes, cells)
		if cellNodes[len(cellNodes)-1] == 0 {
			return nil, fmt.Errorf("faas: %d nodes cannot shard into %d cells", ccfg.Nodes, cells)
		}
	}

	store := datastore.New()
	g := &Gateway{
		registry:     NewRegistry(),
		store:        store,
		clock:        clock,
		maxBodyBytes: cfg.MaxBodyBytes,
		latHists:     make([]*promHistogram, cells),
	}
	if g.maxBodyBytes == 0 {
		g.maxBodyBytes = 64 << 20
	}
	if g.maxBodyBytes < 0 {
		return nil, fmt.Errorf("faas: negative body limit %d", cfg.MaxBodyBytes)
	}
	if cfg.Admission != nil {
		if g.admit, err = newAdmission(*cfg.Admission, cells); err != nil {
			return nil, err
		}
	}
	// One shared inference client fronts every cell: a single request-ID
	// counter keeps datastore latency keys and waiter routing unique
	// fleet-wide, and its Route is every cell's OnResult hook. The hook
	// is built per cell so each completion lands in its own cell's
	// latency histogram.
	var ic *InferenceClient
	onResult := func(cell int) func(gpumgr.Result) {
		return func(res gpumgr.Result) {
			g.latHists[cell].Observe(res.Latency().Seconds())
			ic.Route(res)
		}
	}
	g.cells = make([]*cluster.Cluster, cells)
	for i := range g.cells {
		g.latHists[i] = newPromHistogram()
		cc := ccfg
		if cellFleets != nil {
			// Copy: cluster.New normalizes the spec in place (memory
			// defaulting) and must not mutate the caller's GatewayConfig.
			cc.Fleet = append(cluster.FleetSpec(nil), cellFleets[i]...)
		} else {
			cc.Nodes = cellNodes[i]
		}
		sink := DatastoreSink{Store: store}
		if cells > 1 {
			// Every cell names its nodes node0..nodeN; the prefix keeps
			// the per-GPU status keys fleet-unique.
			sink.Prefix = fmt.Sprintf("cell%d/", i)
		}
		cc.Sink = sink
		cc.OnResult = onResult(i)
		// A dropped dispatch (per-tenant GPU quota, impossible model)
		// must fail the waiting invocation immediately — without the
		// hook the Predict waiter would hold its arena slot until the
		// invoke timeout.
		cc.OnDrop = func(id int64, err error) { ic.Drop(id, err) }
		c, err := cluster.New(cc)
		if err != nil {
			return nil, err
		}
		g.cells[i] = c
	}
	var router *multicell.Router
	if cells > 1 {
		// The live router is seeded like the simulation's default (the
		// workload seed there, fixed here: the ring layout is stable
		// across gateway restarts).
		router, err = multicell.NewRouter(multicell.RouterConfig{Cells: cells, Policy: routerPol, Seed: 1})
		if err != nil {
			return nil, err
		}
	}
	g.router = router
	ic = NewCellInferenceClient(g.cells, router, clock, cfg.InvokeTimeout)
	g.infer = ic
	return g, nil
}

// Cluster exposes the underlying cluster (metrics, devices); with
// multiple cells it is cell 0 — use Cell for the rest.
func (g *Gateway) Cluster() *cluster.Cluster { return g.cells[0] }

// CellCount reports the number of live cells.
func (g *Gateway) CellCount() int { return len(g.cells) }

// Cell exposes one cell's cluster; out-of-range indices return nil.
func (g *Gateway) Cell(i int) *cluster.Cluster {
	if i < 0 || i >= len(g.cells) {
		return nil
	}
	return g.cells[i]
}

// Store exposes the datastore (status pages, tests).
func (g *Gateway) Store() *datastore.Store { return g.store }

// Registry exposes function CRUD.
func (g *Gateway) Registry() *Registry { return g.registry }

// Deploy registers a function and builds its watchdog.
func (g *Gateway) Deploy(spec FunctionSpec) (*Function, error) {
	fn, err := g.registry.Deploy(spec)
	if err != nil {
		return nil, err
	}
	if spec.GPUEnabled {
		if _, ok := g.cells[0].Zoo().Get(spec.Model); !ok {
			_ = g.registry.Remove(spec.Name)
			return nil, fmt.Errorf("faas: model %q not in the cluster zoo", spec.Model)
		}
	}
	g.publish(fn)
	return fn, nil
}

// publish (re)builds the function's live invocation entry. fn must be
// the registry's stored pointer: Invoke bumps its Invocations counter
// atomically.
func (g *Gateway) publish(fn *Function) {
	lf := &liveFunction{
		wd:   NewWatchdog(fn.Spec, g.infer, g.store, g.clock),
		fn:   fn,
		cell: g.homeCell(fn.Spec),
	}
	lf.replicas.Store(int64(len(fn.Containers)))
	g.fns.Store(fn.Spec.Name, lf)
}

// homeCell picks the cell whose admission queue gates this function's
// invocations: its front-door ring position (the model's for the
// affinity router, the function's otherwise). For the leastload router
// the live cell varies per request; the hash home is the documented
// approximation.
func (g *Gateway) homeCell(spec FunctionSpec) int {
	if g.router == nil {
		return 0
	}
	key := spec.Name
	if g.infer != nil && g.infer.routerPolicyValue() == multicell.RouteAffinity && spec.Model != "" {
		key = spec.Model
	}
	return g.router.Home(key)
}

// Invoke routes one invocation to the function's next container
// replica. The hot path is lock-free: a sync.Map read, the admission
// gate (channel + atomics), and two atomic bumps.
func (g *Gateway) Invoke(name string, req InvokeRequest) (InvokeResponse, error) {
	v, ok := g.fns.Load(name)
	if !ok {
		return InvokeResponse{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	lf := v.(*liveFunction)
	if g.admit != nil {
		tenant := req.Tenant
		if tenant == "" {
			tenant = lf.fn.Spec.Tenant
		}
		ca, err := g.admit.admit(lf.cell, tenant)
		if err != nil {
			return InvokeResponse{}, err
		}
		defer ca.release(time.Now())
	}
	atomic.AddInt64(&lf.fn.Invocations, 1)
	_ = lf.replica(lf.rr.Add(1)) // advance the round-robin cursor
	return lf.wd.Handle(req)
}

// Remove deletes a function and its watchdog.
func (g *Gateway) Remove(name string) error {
	if err := g.registry.Remove(name); err != nil {
		return err
	}
	g.fns.Delete(name)
	return nil
}

// Scale sets a function's replica count and publishes it to the live
// invocation entry.
func (g *Gateway) Scale(name string, replicas int) (*Function, error) {
	fn, err := g.registry.Scale(name, replicas)
	if err != nil {
		return nil, err
	}
	if v, ok := g.fns.Load(name); ok {
		v.(*liveFunction).replicas.Store(int64(replicas))
	}
	return fn, nil
}

// AdmissionStats reports the per-cell admission counters (nil without
// admission control).
func (g *Gateway) AdmissionStats() []AdmissionCellStats {
	if g.admit == nil {
		return nil
	}
	return g.admit.stats()
}

// ArenaStats reports the live request arena's counters: in steady
// state Allocated stops at the peak in-flight count and every further
// invocation reuses a recycled request.
func (g *Gateway) ArenaStats() core.ArenaStats { return g.infer.ArenaStats() }

// ScaledProfiles builds a profile store from the zoo's Table I times with
// all durations multiplied by scale (live demos use scale << 1).
func ScaledProfiles(zoo *models.Zoo, gpuType string, scale float64) *models.ProfileStore {
	base := models.TableProfiles(gpuType, zoo)
	return scaleStore(base, zoo, scale)
}

// FleetProfiles builds the live gateway's profile store for a declared
// fleet: per-class Table I times (each class's built-in slowdown)
// multiplied by scale. Classes without a built-in device class are an
// error — the gateway has no profiling pass to cover them.
func FleetProfiles(zoo *models.Zoo, fleet cluster.FleetSpec, scale float64) (*models.ProfileStore, error) {
	base, err := models.FleetTableProfiles(zoo, fleet.Types()...)
	if err != nil {
		return nil, err
	}
	return scaleStore(base, zoo, scale), nil
}

// scaleStore multiplies every profile duration in the store by scale.
func scaleStore(base *models.ProfileStore, zoo *models.Zoo, scale float64) *models.ProfileStore {
	if scale == 1 {
		return base
	}
	out := models.NewProfileStore()
	for _, gpuType := range base.GPUTypes() {
		for _, m := range zoo.All() {
			p, ok := base.Get(gpuType, m.Name)
			if !ok {
				continue
			}
			p.LoadTime = time.Duration(float64(p.LoadTime) * scale)
			p.InferFit.Alpha *= scale
			p.InferFit.Beta *= scale
			out.Put(p)
		}
	}
	return out
}

// ---- HTTP layer ----

// Handler returns the gateway's HTTP mux with the OpenFaaS-style routes:
//
//	POST   /system/functions        deploy (JSON FunctionSpec)
//	PUT    /system/functions        update
//	GET    /system/functions        list
//	GET    /system/functions/{name} describe
//	DELETE /system/functions/{name} remove
//	POST   /system/scale/{name}     {"replicas": N}
//	GET    /system/scale            fleet membership breakdown
//	POST   /system/scale            {"target": N, "coldStartMs": M} — elastic GPU scaling
//	GET    /system/autoscaler       autoscaler status + scale-event log
//	POST   /system/autoscaler       {"enabled": bool} — pause/resume the autoscaler
//	GET    /system/cells            per-cell fleet + routing summary
//	GET    /system/metrics          cluster report
//	GET    /system/gpus             GPU status from the datastore
//	POST   /function/{name}         invoke
//	GET    /healthz                 liveness
//	GET    /readyz                  readiness: per-cell schedulable/degraded state
//	GET    /debug/pprof/*           runtime profiling (CPU, heap, block, mutex)
//
// On a multi-cell gateway the per-cluster admin endpoints
// (/system/scale, /system/autoscaler, /system/metrics) address one cell
// via ?cell=N (default 0).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/system/functions", g.handleFunctions)
	mux.HandleFunc("/system/functions/", g.handleFunction)
	mux.HandleFunc("/system/scale", g.handleClusterScale)
	mux.HandleFunc("/system/autoscaler", g.handleAutoscaler)
	mux.HandleFunc("/system/cells", g.handleCells)
	mux.HandleFunc("/system/scale/", g.handleScale)
	mux.HandleFunc("/system/metrics", g.handleMetrics)
	mux.HandleFunc("/system/gpus", g.handleGPUs)
	mux.HandleFunc("/function/", g.handleInvoke)
	mux.HandleFunc("/metrics", g.handlePromMetrics)
	// The standard pprof surface, registered explicitly: the gateway
	// serves its own mux, so the net/http/pprof side effects on
	// http.DefaultServeMux never reach production traffic.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", g.handleReadyz)
	return mux
}

// readyCellStatus is one cell's row in the /readyz report.
type readyCellStatus struct {
	Cell int `json:"cell"`
	// Ready: the cell can schedule work (at least one active GPU).
	Ready bool `json:"ready"`
	// Degraded: schedulable but impaired — GPUs have failed, or the
	// admission gate is saturated (every concurrency slot held).
	Degraded        bool `json:"degraded,omitempty"`
	SchedulableGPUs int  `json:"schedulableGPUs"`
	// FailedGPUs is the cell's cumulative crash-fault count.
	FailedGPUs         int64 `json:"failedGPUs,omitempty"`
	AdmissionSaturated bool  `json:"admissionSaturated,omitempty"`
}

// handleReadyz is readiness, distinct from /healthz liveness: the
// process being up does not mean the fleet can serve. Each cell reports
// ready (schedulable capacity exists) and degraded (failed GPUs or a
// saturated admission gate); the endpoint returns 503 when any cell is
// unschedulable, so load balancers stop routing to a gateway whose
// fleet has crashed out from under it.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var admitRows []AdmissionCellStats
	if g.admit != nil {
		admitRows = g.admit.stats()
	}
	cells := make([]readyCellStatus, len(g.cells))
	allReady := true
	for i, c := range g.cells {
		st := readyCellStatus{Cell: i, SchedulableGPUs: c.SchedulableGPUs()}
		for _, n := range c.GPUFailures() {
			st.FailedGPUs += n
		}
		if g.admit != nil && i < len(admitRows) {
			st.AdmissionSaturated = admitRows[i].Inflight >= g.admit.cfg.MaxConcurrent
		}
		st.Ready = st.SchedulableGPUs > 0
		st.Degraded = st.Ready && (st.FailedGPUs > 0 || st.AdmissionSaturated)
		allReady = allReady && st.Ready
		cells[i] = st
	}
	status := http.StatusOK
	if !allReady {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": allReady, "cells": cells})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		// Retry-After is delay-seconds (RFC 9110): round up so clients
		// never retry before the hinted drain time.
		secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (g *Gateway) handleFunctions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, g.registry.List())
	case http.MethodPost, http.MethodPut:
		var spec FunctionSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		var fn *Function
		var err error
		if r.Method == http.MethodPost {
			fn, err = g.Deploy(spec)
		} else {
			fn, err = g.registry.Update(spec)
			if err == nil {
				g.publish(fn)
			}
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, fn)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (g *Gateway) handleFunction(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/system/functions/")
	if name == "" {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		fn, err := g.registry.Get(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, fn)
	case http.MethodDelete:
		if err := g.Remove(name); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (g *Gateway) handleScale(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/system/scale/")
	var body struct {
		Replicas int `json:"replicas"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	fn, err := g.Scale(name, body.Replicas)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, fn)
}

// cellFor resolves the admin ?cell=N selector (default: cell 0).
func (g *Gateway) cellFor(r *http.Request) (*cluster.Cluster, error) {
	q := r.URL.Query().Get("cell")
	if q == "" {
		return g.cells[0], nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 || n >= len(g.cells) {
		return nil, fmt.Errorf("faas: cell %q out of range [0,%d)", q, len(g.cells))
	}
	return g.cells[n], nil
}

// handleCells summarizes the sharded fleet: one row per cell (device
// counts, routed requests) plus the router policy.
func (g *Gateway) handleCells(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	routed := g.infer.RoutedByCell()
	type cellRow struct {
		Cell   int            `json:"cell"`
		GPUs   int            `json:"gpus"`
		Counts autoscale.Size `json:"counts"`
		Routed int64          `json:"routed"`
	}
	rows := make([]cellRow, len(g.cells))
	for i, c := range g.cells {
		rows[i] = cellRow{
			Cell:   i,
			GPUs:   len(c.GPUIDs()),
			Counts: c.FleetCounts(),
		}
		if i < len(routed) {
			rows[i].Routed = routed[i]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cells":  len(g.cells),
		"router": g.infer.RouterPolicy(),
		"rows":   rows,
	})
}

// handleClusterScale is the elastic-membership admin endpoint: GET
// reports the fleet breakdown; POST reconciles the fleet to a target
// size (provision with cold start / drain-decommission). ?cell=N
// selects the cell (default 0).
func (g *Gateway) handleClusterScale(w http.ResponseWriter, r *http.Request) {
	cell, err := g.cellFor(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	switch r.Method {
	case http.MethodGet:
		bound, live := cell.OrdStatus()
		writeJSON(w, http.StatusOK, map[string]any{
			"counts":  cell.FleetCounts(),
			"classes": cell.ClassStatuses(),
			"gpus":    cell.GPUIDs(),
			// Registration-ordinal pressure: ordinals are never reused,
			// so dead = bound − live is the state the ROADMAP's ordinal
			// compaction would reclaim.
			"ords": map[string]int{"bound": bound, "live": live, "dead": bound - live},
		})
	case http.MethodPost:
		var body struct {
			Target      int   `json:"target"`
			ColdStartMs int64 `json:"coldStartMs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if body.ColdStartMs < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "negative coldStartMs"})
			return
		}
		added, removed, err := cell.ScaleTo(body.Target, time.Duration(body.ColdStartMs)*time.Millisecond)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"added":   added,
			"removed": removed,
			"counts":  cell.FleetCounts(),
		})
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// handleAutoscaler exposes the attached autoscaler: GET returns status
// (policy, last signal, scale-event log), POST toggles it. ?cell=N
// selects the cell (default 0).
func (g *Gateway) handleAutoscaler(w http.ResponseWriter, r *http.Request) {
	cell, err := g.cellFor(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	switch r.Method {
	case http.MethodGet:
		st, ok := cell.AutoscalerStatus()
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no autoscaler attached"})
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPost:
		var body struct {
			Enabled *bool `json:"enabled"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if body.Enabled == nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing enabled"})
			return
		}
		if !cell.SetAutoscalerEnabled(*body.Enabled) {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no autoscaler attached"})
			return
		}
		st, _ := cell.AutoscalerStatus()
		writeJSON(w, http.StatusAccepted, st)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	cell, err := g.cellFor(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, cell.Snapshot())
}

func (g *Gateway) handleGPUs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	type gpuStatus struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	var out []gpuStatus
	for _, kv := range g.store.List("gpu/") {
		id := strings.TrimSuffix(strings.TrimPrefix(kv.Key, "gpu/"), "/status")
		out = append(out, gpuStatus{ID: id, Status: string(kv.Value)})
	}
	writeJSON(w, http.StatusOK, out)
}

// bodyPool recycles invocation body buffers: the HTTP hot path reads
// each request into a pooled buffer and returns it once the response
// has been written (the echo handler aliases the buffer until then).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// jsonContentType is the invoke reply's Content-Type value, shared by every
// reply: assigning it skips the slice Header().Set allocates per call.
var jsonContentType = []string{"application/json"}

func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/function/")
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	// MaxBytesReader (not LimitReader) so an oversized body is an
	// explicit 413, not a silent truncation handed to the function.
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, g.maxBodyBytes)); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	resp, err := g.Invoke(name, InvokeRequest{Body: buf.Bytes(), Tenant: r.Header.Get("X-Tenant")})
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if len(resp.Body) > 0 {
		w.Write(resp.Body)
	} else {
		_ = json.NewEncoder(w).Encode(resp)
	}
}
