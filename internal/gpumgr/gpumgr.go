// Package gpumgr implements the paper's GPU Manager (§III-C): the per-node
// component that owns the GPU processes, executes inference requests on
// behalf of functions, and coordinates with the global Cache Manager.
//
// For each dispatched request the manager determines hit/miss with the
// Cache Manager; on a miss it kills victim processes (evicting their
// models), starts a fresh GPU process, and uploads the model (the Loading
// phase); it then runs the inference and reports the completion with
// measured latency. One launch executes at a time per GPU, and the model
// serving it is pinned against eviction.
//
// That one-at-a-time rule is also the manager's memory model. A GPU can
// hold at most one live launch, so each managed GPU owns one resident
// launch slot that a dispatch fills in place; a single request is a batch
// of one, and launch, completion and interrupt are one code path each.
// The slot is valid from the dispatch until the launch's completion or
// interrupt; Results leave it by value, so StatusSink and OnComplete
// callbacks hold nothing of the manager's once they return.
//
// The manager also implements the §VI multi-tenancy isolation hooks:
// per-tenant limits on concurrent GPU processes and cumulative GPU time.
package gpumgr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"gpufaas/internal/cache"
	"gpufaas/internal/core"
	"gpufaas/internal/gpu"
	"gpufaas/internal/models"
	"gpufaas/internal/sim"
)

// Errors reported by the manager.
var (
	ErrUnknownDevice = errors.New("gpumgr: unknown device")
	ErrUnknownModel  = errors.New("gpumgr: unknown model")
	ErrNoProfile     = errors.New("gpumgr: no profile for model on GPU type")
	ErrQuota         = errors.New("gpumgr: tenant quota exceeded")
)

// Process is one GPU process serving a loaded model ("each GPU process
// uploads an inference model when initiating").
type Process struct {
	PID     int64
	GPU     string
	Model   string
	Tenant  string
	Started sim.Time
}

// Result records one completed request for the Datastore and the metric
// collectors.
type Result struct {
	ReqID    int64
	Function string
	Model    string
	GPU      string
	Tenant   string
	Hit      bool
	// FalseMiss marks a miss on a model that was resident elsewhere in
	// the fleet at dispatch time — the load the paper's locality-aware
	// placement exists to avoid.
	FalseMiss    bool
	Arrival      sim.Time
	DispatchedAt sim.Time
	FinishedAt   sim.Time
	LoadTime     time.Duration
	InferTime    time.Duration
	// BatchMembers is the number of requests coalesced into the launch
	// that produced this result; 0 marks a dispatch without extras
	// (Execute), whose results are bit-identical to builds without
	// batching. Every member of one batched launch reports the same
	// FinishedAt, LoadTime and InferTime — the launch's wall times — so
	// the queue+load+infer latency decomposition stays additive.
	BatchMembers int
	// InferShare is this request's attributed slice of the batched
	// inference time: the launch overhead plus its own inputs for the
	// primary, the marginal per-input cost for coalesced members.
	// Shares sum exactly to InferTime across the batch. Zero on a
	// dispatch without extras (callers treat that as InferTime).
	InferShare time.Duration
}

// Latency is the end-to-end function latency: completion minus arrival
// (queueing + loading + inference), the quantity of Fig. 4a.
func (r Result) Latency() time.Duration { return time.Duration(r.FinishedAt - r.Arrival) }

// ServiceTime is load + inference, excluding queueing.
func (r Result) ServiceTime() time.Duration { return r.LoadTime + r.InferTime }

// Quota bounds one tenant's GPU consumption (§VI "Multi-tenancy and
// Security"). Zero-valued fields mean unlimited.
type Quota struct {
	// MaxProcesses caps concurrently live GPU processes.
	MaxProcesses int
	// MaxGPUTime caps cumulative load+inference time consumed.
	MaxGPUTime time.Duration
	// MaxMemoryBytes caps summed occupancy of the tenant's resident
	// models.
	MaxMemoryBytes int64
}

type tenantUsage struct {
	processes int
	gpuTime   time.Duration
	memory    int64
}

// StatusSink receives GPU status and completion reports; the live FaaS
// layer wires this to the Datastore ("GPU Manager reports to the Datastore
// that the GPU status is busy", §III-C). A nil sink disables reporting.
type StatusSink interface {
	GPUStatus(gpuID string, busy bool, at sim.Time)
	Completion(res Result)
}

// GPURemovalSink is an optional StatusSink extension: sinks that keep
// per-GPU derived state (the Datastore's gpu/<id>/status keys) implement
// it to drop that state when a GPU leaves the fleet — otherwise a
// decommissioned GPU's final busy=false report would linger as a
// phantom "idle" entry forever.
type GPURemovalSink interface {
	GPURemoved(gpuID string, at sim.Time)
}

// Manager manages the GPUs of one node. Not safe for concurrent use; the
// cluster serializes access (event loop in sim mode, mutex in live mode).
//
// Everything the manager knows about one GPU lives in one record (device),
// found by a single lookup per dispatch. Because a GPU runs one launch at
// a time, the record holds that launch resident: a dispatch fills the
// member and result slices in place, re-arms the record's two timers and
// allocates nothing; completion hands each member's Result to the sink
// and OnComplete by value. Those callbacks may start the next launch on
// the same GPU (the cluster's scheduler does), so the finishing launch's
// results are detached from the record before the first one runs.
type Manager struct {
	node     string
	clock    sim.Clock
	devs     map[string]*device
	order    []string
	cacheMgr *cache.Manager
	zoo      *models.Zoo
	profiles *models.ProfileStore
	sink     StatusSink

	nextPID int64
	// spare is the result buffer a completing launch leaves behind; the
	// next completion swaps it into its device.
	spare []Result

	quotas map[string]Quota
	usage  map[string]*tenantUsage

	onComplete func(res Result)
}

// device is the manager's record of one GPU: the device, its cache
// ordinal (so hit/miss resolution indexes instead of hashing the ID), the
// transient straggler factor, the live processes, and the launch slot.
type device struct {
	dev      *gpu.Device
	ord      cache.Ord
	slowdown float64            // > 1 while a straggler window is open
	procs    map[string]Process // model -> process; made by the first load

	// The launch slot, meaningful while dev.Busy(): member requests
	// primary first and their results, index-aligned. The device's own
	// Inflight holds the launch's deadlines.
	members []*core.Request
	results []Result
	// The timers are created by the first launch that needs them and
	// re-armed by every later one.
	loadTimer, doneTimer sim.Timer
}

// scale applies the straggler factor to a service time.
func (d *device) scale(t time.Duration) time.Duration {
	if d.slowdown > 1 {
		return time.Duration(float64(t) * d.slowdown)
	}
	return t
}

// clearLaunch empties the slot, dropping the member references.
func (d *device) clearLaunch() {
	clear(d.members)
	d.members = d.members[:0]
	d.results = d.results[:0]
}

// Config assembles a Manager.
type Config struct {
	Node     string
	Clock    sim.Clock
	Cache    *cache.Manager
	Zoo      *models.Zoo
	Profiles *models.ProfileStore
	// Sink receives status reports; may be nil.
	Sink StatusSink
	// OnComplete is invoked after each request finishes (the cluster
	// uses it to record metrics and re-run the scheduler). May be nil.
	OnComplete func(res Result)
}

// New creates a Manager with no devices.
func New(cfg Config) (*Manager, error) {
	if cfg.Clock == nil {
		return nil, errors.New("gpumgr: nil clock")
	}
	if cfg.Cache == nil {
		return nil, errors.New("gpumgr: nil cache manager")
	}
	if cfg.Zoo == nil {
		return nil, errors.New("gpumgr: nil model zoo")
	}
	if cfg.Profiles == nil {
		return nil, errors.New("gpumgr: nil profile store")
	}
	return &Manager{
		node:       cfg.Node,
		clock:      cfg.Clock,
		devs:       make(map[string]*device),
		cacheMgr:   cfg.Cache,
		zoo:        cfg.Zoo,
		profiles:   cfg.Profiles,
		sink:       cfg.Sink,
		quotas:     make(map[string]Quota),
		usage:      make(map[string]*tenantUsage),
		onComplete: cfg.OnComplete,
	}, nil
}

// Node returns the node name.
func (m *Manager) Node() string { return m.node }

// AddDevice registers a GPU with the manager and the Cache Manager.
func (m *Manager) AddDevice(d *gpu.Device) error {
	if _, dup := m.devs[d.ID()]; dup {
		return fmt.Errorf("gpumgr: device %s already added", d.ID())
	}
	if err := m.cacheMgr.RegisterGPU(d.ID()); err != nil {
		return err
	}
	o, ok := m.cacheMgr.Ord(d.ID())
	if !ok {
		// Unreachable after a successful RegisterGPU; fail loudly rather
		// than letting a zero-valued ordinal alias device 0's residency.
		return fmt.Errorf("gpumgr: no ordinal assigned for %s", d.ID())
	}
	m.devs[d.ID()] = &device{dev: d, ord: o}
	m.order = append(m.order, d.ID())
	return nil
}

// RemoveDevice decommissions a GPU: it kills every process on the device
// (evicting the resident models through the Cache Manager, so the global
// index and all event subscribers observe the departures), then drops the
// device from the manager and deregisters it from the Cache Manager. The
// device must be idle — the cluster drains in-flight work first.
func (m *Manager) RemoveDevice(gpuID string, now sim.Time) error {
	d, ok := m.devs[gpuID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDevice, gpuID)
	}
	if d.dev.Busy() {
		return fmt.Errorf("gpumgr: device %s busy, drain before removal", gpuID)
	}
	for _, model := range d.dev.ResidentModels() {
		if err := m.killProcess(d, model, now); err != nil {
			return err
		}
	}
	if err := m.cacheMgr.UnregisterGPU(gpuID); err != nil {
		return err
	}
	delete(m.devs, gpuID)
	if i := slices.Index(m.order, gpuID); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	return nil
}

// Device returns the device by ID.
func (m *Manager) Device(id string) (*gpu.Device, bool) {
	d, ok := m.devs[id]
	if !ok {
		return nil, false
	}
	return d.dev, true
}

// DeviceIDs returns the managed GPU IDs in registration order.
func (m *Manager) DeviceIDs() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// SetQuota installs (or replaces) a tenant's quota.
func (m *Manager) SetQuota(tenant string, q Quota) { m.quotas[tenant] = q }

// Processes returns the live processes on a GPU, sorted by model for
// determinism.
func (m *Manager) Processes(gpuID string) []Process {
	d, ok := m.devs[gpuID]
	if !ok {
		return nil
	}
	out := make([]Process, 0, len(d.procs))
	for _, p := range d.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

func (m *Manager) tenantUsageFor(tenant string) *tenantUsage {
	u, ok := m.usage[tenant]
	if !ok {
		u = &tenantUsage{}
		m.usage[tenant] = u
	}
	return u
}

// SetSlowdown installs (factor > 1) or clears (factor <= 1) a transient
// straggler multiplier on a GPU: thermal throttle, noisy neighbor, link
// degradation. Future launches on the device run factor× slower (load
// and inference both); the launch already in flight keeps its original
// times — a window affects dispatches, not running kernels.
func (m *Manager) SetSlowdown(gpuID string, factor float64) {
	if d, ok := m.devs[gpuID]; ok {
		d.slowdown = factor
	}
}

// Slowdown returns the active straggler factor for a GPU (1 when none).
func (m *Manager) Slowdown(gpuID string) float64 {
	if d, ok := m.devs[gpuID]; ok && d.slowdown > 1 {
		return d.slowdown
	}
	return 1
}

// Interrupt aborts the in-flight launch on a failed GPU. Both pending
// clock callbacks are cancelled, the device abandons the launch (its
// partial phase time still accrues to utilization — the GPU really
// burned those seconds), the model is unpinned, and the primary tenant
// is charged the GPU time actually consumed (dispatch to failure), so
// GPU-seconds are charged exactly once per attempt. The member requests
// are returned primary-first for the caller's retry policy, along with
// the launch's dispatch time (for wasted-work accounting); nil members
// when the device was idle. No status report is emitted — the caller
// removes the device outright and GPURemovalSink handles datastore
// cleanup.
func (m *Manager) Interrupt(gpuID string, now sim.Time) ([]*core.Request, sim.Time, error) {
	d, ok := m.devs[gpuID]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownDevice, gpuID)
	}
	if !d.dev.Busy() {
		return nil, 0, nil
	}
	if d.loadTimer != nil {
		d.loadTimer.Stop()
	}
	d.doneTimer.Stop()
	if _, err := d.dev.Interrupt(now); err != nil {
		return nil, 0, err
	}
	m.cacheMgr.Pin(gpuID, "")
	primary := &d.results[0]
	m.tenantUsageFor(primary.Tenant).gpuTime += time.Duration(now - primary.DispatchedAt)
	members := slices.Clone(d.members)
	startedAt := primary.DispatchedAt
	d.clearLaunch()
	return members, startedAt, nil
}

// checkQuota verifies the tenant can start a request that will consume the
// given GPU time and (on a miss) memory.
func (m *Manager) checkQuota(tenant string, gpuTime time.Duration, newProcess bool, memBytes int64) error {
	q, ok := m.quotas[tenant]
	if !ok {
		return nil
	}
	u := m.tenantUsageFor(tenant)
	if newProcess && q.MaxProcesses > 0 && u.processes+1 > q.MaxProcesses {
		return fmt.Errorf("%w: tenant %q at %d/%d processes", ErrQuota, tenant, u.processes, q.MaxProcesses)
	}
	if q.MaxGPUTime > 0 && u.gpuTime+gpuTime > q.MaxGPUTime {
		return fmt.Errorf("%w: tenant %q GPU time %v + %v > %v", ErrQuota, tenant, u.gpuTime, gpuTime, q.MaxGPUTime)
	}
	if newProcess && q.MaxMemoryBytes > 0 && u.memory+memBytes > q.MaxMemoryBytes {
		return fmt.Errorf("%w: tenant %q memory %d + %d > %d", ErrQuota, tenant, u.memory, memBytes, q.MaxMemoryBytes)
	}
	return nil
}

// Execute runs a single-request dispatch: ExecuteBatch with no extras.
func (m *Manager) Execute(req *core.Request, gpuID string, now sim.Time) (hit bool, err error) {
	hit, _, err = m.ExecuteBatch(req, nil, gpuID, now)
	return hit, err
}

// inputs is a request's input count as the profiles see it.
func inputs(r *core.Request) int {
	if r.BatchSize <= 0 {
		return 1
	}
	return r.BatchSize
}

// ExecuteBatch runs a scheduler dispatch — the primary request plus the
// same-model extras the scheduler drained behind it, if any — as ONE
// launch on the GPU: one hit/miss resolution against the Cache Manager,
// evictions (killing victim processes) and one model load on a miss, one
// inference sized by the members' summed inputs, and one completion that
// finishes every member at the same instant, scheduled on the clock with
// the load-done callback ahead of it. The returned hit flag is the actual
// outcome (it can differ from the scheduler's expectation if the model
// was evicted after the decision, which the harness tolerates).
//
// Cache-metric semantics: a batched launch counts as one cache access
// (one OnHit or OnMiss), because it is one model activation — hit/miss
// ratios count launches, not member requests.
//
// Tenant accounting is exact: each extra is charged the marginal
// per-input cost its membership adds (InferFit slope times its inputs),
// the primary is charged the remainder (launch overhead + its own
// inputs) plus the load. Quota checks use the same decomposition:
// an extra whose tenant is out of quota is excluded from the launch and
// returned in dropped — the caller fails it like a dispatch error; a
// primary quota failure fails the whole call before any state changes.
//
// A dispatch without extras reports BatchMembers 0 and InferShare 0 (the
// whole InferTime is the primary's), as builds without batching did.
//
// now is the dispatch instant on the manager's clock and must not be
// ahead of it: the launch is due at now + load + inference, and a timer
// firing before that instant is taken for a stale one.
func (m *Manager) ExecuteBatch(req *core.Request, extras []*core.Request, gpuID string, now sim.Time) (hit bool, dropped []*core.Request, err error) {
	d, ok := m.devs[gpuID]
	if !ok {
		return false, nil, fmt.Errorf("%w: %s", ErrUnknownDevice, gpuID)
	}
	mdl, ok := m.zoo.Get(req.Model)
	if !ok {
		return false, nil, fmt.Errorf("%w: %s", ErrUnknownModel, req.Model)
	}
	prof, ok := m.profiles.Get(d.dev.Type(), mdl.Name)
	if !ok {
		return false, nil, fmt.Errorf("%w: %s on %s", ErrNoProfile, mdl.Name, d.dev.Type())
	}
	for _, r := range extras {
		if r.Model != req.Model {
			return false, nil, fmt.Errorf("gpumgr: batch mixes models %s and %s", req.Model, r.Model)
		}
	}
	if fl, busy := d.dev.Inflight(); busy {
		// The slot below belongs to that launch.
		return false, nil, fmt.Errorf("%w: %s already runs req %d", gpu.ErrBusy, gpuID, fl.ReqID)
	}

	hit = m.cacheMgr.CachedOrd(d.ord, mdl.Name)
	loadTime := time.Duration(0)
	if !hit {
		loadTime = d.scale(prof.LoadTime)
	}
	// Primary pays the single-request cost (launch overhead + own
	// inputs) plus the load; each extra pays only the marginal slope
	// cost of its inputs. The shares sum exactly to the batched
	// inference time, so quota charges equal GPU time consumed. A
	// straggler factor scales the whole launch, marginal costs
	// included, so the decomposition keeps summing exactly.
	if err := m.checkQuota(req.Tenant, loadTime+d.scale(prof.InferTime(req.BatchSize)), !hit, mdl.OccupancyBytes()); err != nil {
		return hit, nil, err
	}
	d.members = append(d.members[:0], req)
	d.results = append(d.results[:0], Result{ReqID: req.ID, Function: req.Function, Tenant: req.Tenant, Arrival: req.Arrival})
	totalInputs := inputs(req)
	for _, r := range extras {
		cost := d.scale(time.Duration(prof.InferFit.Beta * float64(inputs(r)) * float64(time.Second)))
		if err := m.checkQuota(r.Tenant, cost, false, 0); err != nil {
			dropped = append(dropped, r)
			continue
		}
		d.members = append(d.members, r)
		d.results = append(d.results, Result{ReqID: r.ID, Function: r.Function, Tenant: r.Tenant, Arrival: r.Arrival, InferShare: cost})
		totalInputs += inputs(r)
	}
	inferTime := d.scale(prof.InferTime(totalInputs))

	falseMiss, err := m.begin(d, req, mdl, hit, loadTime, inferTime, now)
	if err != nil {
		d.clearLaunch()
		return hit, dropped, err
	}

	batchMembers := 0
	if len(extras) > 0 {
		batchMembers = len(d.members)
		d.results[0].InferShare = inferTime
		for i := 1; i < len(d.results); i++ {
			d.results[0].InferShare -= d.results[i].InferShare
		}
	}
	for i := range d.results {
		res := &d.results[i]
		res.Model = mdl.Name
		res.GPU = gpuID
		res.Hit = hit
		res.FalseMiss = falseMiss
		res.DispatchedAt = now
		res.LoadTime = loadTime
		res.InferTime = inferTime
		res.BatchMembers = batchMembers
	}
	// Load-done is scheduled before completion, so an (at, seq) tie
	// between the two resolves the same way on every run.
	if loadTime > 0 {
		if d.loadTimer == nil {
			d.loadTimer = m.clock.NewTimer("gpumgr.loadDone", func(at sim.Time) { m.loadDone(d, at) })
		}
		d.loadTimer.Reset(loadTime)
	}
	if d.doneTimer == nil {
		d.doneTimer = m.clock.NewTimer("gpumgr.complete", func(at sim.Time) { m.complete(d, at) })
	}
	d.doneTimer.Reset(loadTime + inferTime)
	return hit, dropped, nil
}

// begin performs the launch's state changes: the cache access (evicting
// and loading on a miss), the device's Begin, the pin and the busy report.
func (m *Manager) begin(d *device, req *core.Request, mdl models.Model, hit bool, loadTime, inferTime time.Duration, now sim.Time) (falseMiss bool, err error) {
	gpuID := d.dev.ID()
	if hit {
		if err := m.cacheMgr.OnHit(gpuID, mdl.Name, now); err != nil {
			return false, err
		}
	} else {
		// Resolve false-miss attribution before OnMiss inserts the model
		// here (mirroring the Cache Manager's own aggregate counter).
		falseMiss = m.cacheMgr.CachedAnywhere(mdl.Name)
		victims, err := m.cacheMgr.Victims(d.dev, mdl.OccupancyBytes())
		if err != nil {
			return false, err
		}
		for _, v := range victims {
			if err := m.killProcess(d, v, now); err != nil {
				return false, err
			}
		}
		if err := d.dev.Admit(mdl.Name, mdl.OccupancyBytes(), now); err != nil {
			return false, err
		}
		if err := m.cacheMgr.OnMiss(gpuID, mdl.Name, now); err != nil {
			return false, err
		}
		m.startProcess(d, mdl, req.Tenant, now)
	}
	if _, err := d.dev.Begin(req.ID, mdl.Name, loadTime, inferTime, now); err != nil {
		return falseMiss, err
	}
	m.cacheMgr.Pin(gpuID, mdl.Name)
	if m.sink != nil {
		m.sink.GPUStatus(gpuID, true, now)
	}
	return falseMiss, nil
}

// loadDone ends the Loading phase of the launch in the slot. The firing
// is ignored unless that launch's load is due: under RealClock a firing
// can outlive its launch (see sim.Timer.Stop) and find the slot empty or
// already holding the next one.
func (m *Manager) loadDone(d *device, now sim.Time) {
	if fl, busy := d.dev.Inflight(); busy && now >= fl.LoadUntil {
		// LoadDone fails when that launch is not loading: a stale firing
		// that found a hit, or a load already ended. Nothing to do.
		_ = d.dev.LoadDone(now)
	}
}

// complete retires the launch in the slot: one device completion, exact
// per-member tenant charges (load to the primary), then the member
// completions in arrival order. Like loadDone it ignores a firing that
// finds no launch due.
func (m *Manager) complete(d *device, now sim.Time) {
	if fl, busy := d.dev.Inflight(); !busy || now < fl.FinishAt {
		return
	}
	gpuID := d.dev.ID()
	d.dev.Complete(now) // cannot fail: the device is busy
	// Detach the results: a callback below may launch on this GPU again
	// (or remove it), and that refills the slot.
	results := d.results
	d.results, m.spare = m.spare[:0], nil
	d.clearLaunch()
	m.cacheMgr.Pin(gpuID, "")
	for i := range results {
		res := &results[i]
		charge := res.InferShare
		if res.BatchMembers == 0 {
			charge = res.InferTime
		}
		if i == 0 {
			charge += res.LoadTime
		}
		m.tenantUsageFor(res.Tenant).gpuTime += charge
		res.FinishedAt = now
	}
	if m.sink != nil {
		m.sink.GPUStatus(gpuID, false, now)
	}
	for i := range results {
		if m.sink != nil {
			m.sink.Completion(results[i])
		}
		if m.onComplete != nil {
			m.onComplete(results[i])
		}
	}
	m.spare = results[:0]
}

// startProcess records a new GPU process serving the model.
func (m *Manager) startProcess(d *device, mdl models.Model, tenant string, now sim.Time) {
	m.nextPID++
	if d.procs == nil {
		d.procs = make(map[string]Process)
	}
	d.procs[mdl.Name] = Process{PID: m.nextPID, GPU: d.dev.ID(), Model: mdl.Name, Tenant: tenant, Started: now}
	u := m.tenantUsageFor(tenant)
	u.processes++
	u.memory += mdl.OccupancyBytes()
}

// killProcess kills the process serving a victim model and evicts the
// model from the device and the cache index.
func (m *Manager) killProcess(d *device, model string, now sim.Time) error {
	if err := d.dev.Evict(model); err != nil {
		return err
	}
	if err := m.cacheMgr.OnEvict(d.dev.ID(), model, now); err != nil {
		return err
	}
	if p, ok := d.procs[model]; ok {
		u := m.tenantUsageFor(p.Tenant)
		u.processes--
		if mdl, ok := m.zoo.Get(model); ok {
			u.memory -= mdl.OccupancyBytes()
		}
		delete(d.procs, model)
	}
	return nil
}

// TenantGPUTime returns the cumulative GPU time consumed by a tenant.
func (m *Manager) TenantGPUTime(tenant string) time.Duration {
	if u, ok := m.usage[tenant]; ok {
		return u.gpuTime
	}
	return 0
}

// TenantProcesses returns the tenant's live process count.
func (m *Manager) TenantProcesses(tenant string) int {
	if u, ok := m.usage[tenant]; ok {
		return u.processes
	}
	return 0
}
