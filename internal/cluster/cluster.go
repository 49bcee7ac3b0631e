// Package cluster wires the reproduction together: GPU devices, per-node
// GPU Managers, the global Cache Manager, and the Scheduler, following the
// architecture of Fig. 2 in the paper. It drives them in either of two
// modes:
//
//   - simulated time: RunWorkload feeds a request stream through a
//     discrete-event engine and returns the evaluation metrics — this is
//     what every benchmark uses;
//   - live time: Submit enqueues one request under the wall clock; the
//     FaaS gateway uses this path.
//
// The Cluster implements core.Backend, giving the Scheduler its view of
// GPU status, cache contents and profiled times.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gpufaas/internal/autoscale"
	"gpufaas/internal/cache"
	"gpufaas/internal/chaos"
	"gpufaas/internal/core"
	"gpufaas/internal/gpu"
	"gpufaas/internal/gpumgr"
	"gpufaas/internal/models"
	"gpufaas/internal/obs"
	"gpufaas/internal/ordset"
	"gpufaas/internal/sim"
	"gpufaas/internal/stats"
	"gpufaas/internal/trace"
)

// Config describes the cluster to build. The defaults mirror the paper's
// testbed: 3 nodes x 4 GeForce RTX 2080 GPUs with 8 GB memory each.
type Config struct {
	// Fleet declares the GPU fleet as an ordered mix of device classes
	// (heterogeneous fleets, per-class cost accounting, tiered
	// autoscaling). When nil, a homogeneous DefaultGPUType fleet of
	// Nodes × GPUsPerNode devices is built in the paper's node layout.
	Fleet FleetSpec
	// Nodes / GPUsPerNode / GPUMemory shape the homogeneous default
	// fleet; they are ignored when Fleet is declared.
	Nodes       int
	GPUsPerNode int
	GPUMemory   int64 // bytes per GPU
	Policy      core.Policy
	O3Limit     int
	// DisableLocalQueue is the finish-time-estimation ablation knob
	// (core.Config.DisableLocalQueue).
	DisableLocalQueue bool
	// ScanPlacement selects the scheduler's reference scan-placement
	// path (core.Config.ScanPlacement); decision-identical, used as the
	// benchmark baseline for the indexed path.
	ScanPlacement bool
	// MaxBatch caps how many same-model requests one dispatch may
	// coalesce into a single batched GPU launch (core.Config.MaxBatch).
	// <= 1 disables batching entirely: decisions and reports are then
	// byte-identical to the pre-batching build.
	MaxBatch int
	// BatchWait is the optional linger window (core.Config.BatchWait):
	// with every GPU idle, the queue head is held up to this long past
	// its arrival waiting for same-model companions. The cluster arms a
	// clock wake-up at the scheduler's PendingWake deadline, so the
	// simulation drains even when the linger is the only pending event.
	// Ignored unless MaxBatch > 1.
	BatchWait   time.Duration
	CachePolicy string // cache.PolicyLRU (default), PolicyFIFO, PolicyLFU
	Zoo         *models.Zoo
	Profiles    *models.ProfileStore
	// Clock overrides the default simulated clock (live mode passes a
	// RealClock). When nil, a fresh discrete-event engine is created.
	Clock sim.Clock
	// Sink forwards GPU status/completions (e.g. to the Datastore); may
	// be nil.
	Sink gpumgr.StatusSink
	// OnResult is called after each completion, outside metric
	// bookkeeping; may be nil.
	OnResult func(gpumgr.Result)
	// OnDrop is called when a dispatched request fails to execute and
	// is dropped (per-tenant quota, impossible model); may be nil. The
	// live gateway uses it to fail the waiting invocation immediately
	// instead of letting it ride out the invoke timeout.
	OnDrop func(id int64, err error)
	// Autoscale, when non-nil, attaches a policy-driven autoscaler that
	// provisions/decommissions GPUs at (simulated or wall) time. In
	// simulated-time mode Autoscale.Horizon must be set, or the
	// rescheduling tick would keep RunWorkload from draining.
	Autoscale *autoscale.Config
	// Obs selects the observability features (lifecycle tracing, latency
	// decomposition, time-series telemetry). The zero value disables all
	// of them: the hot paths then pay one nil check per hook and reports
	// marshal byte-identically to pre-observability goldens.
	Obs obs.Options
	// Chaos, when it enables anything, attaches a deterministic fault
	// injector: seeded GPU crashes (instant decommission, no drain),
	// transient stragglers, and MTTR recovery. In simulated-time mode a
	// sampled fault model requires Chaos.Horizon (the crash→recover
	// chain would otherwise keep the engine from draining). Nil or zero
	// injects nothing and keeps reports byte-identical to fault-free
	// builds.
	Chaos *chaos.Config
	// Retry governs what happens to a request whose GPU fails mid-flight
	// (including every member of an in-flight batch): while the policy
	// allows another attempt the request re-queues at the front of the
	// global queue (deterministic position, GPU-seconds charged once per
	// attempt); once exhausted — or with the zero policy — it fails with
	// reason "retry_exhausted"/"fault".
	Retry core.RetryPolicy
}

// DefaultGPUMemory is the usable model memory per GPU: the testbed's
// GeForce RTX 2080 has 8 GB physical memory of which roughly 1 GB is
// consumed by the CUDA context and framework runtime, leaving ~7 GB for
// model residency. This is the capacity the Cache Manager allocates
// against.
const DefaultGPUMemory = 7 << 30

// DefaultConfig returns the paper's 12-GPU testbed configuration with the
// LALB+O3 scheduler.
func DefaultConfig() Config {
	return Config{
		Nodes:       3,
		GPUsPerNode: 4,
		GPUMemory:   DefaultGPUMemory,
		Policy:      core.LALBO3,
		O3Limit:     core.DefaultO3Limit,
		CachePolicy: cache.PolicyLRU,
	}
}

// Cluster is the assembled GPU-FaaS system.
type Cluster struct {
	mu sync.Mutex

	cfg      Config
	engine   *sim.Engine // nil in live mode
	clock    sim.Clock
	zoo      *models.Zoo
	profiles *models.ProfileStore
	cacheMgr *cache.Manager
	sched    *core.Scheduler
	mgrs     []*gpumgr.Manager
	devByID  map[string]*gpu.Device
	mgrByDev map[string]*gpumgr.Manager
	// fleet is the normalized device-class mix; declaredFleet records
	// whether the caller declared it (per-class report rows) or it was
	// derived from the homogeneous Nodes × GPUsPerNode default (legacy
	// reports stay byte-identical).
	fleet         FleetSpec
	declaredFleet bool
	// gpuIDs is the membership list. Mutations (elastic add/remove)
	// happen under the harness serialization AND idsMu; GPUIDs()
	// snapshots under idsMu alone, so it stays safe to call from result
	// hooks and sinks that already hold c.mu in live mode (idsMu is a
	// leaf lock — never held while taking c.mu).
	gpuIDs []string
	idsMu  sync.Mutex

	// idle is the incremental idle-GPU set as ascending registration
	// ordinals; it is maintained from GPU status transitions
	// (statusSink) so the scheduler's per-decision candidate scan is
	// proportional to the idle count, never the cluster size. The Cache
	// Manager's index is the ordinal authority (ords are assigned at
	// RegisterGPU, monotone and never reused); devByOrd gives the
	// scheduler's per-decision device lookups slice indexing instead of
	// a map probe.
	idle     []ordset.Ord
	devByOrd []*gpu.Device // ord -> device; nil once removed
	userSink gpumgr.StatusSink

	// Elastic membership (autoscale subsystem). gpuState tracks each
	// member's lifecycle.
	gpuState   map[string]gpuLifecycle
	addedAt    map[string]sim.Time
	activation map[string]func() // pending cold-start timer cancels
	gpuSeq     int               // provisioned-GPU name counter
	elasticMgr *gpumgr.Manager   // lazily-created manager for provisioned GPUs
	gpuSeconds float64           // accumulated GPU-seconds of removed members
	// classSeconds accumulates removed members' GPU-seconds per device
	// class; classCount/classPeak track each class's current membership
	// and its high-water mark.
	classSeconds map[string]float64
	classCount   map[string]int
	classPeak    map[string]int
	// Removed members' phase durations accumulate here so the report's
	// utilization covers the whole fleet history, not just survivors.
	remIdle, remLoading, remInferring time.Duration
	scaleUps                          int64
	scaleDowns                        int64
	peakGPUs                          int
	scaler                            *autoscale.Autoscaler

	// Observability (Config.Obs). All nil/zero when disabled; confined
	// to the harness's serialization like every other collector here.
	// obsInFlight counts dispatched-not-completed requests for the
	// series recorder.
	tracer      *obs.Tracer
	breakdown   *obs.Collector
	seriesRec   *obs.Recorder
	obsInFlight int

	// Linger wake-up dedup (Config.BatchWait): batchWakeArmed is true
	// while a clock timer is pending at batchWakeAt. A later, earlier
	// deadline arms a second timer; the stale one fires a harmless
	// no-op Schedule. Deterministic — pure sim-clock state.
	batchWakeAt    sim.Time
	batchWakeArmed bool

	// Fault injection (Config.Chaos) and retry accounting. failures
	// counts GPU crash events, interrupted the in-flight attempts those
	// crashes aborted, retries the interrupted requests granted another
	// attempt. failedByReason splits the failed counter by drop cause;
	// gpuFailures keeps a cumulative per-GPU crash count (the device
	// itself is gone after a crash, so the counter outlives it).
	injector       *chaos.Injector
	failures       int64
	interrupted    int64
	retries        int64
	failedByReason map[string]int64
	gpuFailures    map[string]int64

	latencies  *stats.Sample
	perModel   map[string]*stats.Welford
	results    []gpumgr.Result
	keepResult bool
	completed  int64
	failed     int64
	lastFinish sim.Time
	topModel   string
	onResult   func(gpumgr.Result)
	onDrop     func(id int64, err error)

	// stream is the active streaming replay (RunWorkloadStream); nil on
	// the materialized and live paths. While set, completed requests are
	// recycled through its arena.
	stream *streamRun
}

// gpuLifecycle is a member GPU's elastic-membership state.
type gpuLifecycle int

const (
	// gpuActive: schedulable.
	gpuActive gpuLifecycle = iota
	// gpuProvisioning: added, still inside the cold-start window; not
	// schedulable and invisible to the idle set.
	gpuProvisioning
	// gpuDraining: decommission requested; finishes in-flight and
	// parked work, takes no new work, leaves once quiescent.
	gpuDraining
)

// lockedClock wraps a clock so that timer callbacks run holding the
// cluster mutex; this is what makes the passive components safe under the
// real clock's timer goroutines.
type lockedClock struct {
	inner sim.Clock
	mu    *sync.Mutex
}

func (c lockedClock) Now() sim.Time { return c.inner.Now() }
func (c lockedClock) NewTimer(name string, fn func(now sim.Time)) sim.Timer {
	return c.inner.NewTimer(name, func(now sim.Time) {
		c.mu.Lock()
		defer c.mu.Unlock()
		fn(now)
	})
}

// validateProfileCoverage fails construction when any (device class,
// zoo model) pair lacks a profile. Before this check existed a missing
// profile surfaced as silently-zero LLB estimates (and a mid-run
// dispatch error); now the miss is impossible past New, and the
// backendView panics if one happens anyway.
func validateProfileCoverage(profiles *models.ProfileStore, fleet FleetSpec, zoo *models.Zoo) error {
	for _, class := range fleet {
		for _, name := range zoo.Names() {
			if _, ok := profiles.Get(class.Type, name); !ok {
				return fmt.Errorf("cluster: profile store does not cover model %q on GPU type %q (every (class, model) pair must be profiled)", name, class.Type)
			}
		}
	}
	return nil
}

// New assembles a cluster from the config.
func New(cfg Config) (*Cluster, error) {
	declared := cfg.Fleet != nil
	if declared {
		if err := cfg.Fleet.Validate(); err != nil {
			return nil, err
		}
	} else {
		if cfg.Nodes <= 0 || cfg.GPUsPerNode <= 0 {
			return nil, fmt.Errorf("cluster: invalid topology %dx%d", cfg.Nodes, cfg.GPUsPerNode)
		}
		if cfg.GPUMemory <= 0 {
			return nil, fmt.Errorf("cluster: invalid GPU memory %d", cfg.GPUMemory)
		}
		cfg.Fleet = FleetSpec{{
			Type:   DefaultGPUType,
			Memory: cfg.GPUMemory,
			Count:  cfg.Nodes * cfg.GPUsPerNode,
		}}
	}
	if cfg.Zoo == nil {
		cfg.Zoo = models.Default()
	}
	if cfg.Profiles == nil {
		var err error
		cfg.Profiles, err = models.FleetTableProfiles(cfg.Zoo, cfg.Fleet.Types()...)
		if err != nil {
			return nil, err
		}
	}
	if err := validateProfileCoverage(cfg.Profiles, cfg.Fleet, cfg.Zoo); err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg:           cfg,
		fleet:         cfg.Fleet,
		declaredFleet: declared,
		zoo:           cfg.Zoo,
		profiles:      cfg.Profiles,
		devByID:       make(map[string]*gpu.Device),
		mgrByDev:      make(map[string]*gpumgr.Manager),
		gpuState:      make(map[string]gpuLifecycle),
		addedAt:       make(map[string]sim.Time),
		activation:    make(map[string]func()),
		classSeconds:  make(map[string]float64),
		classCount:    make(map[string]int),
		classPeak:     make(map[string]int),
		userSink:      cfg.Sink,
		latencies:     stats.NewSample(4096),
		perModel:      make(map[string]*stats.Welford),
		onResult:      cfg.OnResult,
		onDrop:        cfg.OnDrop,
	}
	if cfg.Clock == nil {
		c.engine = sim.New()
		c.clock = sim.SimClock{E: c.engine}
	} else {
		c.clock = lockedClock{inner: cfg.Clock, mu: &c.mu}
	}
	if cfg.Obs.Trace {
		c.tracer = obs.NewTracer(cfg.Obs.SampleMod, cfg.Obs.Cell)
	}
	if cfg.Obs.Breakdown {
		c.breakdown = obs.NewCollector()
	}
	if cfg.Obs.Series {
		c.seriesRec = obs.NewRecorder(cfg.Obs.SeriesInterval)
	}

	sizeOf := func(model string) (int64, bool) {
		m, ok := cfg.Zoo.Get(model)
		if !ok {
			return 0, false
		}
		return m.OccupancyBytes(), true
	}
	var err error
	c.cacheMgr, err = cache.NewManager(cfg.CachePolicy, sizeOf)
	if err != nil {
		return nil, err
	}

	newManager := func(node string) (*gpumgr.Manager, error) {
		return gpumgr.New(gpumgr.Config{
			Node:       node,
			Clock:      c.clock,
			Cache:      c.cacheMgr,
			Zoo:        cfg.Zoo,
			Profiles:   cfg.Profiles,
			Sink:       statusSink{c: c},
			OnComplete: c.handleComplete,
		})
	}
	adopt := func(mgr *gpumgr.Manager, dev *gpu.Device) error {
		if err := mgr.AddDevice(dev); err != nil {
			return err
		}
		c.devByID[dev.ID()] = dev
		c.mgrByDev[dev.ID()] = mgr
		c.trackOrd(dev)
		c.gpuState[dev.ID()] = gpuActive
		c.addedAt[dev.ID()] = 0
		c.gpuIDs = append(c.gpuIDs, dev.ID())
		return nil
	}
	if declared {
		// Declared fleets group each device class under one manager
		// node named after the class; registration (scheduler ordinal)
		// order is spec order.
		for _, class := range cfg.Fleet {
			if class.Count == 0 {
				continue
			}
			mgr, err := newManager(class.Type)
			if err != nil {
				return nil, err
			}
			for g := 0; g < class.Count; g++ {
				dev, err := gpu.New(gpu.Config{
					ID:       fmt.Sprintf("%s/gpu%d", class.Type, g),
					Node:     mgr.Node(),
					Type:     class.Type,
					Capacity: class.Memory,
				})
				if err != nil {
					return nil, err
				}
				if err := adopt(mgr, dev); err != nil {
					return nil, err
				}
			}
			c.mgrs = append(c.mgrs, mgr)
		}
	} else {
		// The paper's homogeneous layout: Nodes managers of GPUsPerNode
		// devices each.
		class := cfg.Fleet[0]
		for n := 0; n < cfg.Nodes; n++ {
			mgr, err := newManager(fmt.Sprintf("node%d", n))
			if err != nil {
				return nil, err
			}
			for g := 0; g < cfg.GPUsPerNode; g++ {
				dev, err := gpu.New(gpu.Config{
					ID:       fmt.Sprintf("node%d/gpu%d", n, g),
					Node:     mgr.Node(),
					Type:     class.Type,
					Capacity: class.Memory,
				})
				if err != nil {
					return nil, err
				}
				if err := adopt(mgr, dev); err != nil {
					return nil, err
				}
			}
			c.mgrs = append(c.mgrs, mgr)
		}
	}
	// Every GPU starts idle.
	for _, id := range c.gpuIDs {
		o, _ := c.cacheMgr.Ord(id)
		c.idle = append(c.idle, o)
		c.bumpClassPeak(c.devByID[id].Type())
	}
	c.peakGPUs = len(c.gpuIDs)

	c.sched, err = core.New(core.Config{
		Policy:            cfg.Policy,
		O3Limit:           cfg.O3Limit,
		DisableLocalQueue: cfg.DisableLocalQueue,
		ScanPlacement:     cfg.ScanPlacement,
		MaxBatch:          cfg.MaxBatch,
		BatchWait:         cfg.BatchWait,
	}, (*backendView)(c))
	if err != nil {
		return nil, err
	}

	if cfg.Autoscale != nil {
		if c.engine != nil && cfg.Autoscale.Horizon <= 0 {
			return nil, errors.New("cluster: autoscaler in simulated-time mode requires a Horizon")
		}
		// The fleet adapter's methods run inside clock callbacks, which
		// the harness already serializes (event loop / lockedClock).
		c.scaler, err = autoscale.New((*fleetView)(c), c.clock, *cfg.Autoscale)
		if err != nil {
			return nil, err
		}
		c.scaler.Start()
	}

	if cfg.Retry.MaxAttempts < 0 {
		return nil, fmt.Errorf("cluster: negative retry attempts %d", cfg.Retry.MaxAttempts)
	}
	if cfg.Chaos.Enabled() {
		// The hooks run inside clock callbacks: serialized by the event
		// loop in sim mode, by lockedClock in live mode.
		c.injector, err = chaos.NewInjector(*cfg.Chaos, c.clock, chaos.Hooks{
			Fail:        c.failGPU,
			SetSlowdown: c.setSlowdown,
		})
		if err != nil {
			return nil, err
		}
		for _, id := range c.gpuIDs {
			o, _ := c.cacheMgr.Ord(id)
			c.injector.DeviceAdded(int(o), id, c.clock.Now())
		}
		c.injector.Start(c.clock.Now())
	}
	return c, nil
}

// statusSink observes GPU busy transitions from the GPU Managers to keep
// the cluster's incremental idle set current, then forwards to the
// user-configured sink. Transitions arrive before the scheduler re-runs
// (gpumgr reports status ahead of OnComplete), so the idle set is always
// fresh at decision time.
type statusSink struct{ c *Cluster }

func (s statusSink) GPUStatus(gpuID string, busy bool, at sim.Time) {
	s.c.markIdle(gpuID, !busy)
	// Forward before any drain finalization: GPURemoved must be the
	// sink's last event for a GPU, or the trailing idle report would
	// re-create state (e.g. the datastore status key) the removal just
	// cleaned up.
	if s.c.userSink != nil {
		s.c.userSink.GPUStatus(gpuID, busy, at)
	}
	if !busy {
		// A draining GPU that just went idle with an empty local queue
		// is quiescent: complete its decommission before the scheduler
		// runs again.
		s.c.maybeFinishDrain(gpuID, at)
	}
}

func (s statusSink) Completion(res gpumgr.Result) {
	if s.c.userSink != nil {
		s.c.userSink.Completion(res)
	}
}

// trackOrd records a freshly registered device in the ord-indexed device
// table (the Cache Manager assigned its ordinal during AddDevice).
func (c *Cluster) trackOrd(dev *gpu.Device) {
	o, ok := c.cacheMgr.Ord(dev.ID())
	if !ok {
		panic("cluster: device registered without an ordinal: " + dev.ID())
	}
	for ordset.Ord(len(c.devByOrd)) <= o {
		c.devByOrd = append(c.devByOrd, nil)
	}
	c.devByOrd[o] = dev
}

// bumpClassPeak increments a device class's member count and raises its
// high-water mark. Runs under the harness's serialization.
func (c *Cluster) bumpClassPeak(gpuType string) {
	c.classCount[gpuType]++
	if c.classCount[gpuType] > c.classPeak[gpuType] {
		c.classPeak[gpuType] = c.classCount[gpuType]
	}
}

// markIdle inserts or removes the GPU from the ordered idle set. Runs
// under the cluster's serialization (event loop in sim mode, lockedClock
// mutex in live mode).
func (c *Cluster) markIdle(gpuID string, idle bool) {
	o, ok := c.cacheMgr.Ord(gpuID)
	if !ok {
		return // already removed from the fleet
	}
	if idle {
		c.idle = ordset.Insert(c.idle, o)
	} else {
		c.idle = ordset.Remove(c.idle, o)
	}
}

// ---- Elastic membership ----

// Errors reported by the membership operations.
var (
	ErrUnknownGPU = errors.New("cluster: unknown GPU")
	ErrNotQuiet   = errors.New("cluster: GPU has in-flight or parked work; decommission with drain")
)

// AddGPU provisions one GPU of the given device class (any class the
// fleet declares; "" means the default class, Fleet[0]). The GPU becomes
// schedulable after coldStart elapses on the cluster clock; until then
// it is invisible to the scheduler but already accrues GPU-seconds (you
// pay for booting instances). Returns the new GPU's ID.
func (c *Cluster) AddGPU(gpuType string, coldStart time.Duration) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	class, err := c.resolveClass(gpuType)
	if err != nil {
		return "", err
	}
	return c.addGPU(class, coldStart)
}

// resolveClass maps a GPU type to its declared fleet class ("" is the
// default class). Provisioning a class the fleet does not declare is an
// error: its profiles were never validated.
func (c *Cluster) resolveClass(gpuType string) (GPUClass, error) {
	if gpuType == "" {
		return c.fleet[0], nil
	}
	class, ok := c.fleet.Class(gpuType)
	if !ok {
		return GPUClass{}, fmt.Errorf("cluster: fleet declares no GPU class %q", gpuType)
	}
	return class, nil
}

// addGPU is AddGPU under the harness's serialization (callers inside
// clock callbacks use it directly; the exported wrapper locks).
func (c *Cluster) addGPU(class GPUClass, coldStart time.Duration) (string, error) {
	if coldStart < 0 {
		return "", fmt.Errorf("cluster: negative cold start %v", coldStart)
	}
	if c.elasticMgr == nil {
		mgr, err := gpumgr.New(gpumgr.Config{
			Node:       "elastic",
			Clock:      c.clock,
			Cache:      c.cacheMgr,
			Zoo:        c.zoo,
			Profiles:   c.profiles,
			Sink:       statusSink{c: c},
			OnComplete: c.handleComplete,
		})
		if err != nil {
			return "", err
		}
		c.elasticMgr = mgr
		c.mgrs = append(c.mgrs, mgr)
	}
	id := fmt.Sprintf("elastic/gpu%d", c.gpuSeq)
	c.gpuSeq++
	now := c.clock.Now()
	dev, err := gpu.New(gpu.Config{
		ID:        id,
		Node:      c.elasticMgr.Node(),
		Type:      class.Type,
		Capacity:  class.Memory,
		CreatedAt: now,
	})
	if err != nil {
		return "", err
	}
	if err := c.elasticMgr.AddDevice(dev); err != nil {
		return "", err
	}
	c.devByID[id] = dev
	c.mgrByDev[id] = c.elasticMgr
	c.trackOrd(dev)
	c.addedAt[id] = now
	c.idsMu.Lock()
	c.gpuIDs = append(c.gpuIDs, id)
	c.idsMu.Unlock()
	if n := len(c.gpuIDs); n > c.peakGPUs {
		c.peakGPUs = n
	}
	c.bumpClassPeak(class.Type)
	c.scaleUps++
	if coldStart == 0 {
		c.gpuState[id] = gpuActive
		c.markIdle(id, true)
		c.notifyDeviceAdded(id, now)
		c.runScheduler(now)
		return id, nil
	}
	c.gpuState[id] = gpuProvisioning
	c.activation[id] = sim.AfterFunc(c.clock, coldStart, "cluster.gpuActivate "+id, func(at sim.Time) {
		c.activate(id, at)
	})
	return id, nil
}

// activate flips a provisioned GPU to schedulable once its cold-start
// window closes; a GPU decommissioned mid-boot never activates.
func (c *Cluster) activate(id string, now sim.Time) {
	if c.gpuState[id] != gpuProvisioning {
		return
	}
	delete(c.activation, id)
	c.gpuState[id] = gpuActive
	c.markIdle(id, true)
	c.notifyDeviceAdded(id, now)
	c.runScheduler(now)
}

// DecommissionGPU removes a GPU from the fleet. With drain=true the GPU
// first becomes unschedulable, finishes its in-flight request and any
// requests parked in its local queue, has its cache residents evicted
// (through the normal insert/evict event stream, so the global index and
// idle set stay consistent), and then leaves. With drain=false the GPU
// must already be quiescent — ErrNotQuiet otherwise.
func (c *Cluster) DecommissionGPU(gpuID string, drain bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decommission(gpuID, drain)
}

// decommission is DecommissionGPU under the harness's serialization.
func (c *Cluster) decommission(gpuID string, drain bool) error {
	state, ok := c.gpuState[gpuID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGPU, gpuID)
	}
	now := c.clock.Now()
	switch state {
	case gpuDraining:
		return nil // already on the way out
	case gpuProvisioning:
		// Never became schedulable: cancel the boot and remove.
		return c.finishRemove(gpuID, now)
	}
	busy := c.devByID[gpuID].Busy()
	parked := c.sched.LocalQueueLen(gpuID)
	if !busy && parked == 0 {
		return c.finishRemove(gpuID, now)
	}
	if !drain {
		return fmt.Errorf("%w: %s (busy=%v parked=%d)", ErrNotQuiet, gpuID, busy, parked)
	}
	c.gpuState[gpuID] = gpuDraining
	c.sched.SetDraining(gpuID, true)
	return nil
}

// maybeFinishDrain completes a drain once the GPU is quiescent; called
// from the status sink on every busy→idle transition.
func (c *Cluster) maybeFinishDrain(gpuID string, now sim.Time) {
	if c.gpuState[gpuID] != gpuDraining {
		return
	}
	if c.sched.LocalQueueLen(gpuID) != 0 {
		return // parked work left; the next scheduler round dispatches it
	}
	// Quiescent: remove before the scheduler sees this GPU as idle.
	if err := c.finishRemove(gpuID, now); err != nil {
		// Unreachable if the drain invariants hold; surface loudly in
		// sim mode like other harness bugs.
		panic(fmt.Sprintf("cluster: finish drain %s: %v", gpuID, err))
	}
}

// finishRemove deregisters a quiescent GPU everywhere: scheduler state,
// GPU manager (which kills remaining processes, evicting their models
// through the Cache Manager's event stream), idle set, and membership
// maps. GPU-seconds stop accruing at `now`.
func (c *Cluster) finishRemove(gpuID string, now sim.Time) error {
	// The ordinal dies with the cache deregistration inside RemoveDevice;
	// capture it first for the idle-set and device-table cleanup below.
	ord, hasOrd := c.cacheMgr.Ord(gpuID)
	if cancel, ok := c.activation[gpuID]; ok {
		cancel()
		delete(c.activation, gpuID)
	}
	if err := c.sched.RemoveGPU(gpuID); err != nil {
		return err
	}
	// Fold the departing GPU's phase durations into the removed-member
	// accumulators before the device is dropped, so report() covers
	// every member that ever served, not just survivors.
	u := c.devByID[gpuID].Utilization(now)
	c.remIdle += u.Idle
	c.remLoading += u.Loading
	c.remInferring += u.Inferring
	gpuType := c.devByID[gpuID].Type()
	if err := c.mgrByDev[gpuID].RemoveDevice(gpuID, now); err != nil {
		return err
	}
	secs := time.Duration(now - c.addedAt[gpuID]).Seconds()
	c.gpuSeconds += secs
	c.classSeconds[gpuType] += secs
	c.classCount[gpuType]--
	if hasOrd {
		c.idle = ordset.Remove(c.idle, ord)
		c.devByOrd[ord] = nil
		if c.injector != nil {
			c.injector.DeviceRemoved(int(ord))
		}
	}
	delete(c.gpuState, gpuID)
	delete(c.addedAt, gpuID)
	delete(c.devByID, gpuID)
	delete(c.mgrByDev, gpuID)
	c.idsMu.Lock()
	if i := slices.Index(c.gpuIDs, gpuID); i >= 0 {
		c.gpuIDs = slices.Delete(c.gpuIDs, i, i+1)
	}
	c.idsMu.Unlock()
	c.scaleDowns++
	if rs, ok := c.userSink.(gpumgr.GPURemovalSink); ok {
		rs.GPURemoved(gpuID, now)
	}
	return nil
}

// ---- Fault injection ----

// Failure-path drop causes.
var (
	errGPUFault       = errors.New("cluster: GPU failed mid-flight")
	errRetryExhausted = errors.New("cluster: retry budget exhausted after GPU failure")
)

// notifyDeviceAdded registers a newly schedulable GPU with the fault
// injector. A GPU's MTBF clock starts when it starts serving — a
// provisioning GPU registers at activation, not at AddGPU.
func (c *Cluster) notifyDeviceAdded(id string, now sim.Time) {
	if c.injector == nil {
		return
	}
	if o, ok := c.cacheMgr.Ord(id); ok {
		c.injector.DeviceAdded(int(o), id, now)
	}
}

// setSlowdown is the injector's straggler hook: launches dispatched to
// the device while the window is open run factor× slower (in-flight
// launches keep their original times). factor == 1 closes the window.
func (c *Cluster) setSlowdown(gpuID string, factor float64, _ sim.Time) {
	if mgr, ok := c.mgrByDev[gpuID]; ok {
		mgr.SetSlowdown(gpuID, factor)
	}
}

// FailGPU injects a GPU failure directly (tests, operator tooling); the
// seeded injector goes through the same path.
func (c *Cluster) FailGPU(gpuID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.gpuState[gpuID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGPU, gpuID)
	}
	c.failGPU(gpuID, c.clock.Now())
	return nil
}

// failGPU crashes a GPU instantly — decommission without a drain. The
// in-flight launch (every member of a batch) is interrupted, its
// GPU-seconds already charged for the wasted attempt by the manager;
// parked local-queue work re-queues without consuming an attempt;
// residents evict through the cache event stream as the device
// deregisters, so the placement index never serves a dead holder; the
// scheduler and autoscaler see the capacity loss immediately. With
// Config.Chaos.MTTR set, a same-class replacement (fresh ordinal, cold
// cache) arrives MTTR later, already schedulable — MTTR covers the
// reboot.
func (c *Cluster) failGPU(gpuID string, now sim.Time) {
	state, ok := c.gpuState[gpuID]
	if !ok || state == gpuProvisioning {
		return // raced with a removal, or never started serving
	}
	c.failures++
	if c.gpuFailures == nil {
		c.gpuFailures = make(map[string]int64)
	}
	c.gpuFailures[gpuID]++
	gpuType := c.devByID[gpuID].Type()

	members, startedAt, err := c.mgrByDev[gpuID].Interrupt(gpuID, now)
	if err != nil {
		panic(fmt.Sprintf("cluster: interrupt %s: %v", gpuID, err))
	}
	// Parked local-queue work never started an attempt; it only needs a
	// new home.
	parked := c.sched.DrainLocal(gpuID)
	if state == gpuDraining {
		c.sched.SetDraining(gpuID, false)
	}
	if err := c.finishRemove(gpuID, now); err != nil {
		panic(fmt.Sprintf("cluster: remove failed GPU %s: %v", gpuID, err))
	}

	// Each interrupted member consumed an attempt; the retry policy
	// decides its fate.
	retryable := members[:0]
	for _, m := range members {
		m.Attempt++
		c.interrupted++
		if c.breakdown != nil {
			c.breakdown.ObserveRetry(time.Duration(now - startedAt))
		}
		if c.cfg.Retry.Allows(m.Attempt) {
			retryable = append(retryable, m)
		} else {
			cause := errGPUFault
			if c.cfg.Retry.Enabled() {
				cause = errRetryExhausted
			}
			c.dropRequest(m.ID, cause)
		}
	}
	// Re-queue at the front of the global queue, preserving relative
	// order: interrupted members (dispatched earliest) ahead of parked
	// ones, both ahead of everything still queued. pushFront semantics
	// make reverse iteration land them in order.
	for i := len(parked) - 1; i >= 0; i-- {
		if err := c.sched.Requeue(parked[i]); err != nil {
			panic(fmt.Sprintf("cluster: requeue parked request %d: %v", parked[i].ID, err))
		}
	}
	for i := len(retryable) - 1; i >= 0; i-- {
		c.retries++
		if err := c.sched.Requeue(retryable[i]); err != nil {
			panic(fmt.Sprintf("cluster: requeue request %d: %v", retryable[i].ID, err))
		}
	}

	if cc := c.cfg.Chaos; cc != nil && cc.MTTR > 0 {
		if class, err := c.resolveClass(gpuType); err == nil {
			sim.AfterFunc(c.clock, sim.Time(cc.MTTR), "cluster.chaosRecover "+gpuID, func(at sim.Time) {
				if _, err := c.addGPU(class, 0); err != nil {
					panic(fmt.Sprintf("cluster: chaos recovery for %s: %v", gpuID, err))
				}
			})
		}
	}
	c.runScheduler(now)
}

// ScaleTo reconciles the non-draining fleet size (active + provisioning)
// to target: provisioning new GPUs with the given cold start, or
// drain-decommissioning surplus ones (provisioning first, then idle,
// then busy; newest first). It is the manual-scaling path behind the
// gateway's /system/scale endpoint.
func (c *Cluster) ScaleTo(target int, coldStart time.Duration) (added, removed []string, err error) {
	if target < 1 {
		return nil, nil, fmt.Errorf("cluster: target fleet size %d < 1", target)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	size := (*fleetView)(c).FleetSize()
	current := size.Active + size.Provisioning
	switch {
	case target > current:
		for i := current; i < target; i++ {
			id, err := c.addGPU(c.fleet[0], coldStart)
			if err != nil {
				return added, nil, err
			}
			added = append(added, id)
		}
	case target < current:
		removed = (*fleetView)(c).ScaleDown(current - target)
	}
	return added, removed, nil
}

// fleetView adapts Cluster to autoscale.Fleet. Its methods run inside
// clock callbacks, under the harness's serialization — they must not take
// the cluster mutex (live mode already holds it via lockedClock).
type fleetView Cluster

// FleetSize implements autoscale.Fleet.
func (f *fleetView) FleetSize() autoscale.Size {
	var s autoscale.Size
	for _, st := range f.gpuState {
		switch st {
		case gpuActive:
			s.Active++
		case gpuProvisioning:
			s.Provisioning++
		case gpuDraining:
			s.Draining++
		}
	}
	for _, o := range f.idle {
		if f.gpuState[f.cacheMgr.IDOf(o)] == gpuActive {
			s.Idle++
		}
	}
	return s
}

// PendingRequests implements autoscale.Fleet.
func (f *fleetView) PendingRequests() int { return f.sched.PendingTotal() }

// FailedGPUs implements autoscale.FaultyFleet: the cumulative crash
// count, so scaling policies (and the ScaleEvent log) see lost capacity.
func (f *fleetView) FailedGPUs() int {
	n := int64(0)
	for _, k := range f.gpuFailures {
		n += k
	}
	return int(n)
}

// ScaleUp implements autoscale.Fleet: class-agnostic scale-up provisions
// the default class (Fleet[0]).
func (f *fleetView) ScaleUp(n int, coldStart time.Duration) []string {
	return f.scaleUpClass(f.fleet[0], n, coldStart)
}

func (f *fleetView) scaleUpClass(class GPUClass, n int, coldStart time.Duration) []string {
	c := (*Cluster)(f)
	if class.ColdStart > 0 {
		coldStart = class.ColdStart
	}
	var out []string
	for i := 0; i < n; i++ {
		id, err := c.addGPU(class, coldStart)
		if err != nil {
			break
		}
		out = append(out, id)
	}
	return out
}

// ClassSizes implements autoscale.ClassedFleet: the per-class breakdown
// in fleet-spec order.
func (f *fleetView) ClassSizes() []autoscale.ClassSize {
	idleSet := make(map[string]bool, len(f.idle))
	for _, o := range f.idle {
		idleSet[f.cacheMgr.IDOf(o)] = true
	}
	out := make([]autoscale.ClassSize, len(f.fleet))
	for i, class := range f.fleet {
		out[i] = autoscale.ClassSize{Class: class.Type, CostPerSecond: class.CostPerSecond}
	}
	index := make(map[string]int, len(f.fleet))
	for i, class := range f.fleet {
		index[class.Type] = i
	}
	for id, st := range f.gpuState {
		i, ok := index[f.devByID[id].Type()]
		if !ok {
			continue
		}
		switch st {
		case gpuActive:
			out[i].Active++
			if idleSet[id] {
				out[i].Idle++
			}
		case gpuProvisioning:
			out[i].Provisioning++
		case gpuDraining:
			out[i].Draining++
		}
	}
	return out
}

// ScaleUpClass implements autoscale.ClassedFleet; the class's declared
// ColdStart wins over the autoscaler's fallback.
func (f *fleetView) ScaleUpClass(gpuType string, n int, coldStart time.Duration) []string {
	class, err := (*Cluster)(f).resolveClass(gpuType)
	if err != nil {
		return nil
	}
	return f.scaleUpClass(class, n, coldStart)
}

// ScaleDownClass implements autoscale.ClassedFleet: ScaleDown's victim
// order (provisioning, then idle, then busy; newest first) restricted to
// one device class.
func (f *fleetView) ScaleDownClass(gpuType string, n int) []string {
	return f.scaleDown(n, gpuType)
}

// ScaleDown implements autoscale.Fleet: drain-decommission up to n GPUs,
// preferring provisioning GPUs (they did no useful work yet), then idle,
// then busy; newest registration first within each bucket, so scale-down
// unwinds scale-up deterministically.
func (f *fleetView) ScaleDown(n int) []string { return f.scaleDown(n, "") }

// scaleDown is ScaleDown optionally restricted to one device class
// (gpuType "" considers the whole fleet).
func (f *fleetView) scaleDown(n int, gpuType string) []string {
	c := (*Cluster)(f)
	idleSet := make(map[string]bool, len(c.idle))
	for _, o := range c.idle {
		idleSet[c.cacheMgr.IDOf(o)] = true
	}
	var provisioning, idle, busy []string
	for i := len(c.gpuIDs) - 1; i >= 0; i-- { // newest first
		id := c.gpuIDs[i]
		switch {
		case gpuType != "" && c.devByID[id].Type() != gpuType:
			// not the requested class
		case c.gpuState[id] == gpuDraining:
			// already leaving; not a candidate
		case c.gpuState[id] == gpuProvisioning:
			provisioning = append(provisioning, id)
		case idleSet[id]:
			idle = append(idle, id)
		default:
			busy = append(busy, id)
		}
	}
	var out []string
	for _, id := range append(append(provisioning, idle...), busy...) {
		if len(out) == n {
			break
		}
		if err := c.decommission(id, true); err != nil {
			continue
		}
		out = append(out, id)
	}
	return out
}

// backendView adapts Cluster to core.Backend without exporting the
// methods on Cluster itself. The scheduler addresses GPUs by registration
// ordinal; every per-decision lookup below is a slice index (devByOrd) or
// an index view (holder lists), never a string-keyed map probe.
type backendView Cluster

// Ords returns the current members' ordinals in registration order. Only
// the scheduler's no-IdleLister fallback iterates this; the cluster
// always provides IdleOrds, so the allocation here is off the hot path.
func (b *backendView) Ords() []ordset.Ord {
	out := make([]ordset.Ord, 0, len(b.gpuIDs))
	for _, id := range b.gpuIDs {
		if o, ok := b.cacheMgr.Ord(id); ok {
			out = append(out, o)
		}
	}
	return out
}

func (b *backendView) OrdBound() ordset.Ord { return b.cacheMgr.OrdBound() }
func (b *backendView) OrdOf(gpuID string) (ordset.Ord, bool) {
	return b.cacheMgr.Ord(gpuID)
}
func (b *backendView) IDOf(o ordset.Ord) string { return b.cacheMgr.IDOf(o) }

// IdleOrds implements core.IdleLister: the incrementally-maintained idle
// set, ascending. Read-only view for the duration of one Schedule call.
func (b *backendView) IdleOrds() []ordset.Ord { return b.idle }

func (b *backendView) Busy(o ordset.Ord) bool {
	d := b.dev(o)
	return d != nil && d.Busy()
}
func (b *backendView) Cached(o ordset.Ord, model string) bool {
	return b.cacheMgr.CachedOrd(o, model)
}
func (b *backendView) GPUsCaching(model string) []ordset.Ord {
	return b.cacheMgr.HoldersView(model)
}
func (b *backendView) EstimatedFinish(o ordset.Ord, now sim.Time) time.Duration {
	d := b.dev(o)
	if d == nil {
		return 0
	}
	return d.EstimatedFinish(now)
}
func (b *backendView) LoadTime(o ordset.Ord, model string) time.Duration {
	return b.mustProfile(o, model).LoadTime
}
func (b *backendView) InferTime(o ordset.Ord, model string, batch int) time.Duration {
	return b.mustProfile(o, model).InferTime(batch)
}

// mustProfile resolves the (device type, model) profile for an estimate.
// A miss here would silently zero LLB/O3 finish-time estimates (the bug
// the construction-time coverage validation exists to prevent), so it is
// a harness invariant violation: panic with enough context to debug.
func (b *backendView) mustProfile(o ordset.Ord, model string) models.Profile {
	d := b.dev(o)
	if d == nil {
		panic(fmt.Sprintf("cluster: profile estimate for removed/unknown GPU ord %d (model %q)", o, model))
	}
	p, ok := b.profiles.Get(d.Type(), model)
	if !ok {
		panic(fmt.Sprintf("cluster: no profile for model %q on GPU type %q (%s) — construction-time validation should have rejected this fleet", model, d.Type(), d.ID()))
	}
	return p
}
func (b *backendView) dev(o ordset.Ord) *gpu.Device {
	if o < 0 || int(o) >= len(b.devByOrd) {
		return nil
	}
	return b.devByOrd[o]
}

// GPUIDs returns the cluster's GPUs in deterministic order. Membership
// is mutable at runtime (elastic scaling); the snapshot is taken under
// the dedicated membership lock, NOT the cluster mutex, so it remains
// safe to call from result hooks and sinks (which run holding c.mu in
// live mode, where c.mu would deadlock).
func (c *Cluster) GPUIDs() []string {
	c.idsMu.Lock()
	defer c.idsMu.Unlock()
	out := make([]string, len(c.gpuIDs))
	copy(out, c.gpuIDs)
	return out
}

// IdleGPUs returns a snapshot of the currently idle GPUs in registration
// order (the scheduler's candidate set).
func (c *Cluster) IdleGPUs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.idle))
	for i, o := range c.idle {
		out[i] = c.cacheMgr.IDOf(o)
	}
	return out
}

// Scheduler exposes the scheduler (read-mostly: counters, queue lengths).
func (c *Cluster) Scheduler() *core.Scheduler { return c.sched }

// Autoscaler returns the attached autoscaler, or nil. In live mode use
// the locked accessors (AutoscalerStatus, SetAutoscalerEnabled,
// ScaleEvents) instead of touching it directly.
func (c *Cluster) Autoscaler() *autoscale.Autoscaler { return c.scaler }

// FleetCounts returns the current membership breakdown. Like the other
// autoscaler accessors below (and AddGPU/DecommissionGPU/ScaleTo) it
// takes the cluster mutex: do not call it from result hooks or status
// sinks, which in live mode already run holding that mutex — use
// GPUIDs for hook-safe membership reads.
func (c *Cluster) FleetCounts() autoscale.Size {
	c.mu.Lock()
	defer c.mu.Unlock()
	return (*fleetView)(c).FleetSize()
}

// AutoscalerStatus snapshots the attached autoscaler; ok is false when
// the cluster has none.
func (c *Cluster) AutoscalerStatus() (autoscale.Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.scaler == nil {
		return autoscale.Status{}, false
	}
	return c.scaler.Status(), true
}

// SetAutoscalerEnabled pauses or resumes the attached autoscaler;
// returns false when the cluster has none.
func (c *Cluster) SetAutoscalerEnabled(on bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.scaler == nil {
		return false
	}
	c.scaler.SetEnabled(on)
	return true
}

// ScaleEvents returns a copy of the autoscaler's event log (nil without
// an autoscaler).
func (c *Cluster) ScaleEvents() []autoscale.ScaleEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.scaler == nil {
		return nil
	}
	return c.scaler.Events()
}

// OrdStatus reports the registration-ordinal pressure: bound is one past
// the highest ordinal ever assigned, live the current member count.
// Ordinals are monotone and never reused, so bound − live is the number
// of dead ordinals Ord-indexed state still spans — the measurable signal
// behind the ROADMAP's "ordinal compaction" item.
func (c *Cluster) OrdStatus() (bound, live int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idsMu.Lock()
	live = len(c.gpuIDs)
	c.idsMu.Unlock()
	return int(c.cacheMgr.OrdBound()), live
}

// CacheManager exposes the cache manager for metric inspection.
func (c *Cluster) CacheManager() *cache.Manager { return c.cacheMgr }

// Zoo returns the model zoo in use.
func (c *Cluster) Zoo() *models.Zoo { return c.zoo }

// Managers returns the per-node GPU managers.
func (c *Cluster) Managers() []*gpumgr.Manager { return c.mgrs }

// Device returns a GPU device by ID.
func (c *Cluster) Device(id string) (*gpu.Device, bool) {
	d, ok := c.devByID[id]
	return d, ok
}

// KeepResults makes the cluster retain every completion record (memory
// proportional to workload size); used by analyses that need the full
// distribution.
func (c *Cluster) KeepResults(keep bool) { c.keepResult = keep }

// TrackModel enables time-averaged duplicate accounting for a model
// (Fig. 6 uses the most popular model).
func (c *Cluster) TrackModel(model string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.topModel = model
	c.cacheMgr.Track(model, c.clock.Now())
}

// handleComplete records a finished request and reschedules; invoked from
// clock callbacks (already holding the mutex via lockedClock in live mode,
// single-threaded in sim mode).
func (c *Cluster) handleComplete(res gpumgr.Result) {
	c.completed++
	c.lastFinish = res.FinishedAt
	c.latencies.Add(res.Latency().Seconds())
	if c.breakdown != nil {
		c.breakdown.Observe(res.Hit, res.FalseMiss,
			time.Duration(res.DispatchedAt-res.Arrival), res.LoadTime, res.InferTime,
			res.BatchMembers, res.InferShare)
	}
	if c.tracer != nil {
		c.tracer.OnComplete(obs.Completion{
			ReqID:        res.ReqID,
			Function:     res.Function,
			Model:        res.Model,
			Hit:          res.Hit,
			FalseMiss:    res.FalseMiss,
			Arrival:      time.Duration(res.Arrival),
			Dispatched:   time.Duration(res.DispatchedAt),
			Finished:     time.Duration(res.FinishedAt),
			LoadTime:     res.LoadTime,
			InferTime:    res.InferTime,
			BatchMembers: res.BatchMembers,
			InferShare:   res.InferShare,
		})
	}
	if c.seriesRec != nil {
		c.obsInFlight--
		c.seriesTick(res.FinishedAt)
	}
	w, ok := c.perModel[res.Model]
	if !ok {
		w = &stats.Welford{}
		c.perModel[res.Model] = w
	}
	w.Add(res.Latency().Seconds())
	if c.scaler != nil {
		c.scaler.ObserveLatency(res.Latency().Seconds())
	}
	if c.keepResult {
		c.results = append(c.results, res)
	}
	if c.onResult != nil {
		c.onResult(res)
	}
	if c.stream != nil {
		// Streaming replay: the request object is dead once its result
		// is recorded — recycle it before the next scheduling round.
		c.stream.release(res.ReqID)
	}
	c.runScheduler(res.FinishedAt)
}

// runScheduler executes one scheduling round and dispatches the decisions.
func (c *Cluster) runScheduler(now sim.Time) {
	for _, d := range c.sched.Schedule(now) {
		if c.tracer != nil {
			if o, ok := c.cacheMgr.Ord(d.GPU); ok {
				// Ord is captured here, at dispatch: by completion time a
				// draining GPU may already have left the fleet.
				c.tracer.OnDispatch(d.Req.ID, d.GPU, int(o), d.Req.Visits(), d.FromLocalQueue, d.ExpectHit, d.Req.Attempt)
				for _, m := range d.Batch {
					c.tracer.OnDispatch(m.ID, d.GPU, int(o), m.Visits(), d.FromLocalQueue, d.ExpectHit, m.Attempt)
				}
			}
		}
		_, dropped, err := c.mgrByDev[d.GPU].ExecuteBatch(d.Req, d.Batch, d.GPU, now)
		if err != nil {
			// A failed dispatch (quota, OOM-impossible model) drops every
			// member of the launch; the paper's system returns an error
			// to the user.
			c.dropRequest(d.Req.ID, err)
			for _, m := range d.Batch {
				c.dropRequest(m.ID, err)
			}
			continue
		}
		for _, m := range dropped {
			c.dropRequest(m.ID, errBatchMemberQuota)
		}
		if c.seriesRec != nil {
			c.obsInFlight += d.Members() - len(dropped)
		}
	}
	// Linger (Config.BatchWait): when the scheduler held the queue head
	// waiting for same-model companions, arm a wake-up so the decision
	// is revisited at the deadline even if no other event fires first.
	if wake, ok := c.sched.PendingWake(); ok {
		c.armBatchWake(wake)
	}
	if c.seriesRec != nil {
		c.seriesTick(now)
	}
}

// errBatchMemberQuota is the drop reason for a batch member excluded by
// its tenant's quota while the rest of the launch proceeded.
var errBatchMemberQuota = errors.New("cluster: batch member dropped by tenant quota")

// dropReason classifies a drop cause for the split failure counters.
// The reason set is closed (Reasons below) so the gateway can
// pre-register every labeled counter at zero.
func dropReason(err error) string {
	switch {
	case errors.Is(err, errBatchMemberQuota):
		return "batch_member_quota"
	case errors.Is(err, errRetryExhausted):
		return "retry_exhausted"
	case errors.Is(err, errGPUFault):
		return "fault"
	case errors.Is(err, gpumgr.ErrQuota):
		return "quota"
	default:
		return "other"
	}
}

// Reasons is the closed set of drop-reason labels Report.FailedByReason
// (and the gateway's labeled failure counters) may carry.
var Reasons = []string{"batch_member_quota", "fault", "other", "quota", "retry_exhausted"}

// dropRequest records one failed-to-execute dispatch.
func (c *Cluster) dropRequest(id int64, err error) {
	c.failed++
	if c.failedByReason == nil {
		c.failedByReason = make(map[string]int64)
	}
	c.failedByReason[dropReason(err)]++
	c.tracer.Drop(id)
	if c.stream != nil {
		c.stream.release(id)
	}
	if c.onDrop != nil {
		c.onDrop(id, err)
	}
}

// armBatchWake schedules a scheduler re-run at the linger deadline,
// deduplicating against an already-armed earlier-or-equal wake.
func (c *Cluster) armBatchWake(at sim.Time) {
	if c.batchWakeArmed && c.batchWakeAt <= at {
		return
	}
	c.batchWakeArmed = true
	c.batchWakeAt = at
	d := at - c.clock.Now()
	if d < 0 {
		d = 0
	}
	sim.AfterFunc(c.clock, d, "cluster.batchWake", func(now sim.Time) {
		c.batchWakeArmed = false
		c.runScheduler(now)
	})
}

// seriesTick emits any due time-series samples. The Due pre-check keeps
// the per-event cost at one comparison; the O(fleet) state probes run
// only when an interval boundary was actually crossed.
func (c *Cluster) seriesTick(now sim.Time) {
	if !c.seriesRec.Due(time.Duration(now)) {
		return
	}
	cm := c.cacheMgr.Metrics()
	c.seriesRec.Tick(time.Duration(now), c.sched.PendingTotal(), len(c.idle), c.obsInFlight,
		cm.Requests, cm.Misses, c.completed)
}

// Submit enqueues one request and runs the scheduler; the live gateway
// path. The request's Arrival must be set by the caller (gateway receipt
// time).
//
// Live callers read the clock before they reach c.mu, so two of them can
// get here in the opposite order of their stamps. The lock is the queue's
// real order: on an external clock a stamp older than the queue tail's is
// moved up to it (microseconds of skew) instead of failing the invoke.
// Simulated replay keeps the scheduler's strict check.
func (c *Cluster) Submit(req *core.Request) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.engine == nil {
		if tail, ok := c.sched.TailArrival(); ok && req.Arrival < tail {
			req.Arrival = tail
		}
	}
	if err := c.sched.Enqueue(req); err != nil {
		return err
	}
	c.runScheduler(c.clock.Now())
	return nil
}

// Engine returns the discrete-event engine (nil in live mode); tests use
// it to step time manually.
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// ErrLiveMode is returned by RunWorkload on a cluster built with an
// external clock.
var ErrLiveMode = errors.New("cluster: RunWorkload requires the simulated clock")

// RunWorkload injects the request stream into the discrete-event engine,
// runs the simulation to completion, and returns the metrics report.
func (c *Cluster) RunWorkload(reqs []trace.Request) (Report, error) {
	if c.engine == nil {
		return Report{}, ErrLiveMode
	}
	// Inject all arrivals in one batch: a single shared callback and one
	// O(n) heapify instead of a per-request closure allocation plus heap
	// sift. Arrivals before the engine's current time are rejected, as
	// Engine.At did when each arrival was scheduled individually.
	now0 := c.engine.Now()
	// The scheduler's requests live in one slab for the whole run, like the
	// delays: a materialized replay allocates per run, not per arrival.
	delays := make([]sim.Time, len(reqs))
	creqs := make([]core.Request, len(reqs))
	for i := range reqs {
		r := reqs[i]
		if sim.Time(r.Arrival) < now0 {
			return Report{}, fmt.Errorf("%w: at=%v now=%v (arrival)", sim.ErrPastEvent, sim.Time(r.Arrival), now0)
		}
		delays[i] = sim.Time(r.Arrival) - now0
		creqs[i] = core.Request{
			ID:        r.ID,
			Function:  r.Function,
			Model:     r.Model,
			BatchSize: r.BatchSize,
			Arrival:   sim.Time(r.Arrival),
			Tenant:    r.Tenant,
		}
	}
	c.engine.AfterBatch(delays, "arrival", func(i int, now sim.Time) {
		if err := c.sched.Enqueue(&creqs[i]); err != nil {
			c.failed++
			return
		}
		c.runScheduler(now)
	})
	c.engine.Run(0)
	if pending := c.sched.PendingTotal(); pending != 0 {
		return Report{}, fmt.Errorf("cluster: %d requests still pending after drain", pending)
	}
	return c.report(), nil
}

// ArrivalSource feeds a streaming workload replay: Next returns the next
// batch of arrivals in time order (arrival times must be non-decreasing
// across the whole stream and not earlier than the engine clock), or
// false when exhausted. The returned slice is only read until the next
// call, so sources may reuse it. trace.ArrivalStream implements this.
type ArrivalSource interface {
	Next() ([]trace.Request, bool)
}

// streamRun is the state of one RunWorkloadStream call: the request
// arena, the in-flight table that maps completions back to their pooled
// requests, and the reusable injection buffers.
type streamRun struct {
	src      ArrivalSource
	arena    core.RequestArena
	inflight map[int64]*core.Request
	delays   []sim.Time
	creqs    []*core.Request
	batches  int
	injected int64
	err      error
}

// release recycles a finished (or failed-to-dispatch) request.
func (st *streamRun) release(id int64) {
	if r, ok := st.inflight[id]; ok {
		delete(st.inflight, id)
		st.arena.Put(r)
	}
}

// RunWorkloadStream is RunWorkload for workloads too large to
// materialize: it pulls arrival batches from the source on demand (each
// batch injected through one AfterBatch, with the next pull scheduled at
// the batch's last arrival), recycles completed requests through a
// free-list arena, and reports the run with streaming statistics
// attached. Peak memory is O(in-flight + one batch), independent of the
// trace length. Timestamp ties between a batch's first arrival and
// events scheduled earlier resolve in favor of the earlier event (the
// arrival is injected later); trace.ArrivalStream yields strictly
// increasing arrivals, so its chunking never reorders anything.
func (c *Cluster) RunWorkloadStream(src ArrivalSource) (Report, error) {
	if c.engine == nil {
		return Report{}, ErrLiveMode
	}
	st := &streamRun{src: src, inflight: make(map[int64]*core.Request)}
	c.stream = st
	// The stream detaches when the run ends (either way): a later
	// RunWorkload or live use of this cluster must not recycle through
	// — or report the statistics of — a finished replay.
	defer func() { c.stream = nil }()
	if err := c.injectNext(st); err != nil {
		return Report{}, err
	}
	c.engine.Run(0)
	if st.err != nil {
		return Report{}, st.err
	}
	if pending := c.sched.PendingTotal(); pending != 0 {
		return Report{}, fmt.Errorf("cluster: %d requests still pending after drain", pending)
	}
	return c.report(), nil
}

// injectNext pulls the next non-empty batch from the source and injects
// it into the engine; the follow-up pull fires once the batch's last
// arrival has been delivered (its event seq is right behind the batch,
// so no later-timestamped event runs before the refill).
func (c *Cluster) injectNext(st *streamRun) error {
	var batch []trace.Request
	for {
		b, ok := st.src.Next()
		if !ok {
			return nil
		}
		if len(b) > 0 {
			batch = b
			break
		}
	}
	now0 := c.engine.Now()
	st.delays = st.delays[:0]
	st.creqs = st.creqs[:0]
	last := now0
	for i := range batch {
		r := batch[i]
		// Arrivals must be non-decreasing — within the batch too: the
		// refill event rides on the batch's LAST element, and an
		// out-of-order batch would let it fire (and reuse the shared
		// injection buffers) while earlier-indexed arrivals are still
		// pending. Reject hard, like every other ordering violation.
		if sim.Time(r.Arrival) < last {
			// Release the part of the batch already pooled; nothing was
			// scheduled yet, so the arena stays balanced on abort.
			for _, cr := range st.creqs {
				st.release(cr.ID)
			}
			return fmt.Errorf("%w: at=%v now=%v (arrival)", sim.ErrPastEvent, sim.Time(r.Arrival), last)
		}
		last = sim.Time(r.Arrival)
		cr := st.arena.Get()
		cr.ID = r.ID
		cr.Function = r.Function
		cr.Model = r.Model
		cr.BatchSize = r.BatchSize
		cr.Arrival = sim.Time(r.Arrival)
		cr.Tenant = r.Tenant
		st.inflight[r.ID] = cr
		st.delays = append(st.delays, sim.Time(r.Arrival)-now0)
		st.creqs = append(st.creqs, cr)
	}
	st.batches++
	st.injected += int64(len(batch))
	creqs := st.creqs
	c.engine.AfterBatch(st.delays, "arrival", func(i int, now sim.Time) {
		if err := c.sched.Enqueue(creqs[i]); err != nil {
			c.failed++
			st.release(creqs[i].ID)
			return
		}
		c.runScheduler(now)
	})
	// The injection buffers are reusable after the batch's last arrival
	// has fired, which is exactly when the refill runs.
	c.engine.After(st.delays[len(st.delays)-1], "arrival.refill", func(sim.Time) {
		if err := c.injectNext(st); err != nil && st.err == nil {
			st.err = err
		}
	})
	return nil
}

// StreamStats summarizes a streaming replay for the Report: how much
// arrived, and how small the working set of pooled requests stayed.
type StreamStats struct {
	// Requests and Batches count the injected arrival stream.
	Requests int64
	Batches  int
	// PeakInflight is the high-water mark of concurrently live pooled
	// requests; ArenaAllocated is the number of fresh allocations the
	// arena performed (equal to PeakInflight once warm) and ArenaReused
	// the recycled remainder.
	PeakInflight   int64
	ArenaAllocated int64
	ArenaReused    int64
	// FinalLive is the arena's live count at report time: 0 after a
	// clean drain (omitted from JSON), non-zero only if a request was
	// lost or double-completed — the batching conservation signal.
	FinalLive int64 `json:",omitempty"`
}

// Report is the evaluation summary for one run; field names reference the
// paper's figures.
type Report struct {
	Policy    string
	Requests  int64
	Failed    int64
	Makespan  time.Duration
	EndOfRun  time.Duration
	completed int64

	// AvgLatencySec is Fig. 4a's metric.
	AvgLatencySec float64
	// LatencyVarianceSec2 is the variance discussed in §V-E.
	LatencyVarianceSec2 float64
	P50LatencySec       float64
	P95LatencySec       float64
	P99LatencySec       float64
	MaxLatencySec       float64

	// MissRatio is Fig. 4b; FalseMissRatio is Fig. 5.
	MissRatio      float64
	FalseMissRatio float64
	Misses         int64
	FalseMisses    int64

	// SMUtilization is Fig. 4c: inferring time / wall time averaged over
	// GPUs.
	SMUtilization float64
	// LoadFraction is the fraction of GPU time spent uploading models.
	LoadFraction float64
	// BusyFraction is 1 - idle fraction.
	BusyFraction float64

	// TopModelDuplicates is Fig. 6: the time-averaged number of GPUs
	// caching the tracked model.
	TopModelDuplicates float64

	// Scheduler internals.
	LocalQueueMoves int64
	O3Dispatches    int64
	Starved         int64
	// Batching counters (Config.MaxBatch > 1): how many dispatches
	// coalesced more than one request, and how many member requests rode
	// in them. Zero — and omitted, keeping pre-batching reports
	// byte-identical — when batching is off.
	BatchedDispatches int64 `json:",omitempty"`
	BatchedMembers    int64 `json:",omitempty"`

	// Elasticity accounting (autoscale subsystem). GPUSeconds is the
	// integral of fleet size over the run — the cost metric the
	// elasticity sweep compares against latency. A GPU accrues from the
	// instant it is provisioned (cold starts are paid for) until its
	// decommission completes.
	GPUSeconds float64
	ScaleUps   int64
	ScaleDowns int64
	PeakGPUs   int
	FinalGPUs  int
	// ScaleEvents is the autoscaler's event log (nil without one);
	// deterministic for a fixed trace, seed and policy.
	ScaleEvents []autoscale.ScaleEvent

	// Cost prices the run: Σ per-class GPU-seconds × CostPerSecond over
	// the declared device classes. Zero — and omitted from JSON, which
	// keeps pre-heterogeneity reports byte-identical — when no class
	// carries a cost.
	Cost float64 `json:",omitempty"`
	// ClassUsage is the per-device-class breakdown in fleet-spec order;
	// nil for clusters built from the homogeneous Nodes × GPUsPerNode
	// default.
	ClassUsage []ClassUsage `json:",omitempty"`

	// OrdBound is one past the highest GPU registration ordinal ever
	// assigned. Ordinals are never reused, so OrdBound − FinalGPUs is
	// the dead-ordinal pressure Ord-indexed state pays for (the
	// ROADMAP's "ordinal compaction" signal; also on /system/scale).
	// Excluded from JSON so golden reports stay byte-identical.
	OrdBound int `json:"-"`
	// MaxEventQueueLen is the peak discrete-event queue length over the
	// run and PeakLocalQueue the deepest single GPU local queue — the
	// capacity-planning telemetry pair surfaced by the scale and cell
	// sweeps. Excluded from JSON for the same golden-stability reason as
	// OrdBound.
	MaxEventQueueLen int `json:"-"`
	PeakLocalQueue   int `json:"-"`
	// Streaming carries the streaming-replay statistics; nil on the
	// materialized RunWorkload path (and so omitted from legacy report
	// JSON).
	Streaming *StreamStats `json:",omitempty"`
	// Breakdown is the queue-wait / load / service latency decomposition
	// (Config.Obs.Breakdown); nil — and omitted, keeping goldens
	// byte-identical — when the collector is off.
	Breakdown *obs.Breakdown `json:",omitempty"`
	// Series is the fixed-interval telemetry (Config.Obs.Series); nil
	// when the recorder is off.
	Series *obs.Series `json:",omitempty"`
	// SampledSpans counts the lifecycle spans recorded by the tracer
	// (Config.Obs.Trace); zero — and omitted — when tracing is off.
	SampledSpans int64 `json:",omitempty"`

	// Fault-injection accounting (Config.Chaos / Config.Retry). Failures
	// counts GPU crash events, Interrupted the in-flight execution
	// attempts those crashes aborted, Retries the interrupted requests
	// granted another attempt by the retry policy. FailedByReason splits
	// Failed by drop cause (keys from Reasons; maps marshal with sorted
	// keys, so the serialization is deterministic). All zero/nil — and
	// omitted, keeping fault-free reports byte-identical — without
	// faults.
	Failures       int64            `json:",omitempty"`
	Interrupted    int64            `json:",omitempty"`
	Retries        int64            `json:",omitempty"`
	FailedByReason map[string]int64 `json:",omitempty"`
}

// report snapshots the metrics (sim mode, after drain).
func (c *Cluster) report() Report {
	now := c.lastFinish
	rep := Report{
		Policy:              c.sched.Policy().String(),
		Requests:            c.completed,
		Failed:              c.failed,
		Makespan:            time.Duration(now),
		EndOfRun:            time.Duration(now),
		AvgLatencySec:       c.latencies.Mean(),
		LatencyVarianceSec2: c.latencies.Variance(),
		P50LatencySec:       c.latencies.Percentile(50),
		P95LatencySec:       c.latencies.Percentile(95),
		P99LatencySec:       c.latencies.Percentile(99),
		MaxLatencySec:       c.latencies.Max(),
	}
	cm := c.cacheMgr.Metrics()
	rep.MissRatio = cm.MissRatio
	rep.FalseMissRatio = cm.FalseMissRatio
	rep.Misses = cm.Misses
	rep.FalseMisses = cm.FalseMisses

	// Utilization is time-weighted over every member that ever served:
	// current GPUs through `now` plus the phase durations of removed
	// members (folded in at decommission time). For a fixed fleet all
	// member lifetimes are equal, so this matches the paper's per-GPU
	// average; for an elastic fleet it weights each member by the
	// GPU-time it actually contributed instead of letting short-lived
	// transients dominate an unweighted mean.
	idleT, loadT, inferT := c.remIdle, c.remLoading, c.remInferring
	for _, id := range c.gpuIDs {
		u := c.devByID[id].Utilization(now)
		idleT += u.Idle
		loadT += u.Loading
		inferT += u.Inferring
	}
	if total := float64(idleT + loadT + inferT); total > 0 {
		rep.SMUtilization = float64(inferT) / total
		rep.LoadFraction = float64(loadT) / total
		rep.BusyFraction = float64(loadT+inferT) / total
	}

	if c.topModel != "" {
		rep.TopModelDuplicates = c.cacheMgr.TrackedAverage(c.topModel, now)
	}
	sc := c.sched.Counters()
	rep.LocalQueueMoves = sc.LocalQueueMoves
	rep.O3Dispatches = sc.O3Dispatches
	rep.Starved = sc.Starved
	rep.PeakLocalQueue = sc.PeakLocalQueue
	rep.BatchedDispatches = sc.BatchedDispatches
	rep.BatchedMembers = sc.BatchedMembers
	if c.engine != nil {
		rep.MaxEventQueueLen = c.engine.MaxQueueLen()
	}

	// GPU-seconds integrate through the clock's now (autoscaler ticks
	// may outlive the last completion); removed members were already
	// accumulated at removal time.
	end := c.clock.Now()
	if end < now {
		end = now
	}
	rep.GPUSeconds = c.gpuSeconds
	classSecs := make(map[string]float64, len(c.classSeconds))
	classFinal := make(map[string]int, len(c.fleet))
	for t, s := range c.classSeconds {
		classSecs[t] = s
	}
	for _, id := range c.gpuIDs {
		secs := time.Duration(end - c.addedAt[id]).Seconds()
		rep.GPUSeconds += secs
		t := c.devByID[id].Type()
		classSecs[t] += secs
		classFinal[t]++
	}
	for _, class := range c.fleet {
		rep.Cost += classSecs[class.Type] * class.CostPerSecond
	}
	if c.declaredFleet {
		rep.ClassUsage = make([]ClassUsage, len(c.fleet))
		for i, class := range c.fleet {
			rep.ClassUsage[i] = ClassUsage{
				Class:      class.Type,
				GPUSeconds: classSecs[class.Type],
				Cost:       classSecs[class.Type] * class.CostPerSecond,
				PeakGPUs:   c.classPeak[class.Type],
				FinalGPUs:  classFinal[class.Type],
			}
		}
	}
	rep.ScaleUps = c.scaleUps
	rep.ScaleDowns = c.scaleDowns
	rep.PeakGPUs = c.peakGPUs
	rep.FinalGPUs = len(c.gpuIDs)
	rep.OrdBound = int(c.cacheMgr.OrdBound())
	if c.scaler != nil {
		rep.ScaleEvents = c.scaler.Events()
	}
	if st := c.stream; st != nil {
		as := st.arena.Stats()
		rep.Streaming = &StreamStats{
			Requests:       st.injected,
			Batches:        st.batches,
			PeakInflight:   as.PeakLive,
			ArenaAllocated: as.Allocated,
			ArenaReused:    as.Reused,
			FinalLive:      as.Live,
		}
	}
	if c.breakdown != nil {
		rep.Breakdown = c.breakdown.Breakdown()
	}
	if c.seriesRec != nil {
		// Flush boundaries the tail of the run crossed without a
		// subsequent event (the final partial interval stays unreported,
		// like any fixed-interval sampler's).
		c.seriesTick(now)
		rep.Series = c.seriesRec.Series()
	}
	if c.tracer != nil {
		rep.SampledSpans = int64(c.tracer.Len())
	}
	rep.Failures = c.failures
	rep.Interrupted = c.interrupted
	rep.Retries = c.retries
	if len(c.failedByReason) > 0 {
		rep.FailedByReason = make(map[string]int64, len(c.failedByReason))
		for k, v := range c.failedByReason {
			rep.FailedByReason[k] = v
		}
	}
	return rep
}

// ClassStatuses returns the live per-device-class breakdown (counts by
// lifecycle state, accrued GPU-seconds, cost), in fleet-spec order. Like
// FleetCounts it takes the cluster mutex — not for use from result hooks
// or status sinks.
func (c *Cluster) ClassStatuses() []ClassStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	sizes := (*fleetView)(c).ClassSizes()
	end := c.clock.Now()
	if end < c.lastFinish {
		end = c.lastFinish
	}
	classSecs := make(map[string]float64, len(c.classSeconds))
	for t, s := range c.classSeconds {
		classSecs[t] = s
	}
	for _, id := range c.gpuIDs {
		classSecs[c.devByID[id].Type()] += time.Duration(end - c.addedAt[id]).Seconds()
	}
	out := make([]ClassStatus, len(sizes))
	for i, cs := range sizes {
		out[i] = ClassStatus{
			Class:         cs.Class,
			Active:        cs.Active,
			Provisioning:  cs.Provisioning,
			Draining:      cs.Draining,
			Idle:          cs.Idle,
			GPUSeconds:    classSecs[cs.Class],
			CostPerSecond: cs.CostPerSecond,
			Cost:          classSecs[cs.Class] * cs.CostPerSecond,
		}
	}
	return out
}

// Fleet returns the normalized device-class mix the cluster was built
// with (a single DefaultGPUType class for homogeneous configs).
func (c *Cluster) Fleet() FleetSpec {
	out := make(FleetSpec, len(c.fleet))
	copy(out, c.fleet)
	return out
}

// Results returns retained completion records (KeepResults must be on).
func (c *Cluster) Results() []gpumgr.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]gpumgr.Result, len(c.results))
	copy(out, c.results)
	return out
}

// Completed returns the number of finished requests.
func (c *Cluster) Completed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed
}

// RunStats carries the raw per-run observations behind a Report's
// summary statistics — the exact latency sample, the fleet-wide phase
// durations, and the cache-lookup denominator — so a multi-cell roll-up
// can merge percentiles, utilization and miss ratios exactly instead of
// approximating from per-cell summaries.
type RunStats struct {
	// Latencies are the per-request latencies in seconds (a copy of the
	// full sample, order unspecified).
	Latencies []float64
	// Idle, Loading and Inferring are phase durations summed over every
	// member that ever served, including decommissioned GPUs.
	Idle, Loading, Inferring time.Duration
	// CacheRequests is the lookup count behind Report.MissRatio (its
	// denominator; Report.Misses is the numerator).
	CacheRequests int64
	// Breakdown holds the raw latency-decomposition samples when
	// Config.Obs.Breakdown is on (nil otherwise): multicell merges the
	// raw components and recomputes exact fleet-wide quantiles.
	Breakdown *obs.RawBreakdown
	// Series is this cell's time-series when Config.Obs.Series is on.
	Series *obs.Series
}

// RunStats returns the raw observations for exact cross-cell merging.
func (c *Cluster) RunStats() RunStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.lastFinish
	rs := RunStats{
		Latencies:     c.latencies.Values(),
		CacheRequests: c.cacheMgr.Metrics().Requests,
	}
	rs.Idle, rs.Loading, rs.Inferring = c.remIdle, c.remLoading, c.remInferring
	for _, id := range c.gpuIDs {
		u := c.devByID[id].Utilization(now)
		rs.Idle += u.Idle
		rs.Loading += u.Loading
		rs.Inferring += u.Inferring
	}
	rs.Breakdown = c.breakdown.Raw()
	rs.Series = c.seriesRec.Series()
	return rs
}

// Spans returns the lifecycle spans recorded so far (nil unless
// Config.Obs.Trace is on), in completion order.
func (c *Cluster) Spans() []obs.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer.Spans()
}

// Snapshot returns a live metrics snapshot (live gateway's status page).
func (c *Cluster) Snapshot() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := c.report()
	rep.EndOfRun = time.Duration(c.clock.Now())
	return rep
}

// GPUFailures returns the cumulative per-GPU crash counts (the gateway's
// labeled failure gauges). Crashed devices stay in the map after they
// leave the fleet — the counter is history, not membership.
func (c *Cluster) GPUFailures() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.gpuFailures))
	for k, v := range c.gpuFailures {
		out[k] = v
	}
	return out
}

// SchedulableGPUs returns the number of currently schedulable (active,
// non-draining) GPUs — the gateway's readiness signal: a cell with zero
// is unschedulable.
func (c *Cluster) SchedulableGPUs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.gpuState {
		if s == gpuActive {
			n++
		}
	}
	return n
}

// PerModelMeanLatency returns each model's mean end-to-end latency.
func (c *Cluster) PerModelMeanLatency() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.perModel))
	for m, w := range c.perModel {
		out[m] = w.Mean()
	}
	return out
}
