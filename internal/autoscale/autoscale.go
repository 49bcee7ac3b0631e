// Package autoscale implements elastic cluster membership control: a
// policy-driven autoscaler that provisions and decommissions GPUs while
// the locality-aware scheduler keeps running. The paper evaluates LALB /
// LALB+O3 on a fixed 12-GPU fleet; serving heavy, time-varying traffic at
// production scale additionally requires the fleet itself to track load
// (diurnal cycles, bursts, scale-to-zero cost), which is what this
// subsystem adds.
//
// The Autoscaler is a passive component on the shared Clock abstraction:
// every Interval it samples a Signal (queue depth, idle ratio, windowed
// p95 latency) from the Fleet, asks its Policy for a desired fleet size,
// clamps the answer to [MinGPUs, MaxGPUs], and issues scale-up /
// scale-down operations. Under the discrete-event engine the whole loop
// is deterministic: the same trace, seed and policy produce byte-identical
// ScaleEvent logs at any worker count. Under the wall clock the cluster's
// mutex serializes ticks with the rest of the system.
//
// Scale-down is drain-before-remove (the Kubernetes GPU-scheduler idiom):
// a decommissioned GPU first becomes unschedulable, finishes its in-flight
// and parked work, has its cache residents evicted through the ordinary
// insert/evict event stream (so the global index and the idle set stay
// consistent), and only then leaves the membership. Scale-up pays a
// configurable cold-start delay before the new GPU becomes schedulable.
package autoscale

import (
	"errors"
	"fmt"
	"time"

	"gpufaas/internal/sim"
	"gpufaas/internal/stats"
)

// Size is the fleet's membership breakdown at a sampling instant.
type Size struct {
	// Active GPUs are schedulable (neither provisioning nor draining).
	Active int
	// Provisioning GPUs were added but are still in their cold-start
	// window.
	Provisioning int
	// Draining GPUs are finishing in-flight/parked work before removal.
	Draining int
	// Idle is the number of Active GPUs with no request executing.
	Idle int
}

// Fleet is the autoscaler's view of the cluster; the cluster harness
// implements it. Methods are invoked from within clock callbacks, so the
// harness's usual serialization (event loop in sim mode, cluster mutex in
// live mode) already applies.
type Fleet interface {
	// FleetSize returns the current membership breakdown.
	FleetSize() Size
	// PendingRequests returns queued requests (global + local queues).
	PendingRequests() int
	// ScaleUp provisions n GPUs, each schedulable after coldStart; it
	// returns the new GPU IDs (possibly fewer than n on error).
	ScaleUp(n int, coldStart time.Duration) []string
	// ScaleDown drain-decommissions up to n GPUs and returns their IDs.
	// The fleet picks victims deterministically (provisioning first,
	// then idle, then busy; newest first within each class).
	ScaleDown(n int) []string
}

// ClassSize is one device class's membership breakdown.
type ClassSize struct {
	// Class is the device class (GPU type).
	Class string
	Size
	// CostPerSecond is the class's declared price per GPU-second (0
	// when the fleet declares none).
	CostPerSecond float64
}

// ClassedFleet is implemented by fleets declared as a mix of device
// classes (cluster.FleetSpec). Class-aware policies (Tiered) require it;
// class-agnostic policies keep working against the plain Fleet view.
type ClassedFleet interface {
	Fleet
	// ClassSizes returns the per-class breakdown in fleet-spec order.
	ClassSizes() []ClassSize
	// ScaleUpClass provisions n GPUs of the given class; coldStart is
	// the fallback delay for classes that declare no ColdStart of their
	// own. Returns the new GPU IDs (possibly fewer than n on error).
	ScaleUpClass(class string, n int, coldStart time.Duration) []string
	// ScaleDownClass drain-decommissions up to n GPUs of the given
	// class, with the same deterministic victim order as ScaleDown.
	ScaleDownClass(class string, n int) []string
}

// FaultyFleet is optionally implemented by fleets that track GPU crash
// events (fault injection); the sampled cumulative count lands in
// Signal.FailedGPUs so policies and the event log see the capacity a
// run has lost to failures.
type FaultyFleet interface {
	Fleet
	// FailedGPUs returns the cumulative number of GPU crash events.
	FailedGPUs() int
}

// Signal is one evaluation-tick sample, the policy's input.
type Signal struct {
	// At is the virtual (or wall-offset) sampling time.
	At sim.Time `json:"at"`
	// QueueDepth is the number of queued requests (global + local).
	QueueDepth int `json:"queueDepth"`
	// Active/Provisioning/Draining/Idle mirror Size.
	Active       int `json:"active"`
	Provisioning int `json:"provisioning"`
	Draining     int `json:"draining"`
	Idle         int `json:"idle"`
	// IdleRatio is Idle / Active (0 when the fleet is empty).
	IdleRatio float64 `json:"idleRatio"`
	// P95LatencySec is the 95th-percentile end-to-end latency of the
	// requests that completed since the previous tick (0 when none did).
	P95LatencySec float64 `json:"p95LatencySec"`
	// Completions is how many requests finished since the previous tick.
	Completions int `json:"completions"`
	// Classes is the per-device-class breakdown in fleet-spec order;
	// nil when the fleet is not class-aware (homogeneous clusters built
	// without a FleetSpec).
	Classes []ClassSignal `json:"classes,omitempty"`
	// FailedGPUs is the cumulative GPU crash count (FaultyFleet); zero —
	// and omitted, keeping fault-free ScaleEvent logs byte-identical —
	// without fault injection.
	FailedGPUs int `json:"failedGPUs,omitempty"`
}

// ClassSignal is one device class's slice of a Signal.
type ClassSignal struct {
	Class        string `json:"class"`
	Active       int    `json:"active"`
	Provisioning int    `json:"provisioning"`
	Draining     int    `json:"draining"`
	Idle         int    `json:"idle"`
}

// Decision is a policy's verdict for one tick.
type Decision struct {
	// Target is the desired number of non-draining GPUs
	// (active + provisioning). It is clamped to [MinGPUs, MaxGPUs].
	Target int
	// Reason explains the verdict; it lands in the ScaleEvent log.
	Reason string
}

// Policy maps a Signal to a desired fleet size. Implementations may keep
// state (hysteresis counters) but must be deterministic functions of the
// signal sequence: no wall-clock or randomness.
type Policy interface {
	Name() string
	Decide(sig Signal) Decision
}

// ClassTarget is one device class's desired size.
type ClassTarget struct {
	Class  string
	Target int
}

// ClassDecision is a class-aware policy's verdict: per-class targets in
// the order they should be reconciled.
type ClassDecision struct {
	Targets []ClassTarget
	Reason  string
}

// ClassPolicy is a Policy that additionally makes a provisioning
// decision: not just how many GPUs, but of which device class. The
// autoscaler uses DecideClasses when (and only when) the fleet is a
// ClassedFleet; Decide is the degraded single-class fallback.
type ClassPolicy interface {
	Policy
	DecideClasses(sig Signal) ClassDecision
}

// ClassRequirer is implemented by policies that target specific device
// classes (Tiered). New validates the requirement against the fleet at
// construction: a misspelled or undeclared class would otherwise make
// the autoscaler a silent no-op (unknown-class targets are dropped at
// reconcile time).
type ClassRequirer interface {
	// RequiredClasses lists the device classes the policy addresses.
	RequiredClasses() []string
}

// ClonablePolicy is implemented by stateful policies. New clones the
// policy at construction so a Config shared across clusters never shares
// mutable decision state (which would corrupt hysteresis counters and
// race between clusters).
type ClonablePolicy interface {
	Policy
	Clone() Policy
}

// ScaleEvent records one executed scaling operation.
type ScaleEvent struct {
	At     sim.Time `json:"at"`
	Action string   `json:"action"` // "scale-up" | "scale-down"
	Delta  int      `json:"delta"`  // GPUs requested (+up / -down)
	From   int      `json:"from"`   // non-draining fleet size before
	To     int      `json:"to"`     // non-draining fleet size after
	Reason string   `json:"reason"`
	GPUs   []string `json:"gpus"` // affected GPU IDs
	// Class is the device class the operation targeted; empty for
	// class-agnostic operations (legacy policies), which keeps
	// pre-heterogeneity event logs byte-identical.
	Class string `json:"class,omitempty"`
}

// Actions recorded in ScaleEvent.Action.
const (
	ActionScaleUp   = "scale-up"
	ActionScaleDown = "scale-down"
)

// Config assembles an Autoscaler.
type Config struct {
	// Policy decides the target fleet size each tick. Required.
	Policy Policy
	// Interval between evaluation ticks (default 5s of virtual time).
	Interval time.Duration
	// MinGPUs / MaxGPUs bound the fleet (defaults 1 / no bound).
	MinGPUs int
	MaxGPUs int
	// ColdStart is the provisioning delay before a scaled-up GPU
	// becomes schedulable.
	ColdStart time.Duration
	// Horizon stops evaluation ticks after this virtual time. It is
	// required in simulated-time mode — a forever-rescheduling tick
	// would keep the discrete-event queue nonempty and RunWorkload
	// would never drain. Zero means no horizon (live mode only).
	Horizon time.Duration
	// MaxEvents bounds the retained scale-event log: once exceeded, the
	// oldest events are dropped (TotalEvents keeps the lifetime count).
	// A long-lived live gateway under flapping load would otherwise
	// grow the log without bound. Zero means DefaultMaxEvents;
	// experiment runs stay far below the default, so Report event logs
	// keep their determinism contract.
	MaxEvents int
}

// DefaultInterval is the evaluation tick period when Config.Interval is
// zero.
const DefaultInterval = 5 * time.Second

// DefaultMaxEvents is the retained scale-event log bound when
// Config.MaxEvents is zero.
const DefaultMaxEvents = 4096

// Autoscaler drives a Fleet from a Policy. It is a passive component:
// not safe for concurrent use, serialized by the harness like the
// scheduler and cache manager.
type Autoscaler struct {
	cfg   Config
	fleet Fleet
	clock sim.Clock

	enabled bool
	stopped bool
	cancel  func()

	window      *stats.Sample // latencies since the previous tick
	last        Signal
	ticks       int64
	events      []ScaleEvent
	totalEvents int64
	started     bool
}

// New validates the config and builds an Autoscaler. Call Start to begin
// ticking.
func New(fleet Fleet, clock sim.Clock, cfg Config) (*Autoscaler, error) {
	if fleet == nil {
		return nil, errors.New("autoscale: nil fleet")
	}
	if clock == nil {
		return nil, errors.New("autoscale: nil clock")
	}
	if cfg.Policy == nil {
		return nil, errors.New("autoscale: nil policy")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.MinGPUs <= 0 {
		cfg.MinGPUs = 1
	}
	if cfg.MaxGPUs > 0 && cfg.MaxGPUs < cfg.MinGPUs {
		return nil, fmt.Errorf("autoscale: MaxGPUs %d < MinGPUs %d", cfg.MaxGPUs, cfg.MinGPUs)
	}
	if cfg.ColdStart < 0 || cfg.Horizon < 0 {
		return nil, fmt.Errorf("autoscale: negative ColdStart/Horizon")
	}
	if cp, ok := cfg.Policy.(ClonablePolicy); ok {
		cfg.Policy = cp.Clone()
	}
	if cr, ok := cfg.Policy.(ClassRequirer); ok {
		cf, classed := fleet.(ClassedFleet)
		if !classed {
			return nil, fmt.Errorf("autoscale: policy %s requires a class-aware fleet", cfg.Policy.Name())
		}
		declared := make(map[string]bool)
		for _, cs := range cf.ClassSizes() {
			declared[cs.Class] = true
		}
		for _, class := range cr.RequiredClasses() {
			if !declared[class] {
				return nil, fmt.Errorf("autoscale: policy %s requires device class %q, which the fleet does not declare", cfg.Policy.Name(), class)
			}
		}
	}
	if cfg.MaxEvents < 0 {
		return nil, fmt.Errorf("autoscale: negative MaxEvents %d", cfg.MaxEvents)
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &Autoscaler{
		cfg:     cfg,
		fleet:   fleet,
		clock:   clock,
		enabled: true,
		window:  stats.NewSample(256),
	}, nil
}

// Config returns the autoscaler's effective configuration.
func (a *Autoscaler) Config() Config { return a.cfg }

// Start schedules the first evaluation tick. It is idempotent.
func (a *Autoscaler) Start() {
	if a.started || a.stopped {
		return
	}
	a.started = true
	a.schedule()
}

// Stop cancels the pending tick; the autoscaler will not evaluate again.
func (a *Autoscaler) Stop() {
	a.stopped = true
	if a.cancel != nil {
		a.cancel()
		a.cancel = nil
	}
}

// SetEnabled pauses (false) or resumes (true) scaling decisions. Ticks
// keep sampling signals while paused so a re-enabled policy sees fresh
// state.
func (a *Autoscaler) SetEnabled(on bool) { a.enabled = on }

// Enabled reports whether scaling decisions are being executed.
func (a *Autoscaler) Enabled() bool { return a.enabled }

// ObserveLatency feeds one completed request's end-to-end latency into
// the current tick window; the harness calls it from its completion hook.
func (a *Autoscaler) ObserveLatency(seconds float64) { a.window.Add(seconds) }

// Ticks returns the number of evaluations performed.
func (a *Autoscaler) Ticks() int64 { return a.ticks }

// LastSignal returns the most recent tick's sampled signal.
func (a *Autoscaler) LastSignal() Signal { return a.last }

// Events returns a copy of the retained scale-event log (the most
// recent MaxEvents), in execution order.
func (a *Autoscaler) Events() []ScaleEvent {
	out := make([]ScaleEvent, len(a.events))
	copy(out, a.events)
	return out
}

// TotalEvents returns the lifetime count of executed scaling operations,
// including any dropped from the retained log.
func (a *Autoscaler) TotalEvents() int64 { return a.totalEvents }

// record appends a scale event, dropping the oldest beyond MaxEvents.
func (a *Autoscaler) record(ev ScaleEvent) {
	a.totalEvents++
	if len(a.events) >= a.cfg.MaxEvents {
		n := copy(a.events, a.events[len(a.events)-a.cfg.MaxEvents+1:])
		a.events = a.events[:n]
	}
	a.events = append(a.events, ev)
}

func (a *Autoscaler) schedule() {
	a.cancel = sim.AfterFunc(a.clock, a.cfg.Interval, "autoscale.tick", a.tick)
}

func (a *Autoscaler) tick(now sim.Time) {
	a.cancel = nil
	a.Evaluate(now)
	if a.stopped {
		return
	}
	if a.cfg.Horizon > 0 && now+a.cfg.Interval > a.cfg.Horizon {
		return // past the horizon: let the event queue drain
	}
	a.schedule()
}

// Evaluate performs one evaluation: sample the signal, consult the
// policy, execute the clamped decision. It is exported so benchmarks and
// admin endpoints can drive a tick outside the timer.
func (a *Autoscaler) Evaluate(now sim.Time) Signal {
	size := a.fleet.FleetSize()
	sig := Signal{
		At:           now,
		QueueDepth:   a.fleet.PendingRequests(),
		Active:       size.Active,
		Provisioning: size.Provisioning,
		Draining:     size.Draining,
		Idle:         size.Idle,
		Completions:  a.window.N(),
	}
	if size.Active > 0 {
		sig.IdleRatio = float64(size.Idle) / float64(size.Active)
	}
	if sig.Completions > 0 {
		sig.P95LatencySec = a.window.Percentile(95)
	}
	if ff, ok := a.fleet.(FaultyFleet); ok {
		sig.FailedGPUs = ff.FailedGPUs()
	}
	cf, classed := a.fleet.(ClassedFleet)
	var classes []ClassSize
	if classed {
		classes = cf.ClassSizes()
		sig.Classes = make([]ClassSignal, len(classes))
		for i, cs := range classes {
			sig.Classes[i] = ClassSignal{
				Class:        cs.Class,
				Active:       cs.Active,
				Provisioning: cs.Provisioning,
				Draining:     cs.Draining,
				Idle:         cs.Idle,
			}
		}
	}
	a.window.Reset()
	a.last = sig
	a.ticks++
	if !a.enabled {
		return sig
	}

	if cp, ok := a.cfg.Policy.(ClassPolicy); ok && classed {
		a.evaluateClassed(now, sig, cp, cf, classes)
		return sig
	}

	d := a.cfg.Policy.Decide(sig)
	target := d.Target
	if target < a.cfg.MinGPUs {
		target = a.cfg.MinGPUs
	}
	if a.cfg.MaxGPUs > 0 && target > a.cfg.MaxGPUs {
		target = a.cfg.MaxGPUs
	}
	current := size.Active + size.Provisioning
	switch {
	case target > current:
		n := target - current
		if a.cfg.MaxGPUs > 0 {
			// MaxGPUs caps the PHYSICAL fleet: draining GPUs still
			// occupy machines (and bill GPU-seconds) until their
			// in-flight work finishes, so scale-up may not overshoot
			// the ceiling while they wind down.
			if room := a.cfg.MaxGPUs - (current + size.Draining); room < n {
				n = room
			}
		}
		if n <= 0 {
			return sig
		}
		gpus := a.fleet.ScaleUp(n, a.cfg.ColdStart)
		if len(gpus) > 0 {
			a.record(ScaleEvent{
				At: now, Action: ActionScaleUp, Delta: len(gpus),
				From: current, To: current + len(gpus),
				Reason: d.Reason, GPUs: gpus,
			})
		}
	case target < current:
		gpus := a.fleet.ScaleDown(current - target)
		if len(gpus) > 0 {
			a.record(ScaleEvent{
				At: now, Action: ActionScaleDown, Delta: -len(gpus),
				From: current, To: current - len(gpus),
				Reason: d.Reason, GPUs: gpus,
			})
		}
	}
	return sig
}

// evaluateClassed reconciles per-class targets from a class-aware
// policy. The global MinGPUs/MaxGPUs bounds still apply, to the summed
// non-draining (floor) and physical (ceiling) fleet: per-class deltas
// are trimmed in decision order once a bound is hit. The fleet size is
// re-sampled before each operation — an earlier scale-down in the same
// tick may have put GPUs into the draining state (or removed idle ones
// outright), and clamping against the pre-tick snapshot would let
// scale-ups overshoot the physical ceiling.
func (a *Autoscaler) evaluateClassed(now sim.Time, sig Signal, cp ClassPolicy, cf ClassedFleet, classes []ClassSize) {
	d := cp.DecideClasses(sig)
	byClass := make(map[string]ClassSize, len(classes))
	for _, cs := range classes {
		byClass[cs.Class] = cs
	}
	for _, t := range d.Targets {
		cs, ok := byClass[t.Class]
		if !ok {
			continue // target for a class the fleet does not declare
		}
		current := cs.Active + cs.Provisioning
		target := t.Target
		if target < 0 {
			target = 0
		}
		live := cf.FleetSize()
		fleet := live.Active + live.Provisioning // summed non-draining fleet
		switch {
		case target > current:
			n := target - current
			if a.cfg.MaxGPUs > 0 {
				// MaxGPUs caps the PHYSICAL fleet across all classes:
				// draining GPUs still occupy machines (and bill
				// GPU-seconds) until their in-flight work finishes.
				if room := a.cfg.MaxGPUs - (fleet + live.Draining); room < n {
					n = room
				}
			}
			if n <= 0 {
				continue
			}
			gpus := cf.ScaleUpClass(t.Class, n, a.cfg.ColdStart)
			if len(gpus) > 0 {
				// From/To keep the documented semantics (summed
				// non-draining fleet size); Class carries the tier.
				a.record(ScaleEvent{
					At: now, Action: ActionScaleUp, Delta: len(gpus),
					From: fleet, To: fleet + len(gpus),
					Reason: d.Reason, GPUs: gpus, Class: t.Class,
				})
			}
		case target < current:
			n := current - target
			// MinGPUs floors the summed non-draining fleet.
			if fleet-n < a.cfg.MinGPUs {
				n = fleet - a.cfg.MinGPUs
			}
			if n <= 0 {
				continue
			}
			gpus := cf.ScaleDownClass(t.Class, n)
			if len(gpus) > 0 {
				a.record(ScaleEvent{
					At: now, Action: ActionScaleDown, Delta: -len(gpus),
					From: fleet, To: fleet - len(gpus),
					Reason: d.Reason, GPUs: gpus, Class: t.Class,
				})
			}
		}
	}
}

// Status is a read-only snapshot for admin endpoints.
type Status struct {
	Policy      string        `json:"policy"`
	Enabled     bool          `json:"enabled"`
	Interval    time.Duration `json:"interval"`
	MinGPUs     int           `json:"minGPUs"`
	MaxGPUs     int           `json:"maxGPUs"`
	ColdStart   time.Duration `json:"coldStart"`
	Ticks       int64         `json:"ticks"`
	LastSignal  Signal        `json:"lastSignal"`
	TotalEvents int64         `json:"totalEvents"`
	Events      []ScaleEvent  `json:"events"`
}

// Status snapshots the autoscaler for reporting.
func (a *Autoscaler) Status() Status {
	return Status{
		Policy:      a.cfg.Policy.Name(),
		Enabled:     a.enabled,
		Interval:    a.cfg.Interval,
		MinGPUs:     a.cfg.MinGPUs,
		MaxGPUs:     a.cfg.MaxGPUs,
		ColdStart:   a.cfg.ColdStart,
		Ticks:       a.ticks,
		LastSignal:  a.last,
		TotalEvents: a.totalEvents,
		Events:      a.Events(),
	}
}
