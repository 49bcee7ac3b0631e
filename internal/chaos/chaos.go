// Package chaos is a deterministic, seed-driven fault injector for the
// simulated GPU fleet. It schedules three event kinds on the shared sim
// clock:
//
//   - crashes: a GPU fails instantly (no drain) — sampled per device
//     from an exponential MTBF, or scripted explicitly;
//   - stragglers: a transient slowdown window (thermal throttle, noisy
//     neighbor) multiplying the device's service times by a factor,
//     stacking on the batch-aware service-time model;
//   - recoveries: the cluster re-adds capacity MTTR after a crash (the
//     injector signals the crash; the owning cluster schedules the
//     replacement).
//
// Determinism contract: every sampled fault time is a pure function of
// (Seed, device ordinal, event index) — the same splitmix64 trick as
// the observability sampler and the multi-cell router replay — so the
// fault schedule is byte-identical at any worker count and under K>1
// cell sharding (each cell owns a private injector over its own dense
// ordinals). No global RNG state exists to race on.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gpufaas/internal/sim"
)

// FaultKind selects what a scripted fault does to its target device.
type FaultKind int

// Scripted fault kinds.
const (
	// Crash fails the device instantly: in-flight work is interrupted,
	// residents evict, capacity drops without a drain.
	Crash FaultKind = iota
	// Straggle opens a slowdown window on the device: launches
	// dispatched inside [At, At+Window) run Factor× slower.
	Straggle
)

// String returns the kind name.
func (k FaultKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggle:
		return "straggle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scripted fault: an explicit (time, device) entry used by
// tests and targeted scenarios instead of (or alongside) MTBF sampling.
type Fault struct {
	// At is the fault instant as an offset from the run epoch.
	At time.Duration
	// Ord is the target device's dense registration ordinal. A fault
	// whose ordinal is not live when it fires is a no-op.
	Ord int
	// Kind selects crash vs straggler.
	Kind FaultKind
	// Factor is the straggler slowdown multiplier (> 1); ignored for
	// crashes.
	Factor float64
	// Window is the straggler duration; ignored for crashes.
	Window time.Duration
}

// Config describes the fault model. The zero value injects nothing.
type Config struct {
	// Seed drives every sampled fault time. Two runs with the same
	// seed, fleet and workload produce byte-identical fault schedules.
	Seed uint64

	// MTBF is the per-device mean time between crash faults (sampled
	// exponentially, independently per device ordinal). Zero disables
	// sampled crashes.
	MTBF time.Duration

	// MTTR is the mean-time-to-repair: the cluster re-adds a same-class
	// replacement (cold cache, fresh ordinal) this long after each
	// crash. Zero disables recovery — crashed capacity stays lost.
	MTTR time.Duration

	// StragglerEvery is the per-device mean interval between slowdown
	// windows (exponentially sampled). Zero disables stragglers.
	StragglerEvery time.Duration
	// StragglerFactor is the service-time multiplier inside a window
	// (must be > 1 when StragglerEvery is set).
	StragglerFactor float64
	// StragglerWindow is each window's length (must be > 0 when
	// StragglerEvery is set).
	StragglerWindow time.Duration

	// Script schedules explicit faults, evaluated alongside any
	// sampling. Entries must be sorted by At (validated).
	Script []Fault

	// Horizon bounds the schedule: no fault, window or recovery chain
	// event is scheduled at or beyond it. Mandatory when MTBF or
	// StragglerEvery is set — the crash→recover→crash and straggler
	// window chains are otherwise endless and the simulation would
	// never drain. Experiments set it to the trace length plus slack.
	Horizon time.Duration
}

// Enabled reports whether the config injects anything at all.
func (c *Config) Enabled() bool {
	return c != nil && (c.MTBF > 0 || c.StragglerEvery > 0 || len(c.Script) > 0)
}

// Validate checks the config's internal consistency.
func (c *Config) Validate() error {
	if c == nil || !c.Enabled() {
		return nil
	}
	if c.MTBF < 0 || c.MTTR < 0 || c.StragglerEvery < 0 || c.StragglerWindow < 0 || c.Horizon < 0 {
		return errors.New("chaos: negative duration in config")
	}
	if (c.MTBF > 0 || c.StragglerEvery > 0) && c.Horizon == 0 {
		return errors.New("chaos: sampled faults require a Horizon")
	}
	if c.StragglerEvery > 0 {
		if c.StragglerFactor <= 1 {
			return fmt.Errorf("chaos: straggler factor %v must be > 1", c.StragglerFactor)
		}
		if c.StragglerWindow <= 0 {
			return errors.New("chaos: straggler window must be > 0")
		}
	}
	var prev time.Duration
	for i, f := range c.Script {
		if f.At < prev {
			return fmt.Errorf("chaos: script fault %d at %v out of order", i, f.At)
		}
		prev = f.At
		if f.Kind == Straggle && (f.Factor <= 1 || f.Window <= 0) {
			return fmt.Errorf("chaos: script straggler %d needs factor > 1 and window > 0", i)
		}
	}
	return nil
}

// Hooks are the injector's effect callbacks, supplied by the owning
// cluster. They run on the shared clock (the cluster's lock discipline
// applies in live mode). Fail receives a crash; SetSlowdown opens
// (factor > 1) and closes (factor == 1) straggler windows.
type Hooks struct {
	Fail        func(gpuID string, now sim.Time)
	SetSlowdown func(gpuID string, factor float64, now sim.Time)
}

// Injector schedules the configured faults for one cluster (or one
// cell). Not safe for concurrent use; the owning cluster serializes.
type Injector struct {
	cfg   Config
	clock sim.Clock
	hooks Hooks

	devs map[int]*devState

	faults     int64
	stragglers int64
}

// devState tracks one live device's pending fault timers so removal
// (crash, decommission) cancels them — a timer must never fire against
// a reused ordinal or a departed device.
type devState struct {
	id      string
	cancels []func()
	stragK  uint64 // next straggler sample index for this ordinal
}

// NewInjector builds an injector. The cluster calls Start once and
// DeviceAdded/DeviceRemoved as fleet membership changes.
func NewInjector(cfg Config, clock sim.Clock, hooks Hooks) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, errors.New("chaos: nil clock")
	}
	if hooks.Fail == nil || hooks.SetSlowdown == nil {
		return nil, errors.New("chaos: nil hook")
	}
	return &Injector{cfg: cfg, clock: clock, hooks: hooks, devs: make(map[int]*devState)}, nil
}

// Counters reports how many faults and straggler windows fired.
func (in *Injector) Counters() (faults, stragglers int64) {
	return in.faults, in.stragglers
}

// Start schedules the scripted faults. Call once, after the boot fleet
// is registered.
func (in *Injector) Start(now sim.Time) {
	for _, f := range in.cfg.Script {
		f := f
		at := sim.Time(f.At)
		if at < now || (in.cfg.Horizon > 0 && at >= sim.Time(in.cfg.Horizon)) {
			continue
		}
		// Script timers are not per-device (the target may not exist yet
		// at schedule time); the fire-time ordinal lookup makes a fault
		// against a departed or never-live ordinal a no-op.
		sim.AfterFunc(in.clock, at-now, "chaos.script", func(at sim.Time) {
			d, ok := in.devs[f.Ord]
			if !ok {
				return
			}
			switch f.Kind {
			case Crash:
				in.faults++
				in.hooks.Fail(d.id, at)
			case Straggle:
				in.openWindow(f.Ord, d, f.Factor, f.Window, at)
			}
		})
	}
}

// DeviceAdded registers a live device and schedules its sampled faults:
// at most one crash (a crash removes the device) and the first
// straggler window of its chain, both pure functions of (Seed, ord).
func (in *Injector) DeviceAdded(ord int, gpuID string, now sim.Time) {
	d := &devState{id: gpuID}
	in.devs[ord] = d
	if in.cfg.MTBF > 0 {
		at := now + sim.Time(expSample(in.cfg.MTBF, in.streamU64(ord, streamCrash, 0)))
		if at < sim.Time(in.cfg.Horizon) {
			cancel := sim.AfterFunc(in.clock, at-now, "chaos.crash "+gpuID, func(at sim.Time) {
				in.faults++
				in.hooks.Fail(gpuID, at)
			})
			d.cancels = append(d.cancels, cancel)
		}
	}
	if in.cfg.StragglerEvery > 0 {
		in.armStraggler(ord, d, now)
	}
}

// DeviceRemoved cancels the device's pending fault timers. The cluster
// calls it from every removal path — crash, drain, decommission.
func (in *Injector) DeviceRemoved(ord int) {
	d, ok := in.devs[ord]
	if !ok {
		return
	}
	for _, c := range d.cancels {
		c()
	}
	delete(in.devs, ord)
}

// armStraggler schedules the device's next slowdown window start.
func (in *Injector) armStraggler(ord int, d *devState, now sim.Time) {
	at := now + sim.Time(expSample(in.cfg.StragglerEvery, in.streamU64(ord, streamStrag, d.stragK)))
	d.stragK++
	if at >= sim.Time(in.cfg.Horizon) {
		return
	}
	cancel := sim.AfterFunc(in.clock, at-now, "chaos.straggle "+d.id, func(at sim.Time) {
		in.openWindow(ord, d, in.cfg.StragglerFactor, in.cfg.StragglerWindow, at)
	})
	d.cancels = append(d.cancels, cancel)
}

// openWindow applies a slowdown window: factor now, restore at
// now+window, then re-arm the sampled chain (the restore may land past
// the horizon — harmless, it only ever shortens service times — but no
// new window starts beyond it, so the chain terminates).
func (in *Injector) openWindow(ord int, d *devState, factor float64, window time.Duration, now sim.Time) {
	in.stragglers++
	in.hooks.SetSlowdown(d.id, factor, now)
	end := now + sim.Time(window)
	cancel := sim.AfterFunc(in.clock, end-now, "chaos.restore "+d.id, func(at sim.Time) {
		in.hooks.SetSlowdown(d.id, 1, at)
		if in.cfg.StragglerEvery > 0 {
			in.armStraggler(ord, d, at)
		}
	})
	d.cancels = append(d.cancels, cancel)
}

// Stream salts separating the per-device sample streams.
const (
	streamCrash uint64 = 0x632D6372617368 // "c-crash"
	streamStrag uint64 = 0x632D7374726167 // "c-strag"
)

// streamU64 returns the k-th uniform of a device's sample stream: a
// splitmix64 output keyed by (Seed, ordinal, stream, k). Stateless, so
// the schedule never depends on evaluation order.
func (in *Injector) streamU64(ord int, stream, k uint64) uint64 {
	x := in.cfg.Seed
	x ^= (uint64(ord) + 1) * 0x9E3779B97F4A7C15
	x ^= stream * 0xD1342543DE82EF95
	x += (k + 1) * 0xBF58476D1CE4E5B9
	return splitmix64(x)
}

// splitmix64 is the finalizer used throughout the repo for deterministic
// hashing (obs sampling, router replay).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// expSample maps a uniform to an exponential inter-arrival time with
// the given mean via the inverse CDF. The uniform is shifted into
// (0, 1] so the log argument is never zero.
func expSample(mean time.Duration, u uint64) time.Duration {
	f := (float64(u>>11) + 1) / (1 << 53)
	return time.Duration(-float64(mean) * math.Log(f))
}
