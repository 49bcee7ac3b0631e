// Package gpu models the GPU devices of the FaaS cluster. A Device is a
// passive state machine tracking exactly the quantities the paper's
// scheduling problem is defined over (§II-B, §III-C):
//
//   - device memory: models occupy GPU memory while resident; admitting a
//     model beyond capacity is an OOM and is rejected (the Cache Manager
//     must evict victims first);
//   - execution: one inference request at a time per GPU (§III-C "GPU
//     Manager enforces each GPU to run one request at a time"); a request
//     passes through an optional Loading phase (PCIe upload on a cache
//     miss) followed by an Inferring phase;
//   - SM utilization: the streaming multiprocessors are busy only during
//     the Inferring phase — "the SM utilization remains zero until the
//     victim model becomes evicted and the new model is uploaded" (§V-C);
//   - estimated finish time of the in-flight request, which the LALB
//     scheduler compares against model-load times (§IV-A).
//
// Devices carry no clock; the GPU Manager advances them at event
// boundaries, which keeps the same code exact under the discrete-event
// engine and the live gateway.
package gpu

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gpufaas/internal/sim"
)

// Phase is the device's activity state.
type Phase int

// Device phases. Loading and Inferring both make the device busy; only
// Inferring counts toward SM utilization.
const (
	Idle Phase = iota
	Loading
	Inferring
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Idle:
		return "idle"
	case Loading:
		return "loading"
	case Inferring:
		return "inferring"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Errors reported by Device operations.
var (
	ErrOOM         = errors.New("gpu: out of memory")
	ErrBusy        = errors.New("gpu: device busy")
	ErrNotResident = errors.New("gpu: model not resident")
	ErrResident    = errors.New("gpu: model already resident")
	ErrInUse       = errors.New("gpu: model in use by in-flight request")
	ErrIdle        = errors.New("gpu: device idle")
)

// Inflight describes the request currently executing on a device.
type Inflight struct {
	ReqID    int64
	Model    string
	Start    sim.Time
	FinishAt sim.Time
	// LoadUntil is when the Loading phase ends (== Start on a cache hit).
	LoadUntil sim.Time
}

// Device is one GPU. It is not safe for concurrent use; the owning GPU
// Manager serializes access.
type Device struct {
	id       string
	node     string
	gpuType  string
	capacity int64

	memUsed  int64
	resident map[string]int64 // model -> occupancy bytes
	loadedAt map[string]sim.Time

	phase      Phase
	phaseSince sim.Time
	accum      [3]time.Duration
	busy       bool
	inflight   Inflight // valid while busy

	completed int64
}

// Config describes a device to create.
type Config struct {
	ID       string
	Node     string
	Type     string
	Capacity int64 // bytes of GPU memory
	// CreatedAt anchors the phase/utilization accounting: a GPU
	// provisioned mid-run (elastic scale-up) must not be charged idle
	// time for the epoch before it existed. Zero is the run epoch.
	CreatedAt sim.Time
}

// New creates an idle device with the given memory capacity.
func New(cfg Config) (*Device, error) {
	if cfg.ID == "" {
		return nil, errors.New("gpu: empty device ID")
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("gpu: non-positive capacity %d for %s", cfg.Capacity, cfg.ID)
	}
	return &Device{
		id:         cfg.ID,
		node:       cfg.Node,
		gpuType:    cfg.Type,
		capacity:   cfg.Capacity,
		phaseSince: cfg.CreatedAt,
		resident:   make(map[string]int64),
		loadedAt:   make(map[string]sim.Time),
	}, nil
}

// ID returns the device identifier.
func (d *Device) ID() string { return d.id }

// Node returns the host node name.
func (d *Device) Node() string { return d.node }

// Type returns the GPU type used for profile lookup.
func (d *Device) Type() string { return d.gpuType }

// Capacity returns total device memory in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// MemUsed returns bytes occupied by resident models.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemFree returns unoccupied bytes.
func (d *Device) MemFree() int64 { return d.capacity - d.memUsed }

// Busy reports whether a request is executing.
func (d *Device) Busy() bool { return d.busy }

// Phase returns the current activity phase.
func (d *Device) Phase() Phase { return d.phase }

// Inflight returns a copy of the in-flight descriptor, or false when idle.
func (d *Device) Inflight() (Inflight, bool) {
	if !d.busy {
		return Inflight{}, false
	}
	return d.inflight, true
}

// Completed returns the number of requests finished on this device.
func (d *Device) Completed() int64 { return d.completed }

// Resident reports whether the model is loaded in device memory.
func (d *Device) Resident(model string) bool {
	_, ok := d.resident[model]
	return ok
}

// ResidentModels returns the resident model names, sorted for determinism.
func (d *Device) ResidentModels() []string {
	out := make([]string, 0, len(d.resident))
	for m := range d.resident {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// ResidentSize returns the occupancy of a resident model in bytes.
func (d *Device) ResidentSize(model string) (int64, bool) {
	sz, ok := d.resident[model]
	return sz, ok
}

// Admit marks a model resident, charging its occupancy against device
// memory. It fails with ErrOOM when the model does not fit — the caller
// (Cache Manager via GPU Manager) must evict victims first; the device
// never silently over-commits, which is the paper's no-OOM invariant.
func (d *Device) Admit(model string, bytes int64, now sim.Time) error {
	if bytes <= 0 {
		return fmt.Errorf("gpu: non-positive model size %d", bytes)
	}
	if _, ok := d.resident[model]; ok {
		return fmt.Errorf("%w: %s on %s", ErrResident, model, d.id)
	}
	if d.memUsed+bytes > d.capacity {
		return fmt.Errorf("%w: %s needs %d, free %d on %s", ErrOOM, model, bytes, d.MemFree(), d.id)
	}
	d.resident[model] = bytes
	d.loadedAt[model] = now
	d.memUsed += bytes
	return nil
}

// Evict removes a resident model, freeing its memory. The model used by
// the in-flight request cannot be evicted (the GPU Manager would be
// killing the process serving a live request).
func (d *Device) Evict(model string) error {
	sz, ok := d.resident[model]
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrNotResident, model, d.id)
	}
	if d.busy && d.inflight.Model == model {
		return fmt.Errorf("%w: %s on %s", ErrInUse, model, d.id)
	}
	delete(d.resident, model)
	delete(d.loadedAt, model)
	d.memUsed -= sz
	return nil
}

func (d *Device) setPhase(p Phase, now sim.Time) {
	if now > d.phaseSince {
		d.accum[d.phase] += time.Duration(now - d.phaseSince)
	}
	d.phase = p
	d.phaseSince = now
}

// Begin starts executing a request. The model must already be resident
// (Admit first on a miss). loadTime > 0 models the PCIe upload phase of a
// cache miss; zero means a cache hit that reuses the warm process. The
// device is busy until now+loadTime+inferTime.
func (d *Device) Begin(reqID int64, model string, loadTime, inferTime time.Duration, now sim.Time) (finishAt sim.Time, err error) {
	if d.busy {
		return 0, fmt.Errorf("%w: %s already runs req %d", ErrBusy, d.id, d.inflight.ReqID)
	}
	if _, ok := d.resident[model]; !ok {
		return 0, fmt.Errorf("%w: %s on %s (Admit before Begin)", ErrNotResident, model, d.id)
	}
	if loadTime < 0 || inferTime <= 0 {
		return 0, fmt.Errorf("gpu: invalid times load=%v infer=%v", loadTime, inferTime)
	}
	loadUntil := now + loadTime
	finishAt = loadUntil + inferTime
	d.busy = true
	d.inflight = Inflight{ReqID: reqID, Model: model, Start: now, FinishAt: finishAt, LoadUntil: loadUntil}
	if loadTime > 0 {
		d.setPhase(Loading, now)
	} else {
		d.setPhase(Inferring, now)
	}
	return finishAt, nil
}

// LoadDone transitions a loading device to the inferring phase. The GPU
// Manager calls it when the upload completes.
func (d *Device) LoadDone(now sim.Time) error {
	if !d.busy {
		return ErrIdle
	}
	if d.phase != Loading {
		return fmt.Errorf("gpu: LoadDone in phase %v on %s", d.phase, d.id)
	}
	d.setPhase(Inferring, now)
	return nil
}

// Interrupt abandons the in-flight request without counting it as
// completed: the device (or its host) failed mid-flight. The partial
// attempt's phase time folds into the utilization accumulators — the
// GPU really did burn those seconds — but `completed` stays untouched,
// so GPU-seconds are charged exactly once per attempt while completions
// count only finished work. The descriptor is returned so the caller
// (cluster failure path) can re-queue or fail the member requests.
func (d *Device) Interrupt(now sim.Time) (Inflight, error) {
	if !d.busy {
		return Inflight{}, ErrIdle
	}
	d.busy = false
	d.setPhase(Idle, now)
	return d.inflight, nil
}

// Complete finishes the in-flight request, returning the device to idle.
func (d *Device) Complete(now sim.Time) (Inflight, error) {
	if !d.busy {
		return Inflight{}, ErrIdle
	}
	if d.phase == Loading {
		// A zero-length inference would be invalid; callers sequence
		// LoadDone before Complete. Tolerate exact coincidence.
		d.setPhase(Inferring, now)
	}
	d.busy = false
	d.completed++
	d.setPhase(Idle, now)
	d.loadedAt[d.inflight.Model] = now
	return d.inflight, nil
}

// EstimatedFinish returns when the in-flight request will complete; zero
// duration when idle. This feeds the LALB finish-time comparison.
func (d *Device) EstimatedFinish(now sim.Time) time.Duration {
	if !d.busy || d.inflight.FinishAt <= now {
		return 0
	}
	return time.Duration(d.inflight.FinishAt - now)
}

// Utilization summarizes how the device spent its time up to now.
type Utilization struct {
	Idle, Loading, Inferring time.Duration
	Total                    time.Duration
}

// SM returns the SM-utilization fraction: inferring time over total time.
func (u Utilization) SM() float64 {
	if u.Total <= 0 {
		return 0
	}
	return float64(u.Inferring) / float64(u.Total)
}

// BusyFraction returns the fraction of time the device was not idle.
func (u Utilization) BusyFraction() float64 {
	if u.Total <= 0 {
		return 0
	}
	return float64(u.Loading+u.Inferring) / float64(u.Total)
}

// Utilization reports the phase breakdown through `now`.
func (d *Device) Utilization(now sim.Time) Utilization {
	acc := d.accum
	if now > d.phaseSince {
		acc[d.phase] += time.Duration(now - d.phaseSince)
	}
	u := Utilization{Idle: acc[Idle], Loading: acc[Loading], Inferring: acc[Inferring]}
	u.Total = u.Idle + u.Loading + u.Inferring
	return u
}

// CheckInvariants verifies internal consistency; tests and the property
// suite call it after every operation.
func (d *Device) CheckInvariants() error {
	var sum int64
	for m, sz := range d.resident {
		if sz <= 0 {
			return fmt.Errorf("gpu: resident %s has size %d", m, sz)
		}
		sum += sz
	}
	if sum != d.memUsed {
		return fmt.Errorf("gpu: memUsed %d != resident sum %d", d.memUsed, sum)
	}
	if d.memUsed > d.capacity {
		return fmt.Errorf("gpu: over capacity: %d > %d", d.memUsed, d.capacity)
	}
	if d.busy {
		if _, ok := d.resident[d.inflight.Model]; !ok {
			return fmt.Errorf("gpu: in-flight model %s not resident", d.inflight.Model)
		}
		if d.phase == Idle {
			return errors.New("gpu: busy device in idle phase")
		}
	} else if d.phase != Idle {
		return fmt.Errorf("gpu: idle device in phase %v", d.phase)
	}
	return nil
}
