// Package sim implements the discrete-event simulation engine that drives
// the GPU-FaaS cluster in simulated-time mode. The engine provides a
// deterministic virtual clock and a priority event queue; all scheduling,
// caching and GPU-execution components are passive state machines that the
// engine calls back at event boundaries.
//
// Determinism: events with equal timestamps are delivered in the order they
// were scheduled (FIFO tie-breaking via a monotone sequence number), so a
// simulation with a fixed workload and seed always produces identical
// results — a property the test suite relies on.
//
// The queue is an inlined 4-ary index heap over a free-list-pooled event
// arena: scheduling an event reuses a slot instead of allocating, and the
// heap orders int32 slot indices instead of container/heap's boxed `any`
// values. Handles are generation-stamped so Cancel stays a safe no-op
// after the slot has fired and been reused.
//
// Components reach the engine through Clock, which the wall clock also
// implements for the live gateway. A clock's one scheduling primitive is
// the reusable Timer: a callback bound once, then armed and stopped any
// number of times without allocating (an engine event with a stored func
// here, one runtime timer under RealClock). AfterFunc is the one-shot
// convenience on top of it.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is virtual simulation time measured from the start of the run.
type Time = time.Duration

// Handle identifies a scheduled event. The zero Handle is "no event";
// cancelling it is a no-op. Handles stay safe after their event fires or
// is cancelled: the underlying arena slot's generation is bumped on
// release, so a stale Handle can never touch the slot's next occupant.
type Handle struct {
	slot int32
	gen  uint32
}

// eventSlot is one arena entry. Slots are recycled through a free list;
// gen disambiguates incarnations.
type eventSlot struct {
	fn   func(now Time)
	bfn  func(i int, now Time) // batch callback (AfterBatch); nil otherwise
	name string
	at   Time
	seq  uint64
	gen  uint32 // current incarnation; starts at 1 so Handle{} never matches
	pos  int32  // heap position, -1 when not queued
	bidx int32  // batch element index (with bfn)
}

// heapArity is the branching factor of the event queue. A 4-ary heap
// halves the tree depth of the binary heap, trading slightly more sibling
// comparisons per level for far fewer cache-missing levels — the winning
// trade for sift-down-dominated workloads like Step.
const heapArity = 4

// Engine is a single-threaded discrete-event loop. It is not safe for
// concurrent use; the live (real-time) FaaS path uses goroutines and a wall
// clock instead of this engine.
type Engine struct {
	now    Time
	slots  []eventSlot
	free   []int32 // free-list of recyclable slot indices
	heap   []int32 // 4-ary min-heap of slot indices, keyed by (at, seq)
	seq    uint64
	fired  uint64
	maxLen int
}

// New returns an empty engine at virtual time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events delivered so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.heap) }

// MaxQueueLen returns the high-water mark of the event queue.
func (e *Engine) MaxQueueLen() int { return e.maxLen }

// Scheduled reports whether the event behind the handle is still queued
// (it has neither fired nor been cancelled).
func (e *Engine) Scheduled(h Handle) bool {
	if h.slot < 0 || int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	return s.gen == h.gen && s.pos >= 0
}

// ErrPastEvent is returned when scheduling an event before the current
// virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// alloc takes a slot from the free list (or grows the arena) and fills in
// the ordering key; the caller sets the callback fields.
func (e *Engine) alloc(at Time, name string) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{gen: 1})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at = at
	s.name = name
	s.seq = e.seq
	e.seq++
	return idx
}

// release returns a slot to the free list. The generation bump kills every
// outstanding Handle to this incarnation, and the callback references are
// dropped so captured state is collectable while the slot sits free.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.bfn = nil
	s.name = ""
	s.gen++
	s.pos = -1
	e.free = append(e.free, idx)
}

// less orders slots by (at, seq): timestamp first, FIFO tie-break.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// siftUp restores the heap property from position i toward the root.
func (e *Engine) siftUp(i int) {
	idx := e.heap[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := e.heap[parent]
		if !e.less(idx, p) {
			break
		}
		e.heap[i] = p
		e.slots[p].pos = int32(i)
		i = parent
	}
	e.heap[i] = idx
	e.slots[idx].pos = int32(i)
}

// siftDown restores the heap property from position i toward the leaves.
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	idx := e.heap[i]
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		b := e.heap[best]
		if !e.less(b, idx) {
			break
		}
		e.heap[i] = b
		e.slots[b].pos = int32(i)
		i = best
	}
	e.heap[i] = idx
	e.slots[idx].pos = int32(i)
}

// push queues a filled slot.
func (e *Engine) push(idx int32) {
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	if len(e.heap) > e.maxLen {
		e.maxLen = len(e.heap)
	}
}

// removeAt unlinks the heap entry at position i, restoring heap order.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.heap[i] = last
	e.slots[last].pos = int32(i)
	e.siftDown(i)
	e.siftUp(i)
}

// At schedules fn at absolute virtual time t and returns a handle that can
// be cancelled. Scheduling in the past is an error: virtual time never runs
// backwards.
func (e *Engine) At(t Time, name string, fn func(now Time)) (Handle, error) {
	if t < e.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v (%s)", ErrPastEvent, t, e.now, name)
	}
	idx := e.alloc(t, name)
	e.slots[idx].fn = fn
	e.push(idx)
	return Handle{slot: idx, gen: e.slots[idx].gen}, nil
}

// After schedules fn after delay d from the current time. Negative delays
// are clamped to zero (fires at the current time, after already-queued
// same-time events).
func (e *Engine) After(d Time, name string, fn func(now Time)) Handle {
	if d < 0 {
		d = 0
	}
	h, _ := e.At(e.now+d, name, fn) // cannot be in the past by construction
	return h
}

// AfterBatch schedules fn(i, now) at now+delays[i] for every element of
// delays, equivalent to — but cheaper than — a loop of After calls with
// per-element closures: the batch shares one callback, and the heap is
// rebuilt once (Floyd heapify, O(n)) instead of sifting per event.
// Delivery order matches the sequential-After equivalent exactly: ties
// fire in slice order. Negative delays are clamped to zero, like After.
func (e *Engine) AfterBatch(delays []Time, name string, fn func(i int, now Time)) {
	if len(delays) == 0 {
		return
	}
	// Reserve contiguously where possible; slots may still come from the
	// free list. The headroom is for the timers armed while the batch
	// drains: an exact fit would have the first of them that finds the free
	// list empty double the whole arena.
	if cap(e.slots)-len(e.slots) < len(delays)-len(e.free) {
		grown := make([]eventSlot, len(e.slots), len(e.slots)+len(delays)+len(delays)/8+16)
		copy(grown, e.slots)
		e.slots = grown
	}
	if cap(e.heap)-len(e.heap) < len(delays) {
		grown := make([]int32, len(e.heap), len(e.heap)+len(delays))
		copy(grown, e.heap)
		e.heap = grown
	}
	for i, d := range delays {
		if d < 0 {
			d = 0
		}
		idx := e.alloc(e.now+d, name)
		s := &e.slots[idx]
		s.bfn = fn
		s.bidx = int32(i)
		e.heap = append(e.heap, idx)
		s.pos = int32(len(e.heap) - 1)
	}
	// Floyd heapify: the internal layout differs from sequential pushes,
	// but pop order is fully determined by the (at, seq) total order.
	for i := (len(e.heap) - 2) / heapArity; i >= 0; i-- {
		e.siftDown(i)
	}
	if len(e.heap) > e.maxLen {
		e.maxLen = len(e.heap)
	}
}

// Cancel removes a pending event. It is a no-op if the event already fired
// or was cancelled (the generation stamp makes stale handles inert even
// after the arena slot is reused).
func (e *Engine) Cancel(h Handle) {
	if h.slot < 0 || int(h.slot) >= len(e.slots) {
		return
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.pos < 0 {
		return
	}
	e.removeAt(int(s.pos))
	e.release(h.slot)
}

// Step delivers the next event, advancing virtual time to its timestamp.
// It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	idx := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = last
		e.slots[last].pos = 0
		e.siftDown(0)
	}
	// Copy the callback out and recycle the slot before invoking, so the
	// callback may schedule (and reuse the arena) freely and a Cancel of
	// this event from within it is a clean no-op.
	s := &e.slots[idx]
	at, fn, bfn, bidx := s.at, s.fn, s.bfn, s.bidx
	e.release(idx)
	e.now = at
	e.fired++
	if bfn != nil {
		bfn(int(bidx), at)
	} else {
		fn(at)
	}
	return true
}

// Run delivers events until the queue empties or the event budget is
// exhausted. A budget <= 0 means unlimited. It returns the number of events
// delivered by this call.
func (e *Engine) Run(budget uint64) uint64 {
	var n uint64
	for (budget <= 0 || n < budget) && e.Step() {
		n++
	}
	return n
}

// RunUntil delivers events with timestamps <= deadline; the clock is left at
// min(deadline, time of last event). Events scheduled beyond the deadline
// remain queued.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var n uint64
	for len(e.heap) > 0 && e.slots[e.heap[0]].at <= deadline {
		e.Step()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// Clock abstracts "what time is it" and "call me later" so that the
// scheduler, cache manager and GPU managers run identically under the
// discrete-event engine (benchmarks) and the wall clock (live gateway).
// NewTimer is each clock's one scheduling primitive; AfterFunc is the
// one-shot form built on it.
type Clock interface {
	// Now returns the current time as an offset from the run epoch.
	Now() Time
	// NewTimer returns a stopped timer bound to fn. Arming it allocates
	// nothing, so a component that schedules the same callback again and
	// again (the GPU manager's completion per launch) keeps one timer
	// instead of building a closure and a cancel func per call.
	NewTimer(name string, fn func(now Time)) Timer
}

// Timer is a reusable "call me later". It fires at most once per Reset.
// A timer is not safe for concurrent use: its owner serializes Reset and
// Stop (the callback touches no timer state, so it may run concurrently
// with them).
type Timer interface {
	// Reset arms the timer to fire d from now, replacing a pending firing.
	// A negative d fires as soon as possible.
	Reset(d Time)
	// Stop cancels a pending firing; otherwise it is a no-op. Under
	// SimClock a stopped timer never fires. Under RealClock a firing whose
	// goroutine has already started cannot be recalled, so callbacks that
	// can race a Stop check their own state (the GPU manager's completion
	// ignores a firing that finds no launch due).
	Stop()
}

// AfterFunc runs fn once, d from now on c's clock. The returned cancel
// func stops a pending call; calling it after firing is a no-op.
func AfterFunc(c Clock, d Time, name string, fn func(now Time)) (cancel func()) {
	t := c.NewTimer(name, fn)
	t.Reset(d)
	return t.Stop
}

// SimClock adapts Engine to the Clock interface.
type SimClock struct{ E *Engine }

// Now returns the engine's virtual time.
func (c SimClock) Now() Time { return c.E.Now() }

// NewTimer returns a timer that schedules fn on the engine. Each Reset is
// one engine event, so timers reset at the same instant fire in reset
// order.
func (c SimClock) NewTimer(name string, fn func(now Time)) Timer {
	return &simTimer{e: c.E, name: name, fn: fn}
}

type simTimer struct {
	e    *Engine
	name string
	fn   func(now Time)
	h    Handle // generation-stamped: stale once the event fires or is cancelled
}

func (t *simTimer) Reset(d Time) {
	t.e.Cancel(t.h)
	t.h = t.e.After(d, t.name, t.fn)
}

func (t *simTimer) Stop() { t.e.Cancel(t.h) }

// RealClock implements Clock over the wall clock. Callbacks run on timer
// goroutines; components that use RealClock must be mutex-protected (the
// live FaaS path locks around every scheduler entry point).
type RealClock struct {
	Epoch time.Time
}

// NewRealClock returns a RealClock rooted at the current instant.
func NewRealClock() *RealClock { return &RealClock{Epoch: time.Now()} }

// Now returns the elapsed wall time since the epoch.
func (c *RealClock) Now() Time { return time.Since(c.Epoch) }

// NewTimer returns a timer that runs fn on a timer goroutine. The runtime
// timer is created by the first Reset and reused by every later one.
func (c *RealClock) NewTimer(_ string, fn func(now Time)) Timer {
	return &realTimer{c: c, fn: fn}
}

type realTimer struct {
	c  *RealClock
	fn func(now Time)
	t  *time.Timer
}

func (t *realTimer) fire() { t.fn(t.c.Now()) }

func (t *realTimer) Reset(d Time) {
	if t.t == nil {
		t.t = time.AfterFunc(d, t.fire)
		return
	}
	t.t.Reset(d)
}

func (t *realTimer) Stop() {
	if t.t != nil {
		t.t.Stop()
	}
}
