// Package core implements the paper's primary contribution: the global
// function Scheduler with its three policies (§IV):
//
//   - LB — the baseline load-balancing scheduler: "simply dispatches the
//     request at the head of the global queue whenever a GPU becomes idle"
//     (§V-A);
//   - LALB — locality-aware load balancing (Algorithm 1 + Algorithm 2):
//     prefer idle GPUs that already cache the request's model; when only a
//     busy GPU caches it, compare that GPU's estimated finish time against
//     the model-load time and queue locally when the busy hit wins;
//   - LALB+O3 — LALB with out-of-order dispatch: a waiting request whose
//     model is cached on an idle GPU may be dispatched ahead of earlier
//     arrivals, bounded by a starvation limit (default 25 skips, §IV-B).
//
// The Scheduler maintains the paper's queue topology (Fig. 3): one
// system-wide global queue ordered by arrival, plus one local queue per
// GPU holding requests that were scheduled to a busy GPU and wait there.
// When a GPU becomes idle it always serves its local queue before the
// global queue (Algorithm 1 lines 2–4).
//
// The Scheduler is a passive decision engine: Schedule(now) inspects the
// cluster through the Backend interface and returns the dispatch decisions
// for the harness (simulated or live) to execute. It is not safe for
// concurrent use; callers serialize.
//
// Hot-path representation: GPUs are identified by dense registration
// ordinals (ordset.Ord, interned once at cluster registration) rather
// than strings. Per-GPU state — local queues, queue-time sums, the
// draining set, the per-round taken set — lives in Ord-indexed slices and
// an epoch-stamped array instead of map[string]s, the global queue is a
// ring-buffer deque with tombstoned O(1) mid-queue removal, and the
// dispatch slice is pooled across Schedule calls.
//
// Placement selection is indexed: a per-model list of queued positions
// answers "first queued request whose model is cached on this GPU" in
// O(distinct queued models) instead of an O(queue) walk, the
// LocalityLoadBalance idle-holder pick walks the smaller of (idle set,
// holder list), and the busy-holder finish-time argmin is memoized per
// (round, model) over round-frozen finish estimates. All of it is
// decision-identical to the straight scan, which is retained behind
// Config.ScanPlacement as the reference baseline (benchmarked as the
// `scan` rows, cross-checked by TestScheduleEquivalence). The load-
// bearing invariant is that a request's out-of-order skip count is
// non-increasing along the live queue — every scan increments a clean
// prefix — so the only position that can trip the starvation limit is
// the queue head, and the skip bump is a uniform prefix increment.
//
// Batching (Config.MaxBatch > 1): whatever request a policy decides to
// dispatch, the scheduler then drains up to MaxBatch-1 further queued
// requests of the same model — in arrival order, via the same per-model
// position index — into the dispatch's Batch, and the harness executes
// the group as one load + one batched inference. Extraction of batch
// members preserves the monotone-skip invariant (a subsequence of a
// non-increasing sequence is non-increasing), so the O3 starvation
// machinery is untouched. MaxBatch <= 1 short-circuits every batching
// branch: the decision sequence is bit-for-bit the legacy one.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gpufaas/internal/ordset"
	"gpufaas/internal/sim"
)

// Ord is the dense GPU registration ordinal (see ordset.Ord). Ordinals
// are assigned monotonically at registration and never reused.
type Ord = ordset.Ord

// Policy selects the scheduling algorithm.
type Policy int

// Scheduling policies.
const (
	// LB is the default load-balancing baseline.
	LB Policy = iota
	// LALB is locality-aware load balancing with in-order dispatch.
	LALB
	// LALBO3 is LALB with out-of-order dispatch.
	LALBO3
)

// String returns the policy name as used in the paper's figures.
func (p Policy) String() string {
	switch p {
	case LB:
		return "LB"
	case LALB:
		return "LALB"
	case LALBO3:
		return "LALBO3"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name to a Policy. Each policy is accepted
// in its canonical upper-case figure spelling ("LB", "LALB", "LALBO3",
// "LALB+O3") or all-lower-case ("lb", "lalb", "lalbo3"); mixed case is
// rejected.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "LB", "lb":
		return LB, nil
	case "LALB", "lalb":
		return LALB, nil
	case "LALBO3", "lalbo3", "LALB+O3":
		return LALBO3, nil
	default:
		return 0, fmt.Errorf("core: unknown policy %q", s)
	}
}

// DefaultO3Limit is the paper's default starvation limit for out-of-order
// dispatch (§IV-B).
const DefaultO3Limit = 25

// Request is a function invocation as seen by the scheduler.
type Request struct {
	ID        int64
	Function  string
	Model     string
	BatchSize int
	Arrival   sim.Time
	Tenant    string

	// Attempt counts execution attempts lost to GPU failures: 0 until
	// the first interrupt, incremented by the harness each time an
	// in-flight attempt is interrupted. The retry policy bounds it.
	Attempt int

	// visits counts how many times this request has been passed over by
	// an out-of-order dispatch (Algorithm 1 line 15).
	visits int
}

// RetryPolicy bounds how many times a request interrupted by a GPU
// failure may be re-executed (§ fault model). GPU-seconds are charged
// per attempt; the policy caps the total attempts, not the charges.
type RetryPolicy struct {
	// MaxAttempts is the total number of execution attempts allowed,
	// first try included. <= 1 disables retry: an interrupted request
	// fails immediately.
	MaxAttempts int
}

// Allows reports whether a request that has lost `attempt` attempts may
// be re-queued for another.
func (p RetryPolicy) Allows(attempt int) bool { return attempt < p.MaxAttempts }

// Enabled reports whether the policy grants any retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Visits returns the request's out-of-order skip count (exported for tests
// and metrics).
func (r *Request) Visits() int { return r.visits }

// Backend is the scheduler's view of the cluster, implemented by the
// cluster harness. All methods are queries; the scheduler performs no
// mutation through it. GPUs are addressed by their dense registration
// ordinal; OrdOf/IDOf translate at the (cold) string boundary.
type Backend interface {
	// Ords returns the current members' ordinals in registration order.
	// Only the no-IdleLister fallback path iterates it.
	Ords() []Ord
	// OrdBound returns one past the highest ordinal ever assigned
	// (monotone; sizes the scheduler's Ord-indexed state).
	OrdBound() Ord
	// OrdOf resolves a GPU ID to its ordinal.
	OrdOf(gpuID string) (Ord, bool)
	// IDOf returns the GPU ID for a live ordinal (interned: the returned
	// string is shared, not allocated per call).
	IDOf(o Ord) string
	// Busy reports whether the GPU is executing a request.
	Busy(o Ord) bool
	// Cached reports whether the model is resident on the GPU.
	Cached(o Ord, model string) bool
	// GPUsCaching returns the ordinals of the GPUs caching the model in
	// ascending order — registration order, the Cache Manager's global
	// index (§VI). The returned slice may be a read-only view into
	// backend state, valid only until the next cache mutation; the
	// scheduler consumes it within the call and never mutates or retains
	// it.
	GPUsCaching(model string) []Ord
	// EstimatedFinish returns the remaining execution time of the GPU's
	// in-flight request (zero when idle). The scheduler adds local-queue
	// inference times itself.
	EstimatedFinish(o Ord, now sim.Time) time.Duration
	// LoadTime returns the profiled model-upload time on the GPU.
	LoadTime(o Ord, model string) time.Duration
	// InferTime returns the profiled inference latency on the GPU for
	// the batch size.
	InferTime(o Ord, model string, batch int) time.Duration
}

// IdleLister is an optional Backend extension. Backends that track busy
// transitions incrementally (the cluster harness does, from GPU status
// events) expose the current idle set here so Schedule iterates only the
// idle GPUs instead of scanning every GPU each round. The slice must be
// ascending (registration order) and is treated as a read-only view valid
// for the duration of one Schedule call. Backends without the extension
// fall back to a Busy() scan over Ords().
type IdleLister interface {
	IdleOrds() []Ord
}

// Dispatch is one decision returned by Schedule: run Req on GPU now.
// ExpectHit records whether the model was cached on the GPU at decision
// time (the harness re-validates at execution).
type Dispatch struct {
	Req       *Request
	GPU       string
	ExpectHit bool
	// FromLocalQueue marks a dispatch of a request that had been parked
	// in the GPU's local queue.
	FromLocalQueue bool
	// Batch holds the additional same-model requests coalesced into this
	// dispatch (Config.MaxBatch > 1), in arrival order; nil for a plain
	// single-request dispatch. The harness executes Req and every Batch
	// member as one batched launch. Like the Schedule result slice, the
	// backing array is pooled — valid until the next Schedule call.
	Batch []*Request
}

// Members returns the total request count of the dispatch (1 + extras).
func (d Dispatch) Members() int { return 1 + len(d.Batch) }

// Config configures a Scheduler.
type Config struct {
	Policy Policy
	// O3Limit is the starvation limit for LALBO3 (how many times a
	// request may be passed over before it is force-scheduled). It is
	// ignored for LB and LALB, whose effective limit is 0 (in-order).
	// Callers who want the paper's default pass DefaultO3Limit.
	O3Limit int
	// DisableLocalQueue turns off Algorithm 2's busy-GPU parking (lines
	// 8–15): requests whose model is cached only on busy GPUs always
	// miss onto an idle GPU instead of waiting. This is an ablation knob
	// quantifying the finish-time-estimation mechanism; the paper's
	// schedulers keep it enabled.
	DisableLocalQueue bool
	// ScanPlacement selects the straight-scan placement path (per-request
	// queue walk, linear holder argmin) instead of the indexed one. Both
	// produce identical dispatch sequences; the scan path exists as the
	// reference baseline for the schedule-round benchmarks and the
	// equivalence suite.
	ScanPlacement bool
	// MaxBatch caps how many same-model requests one dispatch may
	// coalesce into a single batched execution. <= 1 disables coalescing
	// entirely: the scheduler takes exactly the legacy single-dispatch
	// path and its decisions (and the harness reports) are byte-identical
	// to a build without batching.
	MaxBatch int
	// BatchWait is an optional linger window on the sim clock: while the
	// head of the global queue has fewer than MaxBatch same-model
	// requests queued behind it AND has waited less than BatchWait since
	// arrival, idle GPUs decline global work so the batch can fill.
	// Callers that set it must re-run Schedule at PendingWake deadlines
	// (the cluster harness arms a clock event). Zero dispatches every
	// batch as soon as a GPU frees up, whatever its size. Ignored when
	// MaxBatch <= 1.
	BatchWait time.Duration
}

// parked is one local-queue entry: the request plus its profiled
// inference time on the queue's GPU, captured at parking time so the
// estimated-finish sum is maintained incrementally instead of re-walking
// the queue per decision. Profiles are static, so the captured value
// equals a fresh lookup.
type parked struct {
	req   *Request
	infer time.Duration
}

// localQueue is one GPU's FIFO of parked requests: a buffer and a head
// cursor. Popping moves the cursor instead of re-slicing the buffer, so a
// drained queue keeps its capacity for the next park, and the vacated
// entry is zeroed so it stops pinning a recycled Request.
type localQueue struct {
	buf  []parked
	head int
}

func (q *localQueue) len() int { return len(q.buf) - q.head }

// items is the live queue in FIFO order, valid until the next push.
func (q *localQueue) items() []parked { return q.buf[q.head:] }

func (q *localQueue) push(p parked) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Reuse the popped prefix before growing.
		q.truncate(copy(q.buf, q.buf[q.head:]))
	}
	q.buf = append(q.buf, p)
}

func (q *localQueue) pop() parked {
	p := q.buf[q.head]
	q.buf[q.head] = parked{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return p
}

// truncate keeps the first n entries of a queue whose live entries have
// been compacted to the front of the buffer.
func (q *localQueue) truncate(n int) {
	clear(q.buf[n:])
	q.buf, q.head = q.buf[:n], 0
}

// posList tracks the ascending absolute ring positions of one model's
// queued requests. Pushes arrive in increasing position order (arrival
// order); removals are arbitrary. Front removals advance a start cursor
// (the common case: dispatch order tracks arrival order) and the dead
// prefix is compacted away once it outgrows the live tail.
type posList struct {
	pos   []int
	start int
}

func (l *posList) push(p int) { l.pos = append(l.pos, p) }

func (l *posList) empty() bool { return l.start >= len(l.pos) }

// first returns the smallest tracked position >= from, or -1.
func (l *posList) first(from int) int {
	a := l.pos[l.start:]
	i := sort.SearchInts(a, from)
	if i == len(a) {
		return -1
	}
	return a[i]
}

// remove drops a tracked position.
func (l *posList) remove(p int) {
	a := l.pos[l.start:]
	i := 0
	if a[0] != p { // head removal is the common case; search otherwise
		i = sort.SearchInts(a, p)
	}
	if i == 0 {
		l.start++
		if l.start >= len(l.pos) {
			l.pos = l.pos[:0]
			l.start = 0
		} else if l.start > len(l.pos)-l.start {
			l.pos = append(l.pos[:0], l.pos[l.start:]...)
			l.start = 0
		}
		return
	}
	copy(a[i:], a[i+1:])
	l.pos = l.pos[:len(l.pos)-1]
}

// llbMemo caches one model's busy-holder argmin for the duration of a
// round: holder sets and backend finish estimates are frozen while
// Schedule runs, so the result only changes when a local-queue sum does
// (tracked by parkGen).
type llbMemo struct {
	epoch uint32
	gen   uint64
	ord   Ord
	fin   time.Duration
}

// bitset is a fixed-capacity Ord-indexed bit array.
type bitset []uint64

func (b bitset) get(o Ord) bool { return b[o>>6]&(1<<(uint(o)&63)) != 0 }
func (b bitset) set(o Ord)      { b[o>>6] |= 1 << (uint(o) & 63) }
func (b bitset) clear(o Ord)    { b[o>>6] &^= 1 << (uint(o) & 63) }
func bitsetSize(bound Ord) int  { return (int(bound) + 63) / 64 }

// Scheduler implements the three policies over the Backend.
type Scheduler struct {
	policy  Policy
	limit   int
	noPark  bool
	backend Backend
	idle    IdleLister // non-nil when the backend tracks idle GPUs

	// global is the system-wide arrival-ordered queue: a ring-buffer
	// deque with tombstoned removal, so out-of-order extraction (O3
	// jumps, LLB placements) is O(1) instead of a slice splice.
	global reqRing

	// Ord-indexed per-GPU state, sized by the backend's OrdBound and
	// grown lazily as elastic membership raises the bound.
	local    []localQueue // local[o]: requests parked at GPU o
	localSum []time.Duration
	draining bitset

	// takenEpoch marks GPUs consumed within the current Schedule round:
	// takenEpoch[o] == epoch means taken. Bumping epoch resets the whole
	// set in O(1) — no per-round map allocation or clearing pass.
	takenEpoch []uint32
	epoch      uint32

	// out is the pooled dispatch slice returned by Schedule, valid until
	// the next Schedule call.
	out []Dispatch
	// idleScratch backs the fallback (no IdleLister) candidate scan.
	idleScratch []Ord

	// Indexed-placement state (unused under scanPlacement).
	scanPlacement bool
	// indexed flips on the first time the global queue crosses
	// indexActivateLen and stays on: a shallow steady-state queue keeps
	// the zero-overhead walk (the index would cost more to maintain
	// than the one-position scan it replaces), while deep queues build
	// the index once — O(threshold) — and maintain it incrementally.
	indexed bool
	// byModel maps each queued model to its ascending queue positions;
	// maintained on enqueue/extract, rebuilt when the ring compacts
	// (ringVer tracks reqRing.ver). Emptied lists stay in the map (the
	// steady path drains and re-fills one model every round — deleting
	// and re-inserting the entry would dominate the decision cost) and
	// are pruned into plFree only once empties outnumber live lists
	// 4:1, keeping the per-scan model iteration proportional to the
	// queued mix.
	byModel    map[string]*posList
	liveModels int
	plFree     []*posList
	ringVer    int
	// lastModel/lastPL short-circuit the byModel lookup for the model
	// touched by the previous index operation — the steady enqueue →
	// dispatch cycle hits one model twice in a row.
	lastModel string
	lastPL    *posList
	// roundIdle is the frozen idle candidate list of the current round
	// (backend busy state is stable for the duration of a Schedule call).
	roundIdle []Ord
	// estVal/estEpoch memoize backend.EstimatedFinish per ordinal within
	// a round; memo/parkGen memoize the per-model busy-holder argmin
	// until a local-queue sum changes.
	estVal   []time.Duration
	estEpoch []uint32
	memo     map[string]llbMemo
	parkGen  uint64

	// Batching (Config.MaxBatch > 1): coalesce same-model queue runs
	// into one dispatch. batchFree pools the member slices handed out
	// through Dispatch.Batch (reclaimed at the next Schedule call, the
	// same lifetime contract as s.out); pendingWake is the earliest
	// linger deadline the last Schedule call declined work for.
	maxBatch    int
	batchWait   time.Duration
	batchFree   [][]*Request
	pendingWake sim.Time
	hasWake     bool

	// moves counts global→local-queue migrations (Algorithm 2 line 12).
	moves int64
	// o3Dispatches counts dispatches that jumped the queue.
	o3Dispatches int64
	// starved counts requests force-dispatched by the starvation limit.
	starved int64
	// batchedDispatches counts dispatches that coalesced >= 2 requests;
	// batchedMembers counts the extra (non-primary) requests they carried.
	batchedDispatches int64
	batchedMembers    int64
	// peakLocal is the deepest any single local queue has grown, the
	// capacity-planning companion to sim.Engine.MaxQueueLen.
	peakLocal int
}

// New creates a Scheduler. The backend must be non-nil.
func New(cfg Config, backend Backend) (*Scheduler, error) {
	if backend == nil {
		return nil, errors.New("core: nil backend")
	}
	limit := 0
	switch cfg.Policy {
	case LB, LALB:
		limit = 0
	case LALBO3:
		limit = cfg.O3Limit
		if limit < 0 {
			return nil, fmt.Errorf("core: negative O3 limit %d", limit)
		}
	default:
		return nil, fmt.Errorf("core: unknown policy %v", cfg.Policy)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("core: negative MaxBatch %d", cfg.MaxBatch)
	}
	if cfg.BatchWait < 0 {
		return nil, fmt.Errorf("core: negative BatchWait %v", cfg.BatchWait)
	}
	il, _ := backend.(IdleLister)
	s := &Scheduler{
		policy:        cfg.Policy,
		limit:         limit,
		noPark:        cfg.DisableLocalQueue,
		backend:       backend,
		idle:          il,
		scanPlacement: cfg.ScanPlacement,
		maxBatch:      cfg.MaxBatch,
		batchWait:     cfg.BatchWait,
	}
	if !s.scanPlacement {
		s.memo = make(map[string]llbMemo)
	}
	s.grow(backend.OrdBound())
	return s, nil
}

// indexActivateLen is the global-queue depth at which the per-model
// position index switches on (and stays on). Below it, the plain walk
// touches fewer positions than the index bookkeeping would.
const indexActivateLen = 64

// grow extends the Ord-indexed state to cover ordinals < bound (elastic
// membership only ever raises the bound).
func (s *Scheduler) grow(bound Ord) {
	for Ord(len(s.local)) < bound {
		s.local = append(s.local, localQueue{})
	}
	for Ord(len(s.localSum)) < bound {
		s.localSum = append(s.localSum, 0)
	}
	for Ord(len(s.takenEpoch)) < bound {
		s.takenEpoch = append(s.takenEpoch, 0)
	}
	for Ord(len(s.estEpoch)) < bound {
		s.estEpoch = append(s.estEpoch, 0)
		s.estVal = append(s.estVal, 0)
	}
	for len(s.draining) < bitsetSize(bound) {
		s.draining = append(s.draining, 0)
	}
}

// syncBound refreshes the Ord-indexed state against the backend's current
// bound; call before any ord-indexed access on externally-driven paths.
func (s *Scheduler) syncBound() { s.grow(s.backend.OrdBound()) }

// SetDraining marks (or clears) a GPU as draining. A draining GPU only
// dispatches from its own local queue; the global queue and the
// LocalityLoadBalance routine treat it as if it were not part of the
// cluster. The harness flips this while decommissioning a GPU that still
// has in-flight or parked work. Unknown GPUs are a no-op.
func (s *Scheduler) SetDraining(gpuID string, draining bool) {
	o, ok := s.backend.OrdOf(gpuID)
	if !ok {
		return
	}
	s.syncBound()
	if draining {
		s.draining.set(o)
		return
	}
	s.draining.clear(o)
}

// Draining reports whether the GPU is draining.
func (s *Scheduler) Draining(gpuID string) bool {
	o, ok := s.backend.OrdOf(gpuID)
	if !ok || int(o)>>6 >= len(s.draining) {
		return false
	}
	return s.draining.get(o)
}

// RemoveGPU forgets a decommissioned GPU's scheduler state. The GPU's
// local queue must be empty — the harness drains it before removal; a
// non-empty queue is an error so churn bugs surface instead of silently
// dropping requests. The GPU must still resolve through the backend (the
// harness removes scheduler state before deregistering the ID).
func (s *Scheduler) RemoveGPU(gpuID string) error {
	o, ok := s.backend.OrdOf(gpuID)
	if !ok {
		return nil
	}
	s.syncBound()
	if n := s.local[o].len(); n != 0 {
		return fmt.Errorf("core: removing GPU %s with %d parked requests", gpuID, n)
	}
	s.local[o] = localQueue{}
	s.localSum[o] = 0
	s.draining.clear(o)
	return nil
}

// PolicyName returns the configured policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// O3Limit returns the effective starvation limit.
func (s *Scheduler) O3Limit() int { return s.limit }

// Enqueue appends a request to the global queue. Requests must be
// enqueued in non-decreasing arrival order (the Gateway forwards them as
// they arrive). The skip count starts at zero — a request enters the
// queue fresh, which is what keeps skip counts non-increasing along the
// queue (the invariant the indexed placement path builds on).
func (s *Scheduler) Enqueue(r *Request) error {
	if r == nil {
		return errors.New("core: nil request")
	}
	r.visits = 0
	if last := s.global.last(); last != nil && last.Arrival > r.Arrival {
		return fmt.Errorf("core: out-of-order enqueue: %v after %v", r.Arrival, last.Arrival)
	}
	s.global.push(r)
	if s.indexed {
		if s.global.ver != s.ringVer {
			// The push compacted the ring, renumbering every position:
			// rebuild the per-model index (the walk is the same O(n) the
			// compaction itself just paid, and includes this request).
			s.rebuildIndex()
		} else {
			s.indexAdd(r.Model, s.global.tail-1)
		}
	} else if s.global.len() >= indexActivateLen {
		// Only out-of-order dispatch (limit > 0) and batch coalescing
		// (MaxBatch > 1) ever look past the head for a same-model
		// request; LB and in-order LALB without batching keep the index
		// off — it would be pure maintenance overhead.
		if !s.scanPlacement && (s.limit > 0 || s.maxBatch > 1) {
			s.activateIndex()
		}
	}
	return nil
}

// Requeue returns an interrupted request to the FRONT of the global
// queue. The request already waited its arrival-order turn once, so a
// GPU failure must not send it to the back behind later arrivals; the
// front position is also deterministic — a pure function of the fault
// schedule, independent of worker count. The skip count is reset to the
// current head's, which preserves the monotone-skip invariant (visit
// counts non-increasing along the queue) the indexed placement path
// relies on. Failures are rare, so the per-model index is simply
// rebuilt rather than taught about front insertion.
func (s *Scheduler) Requeue(r *Request) error {
	if r == nil {
		return errors.New("core: nil request")
	}
	r.visits = 0
	if s.global.len() > 0 {
		r.visits = s.global.at(s.global.headPos()).visits
	}
	s.global.pushFront(r)
	if s.indexed {
		s.rebuildIndex()
	}
	return nil
}

// DrainLocal removes and returns every request parked in the GPU's
// local queue, in parking (FIFO) order; nil when none. The failure path
// uses it: a crashed GPU's parked requests never began executing, so
// they re-enter the global queue without consuming a retry attempt.
func (s *Scheduler) DrainLocal(gpuID string) []*Request {
	o, ok := s.backend.OrdOf(gpuID)
	if !ok || int(o) >= len(s.local) || s.local[o].len() == 0 {
		return nil
	}
	q := s.local[o].items()
	out := make([]*Request, len(q))
	for i, p := range q {
		out[i] = p.req
	}
	s.local[o] = localQueue{}
	s.localSum[o] = 0
	s.parkGen++
	return out
}

// activateIndex switches the per-model position index on (idempotent;
// a no-op under ScanPlacement). Exposed to tests so the equivalence
// suite can exercise the indexed path below the activation depth.
func (s *Scheduler) activateIndex() {
	if s.indexed || s.scanPlacement {
		return
	}
	s.indexed = true
	if s.byModel == nil {
		s.byModel = make(map[string]*posList)
	}
	s.rebuildIndex()
}

// indexAdd records a queued request's position under its model.
func (s *Scheduler) indexAdd(model string, pos int) {
	pl := s.lastPL
	if pl == nil || s.lastModel != model {
		var ok bool
		pl, ok = s.byModel[model]
		if !ok {
			if n := len(s.plFree); n > 0 {
				pl = s.plFree[n-1]
				s.plFree[n-1] = nil
				s.plFree = s.plFree[:n-1]
			} else {
				pl = &posList{}
			}
			s.byModel[model] = pl
		}
		s.lastModel, s.lastPL = model, pl
	}
	if pl.empty() {
		s.liveModels++
	}
	pl.push(pos)
}

// rebuildIndex reconstructs the per-model position index from the ring,
// recycling the displaced lists (ring compaction is now routine under
// deep queues; the rebuild must not churn the heap).
func (s *Scheduler) rebuildIndex() {
	for _, pl := range s.byModel {
		pl.pos = pl.pos[:0]
		pl.start = 0
		s.plFree = append(s.plFree, pl)
	}
	clear(s.byModel)
	s.lastPL = nil
	s.liveModels = 0
	for p := s.global.head; p < s.global.tail; p++ {
		if r := s.global.at(p); r != nil {
			s.indexAdd(r.Model, p)
		}
	}
	s.ringVer = s.global.ver
}

// extract removes the live request at a position, keeping the per-model
// index in sync. Every indexed-path extraction goes through here; the
// scan path mutates the ring directly (it has no index to maintain).
func (s *Scheduler) extract(pos int) *Request {
	r := s.global.remove(pos)
	if s.indexed {
		pl := s.lastPL
		if pl == nil || s.lastModel != r.Model {
			pl = s.byModel[r.Model]
			s.lastModel, s.lastPL = r.Model, pl
		}
		pl.remove(pos)
		if pl.empty() {
			s.liveModels--
			if n := len(s.byModel); n > 32 && n > 4*s.liveModels {
				s.pruneIndex()
			}
		}
	}
	return r
}

// pruneIndex drops emptied per-model lists once they outnumber live
// ones 4:1, recycling them through the free list. Amortized: a prune
// only runs after at least as many emptying extractions.
func (s *Scheduler) pruneIndex() {
	for model, pl := range s.byModel {
		if pl.empty() {
			delete(s.byModel, model)
			pl.pos = pl.pos[:0]
			pl.start = 0
			s.plFree = append(s.plFree, pl)
		}
	}
	s.lastPL = nil
}

// GlobalQueueLen returns the number of requests waiting in the global
// queue.
func (s *Scheduler) GlobalQueueLen() int { return s.global.len() }

// TailArrival returns the arrival time of the global queue's tail, the
// earliest stamp Enqueue accepts next; ok is false when it accepts any.
func (s *Scheduler) TailArrival() (at sim.Time, ok bool) {
	if last := s.global.last(); last != nil {
		return last.Arrival, true
	}
	return 0, false
}

// LocalQueueLen returns the number of requests parked at the GPU.
func (s *Scheduler) LocalQueueLen(gpuID string) int {
	o, ok := s.backend.OrdOf(gpuID)
	if !ok || int(o) >= len(s.local) {
		return 0
	}
	return s.local[o].len()
}

// PendingTotal returns all queued requests (global + local).
func (s *Scheduler) PendingTotal() int {
	n := s.global.len()
	for i := range s.local {
		n += s.local[i].len()
	}
	return n
}

// Counters reports scheduler-internal decision counts for the efficiency
// analyses.
type Counters struct {
	LocalQueueMoves int64
	O3Dispatches    int64
	Starved         int64
	// PeakLocalQueue is the deepest any single GPU's local queue grew.
	PeakLocalQueue int
	// BatchedDispatches counts dispatches that coalesced two or more
	// requests into one launch; BatchedMembers counts the extra
	// (non-primary) requests those dispatches carried. Both stay zero
	// with MaxBatch <= 1.
	BatchedDispatches int64
	BatchedMembers    int64
}

// Counters returns a snapshot of internal counters.
func (s *Scheduler) Counters() Counters {
	return Counters{
		LocalQueueMoves:   s.moves,
		O3Dispatches:      s.o3Dispatches,
		Starved:           s.starved,
		PeakLocalQueue:    s.peakLocal,
		BatchedDispatches: s.batchedDispatches,
		BatchedMembers:    s.batchedMembers,
	}
}

// EstimatedFinishWithQueue returns the busy GPU's estimated finish time
// including its local queue (§IV-A: "the time to wait for the busy GPU to
// finish its current request (and requests already queued in its local
// queue)"). The queue tail is the incrementally-maintained localSum, so
// this is O(1) regardless of queue depth.
func (s *Scheduler) EstimatedFinishWithQueue(gpuID string, now sim.Time) time.Duration {
	o, ok := s.backend.OrdOf(gpuID)
	if !ok {
		return 0
	}
	s.syncBound()
	return s.estFinish(o, now)
}

// estFinish is EstimatedFinishWithQueue on the ord-indexed hot path.
func (s *Scheduler) estFinish(o Ord, now sim.Time) time.Duration {
	return s.backend.EstimatedFinish(o, now) + s.localSum[o]
}

// taken reports whether the GPU was consumed earlier in this round.
func (s *Scheduler) taken(o Ord) bool { return s.takenEpoch[o] == s.epoch }

// markTaken consumes the GPU for the rest of this round.
func (s *Scheduler) markTaken(o Ord) { s.takenEpoch[o] = s.epoch }

// busyOrTaken folds the backend's busy state with this round's takes.
func (s *Scheduler) busyOrTaken(o Ord) bool { return s.taken(o) || s.backend.Busy(o) }

// Schedule runs the configured policy to completion for the current
// cluster state: it keeps assigning requests until no idle GPU can accept
// one. The returned dispatches must be executed (GPUs become busy) by the
// caller; Busy() is expected to reflect each dispatch immediately, which
// the harness guarantees by marking the GPU reserved as it executes the
// decisions — to keep the scheduler self-contained it also tracks GPUs it
// has dispatched to within this call and treats them as busy.
//
// The returned slice is pooled: it is valid until the next Schedule call
// on this Scheduler, and callers that retain dispatches across rounds
// must copy them out.
func (s *Scheduler) Schedule(now sim.Time) []Dispatch {
	s.syncBound()
	if s.maxBatch > 1 {
		// Reclaim the member slices the previous round handed out
		// through Dispatch.Batch (same pooled lifetime as s.out) and
		// reset the linger deadline for this round.
		for i := range s.out {
			if b := s.out[i].Batch; b != nil {
				clear(b)
				s.batchFree = append(s.batchFree, b[:0])
			}
		}
		s.hasWake = false
		s.pendingWake = 0
	}
	s.out = s.out[:0]
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could read as taken/fresh
		clear(s.takenEpoch)
		clear(s.estEpoch)
		clear(s.memo)
		s.epoch = 1
	}

	// Backend busy state is stable for the duration of a Schedule call
	// (the harness executes the returned dispatches afterwards), so the
	// idle candidates are computed once; GPUs consumed mid-call are
	// filtered through the epoch-stamped taken set.
	idle := s.idleCandidates()
	s.roundIdle = idle
	for {
		progressed := false
		for _, o := range idle {
			if s.busyOrTaken(o) {
				continue
			}
			if s.scheduleIdleGPU(o, now) {
				progressed = true
			}
		}
		if !progressed {
			return s.out
		}
	}
}

// idleCandidates returns the idle GPUs in deterministic order: the
// backend's incremental idle set when available, otherwise a Busy scan
// over all GPUs (same order either way, so decisions are identical).
func (s *Scheduler) idleCandidates() []Ord {
	if s.idle != nil {
		return s.idle.IdleOrds()
	}
	s.idleScratch = s.idleScratch[:0]
	for _, o := range s.backend.Ords() {
		if !s.backend.Busy(o) {
			s.idleScratch = append(s.idleScratch, o)
		}
	}
	return s.idleScratch
}

// PendingWake returns the earliest BatchWait linger deadline the last
// Schedule call declined global work for, and whether one exists. The
// harness arms a clock event at that time and re-runs Schedule so a
// lingering batch is eventually dispatched even if no completion or
// arrival lands first.
func (s *Scheduler) PendingWake() (sim.Time, bool) { return s.pendingWake, s.hasWake }

// lingerHold reports whether idle GPUs should decline global work this
// round: the head of the global queue is still inside its BatchWait
// window and fewer than MaxBatch same-model requests are queued. The
// gate watches only the head — the request every policy examines first —
// so it is deterministic and bounded: the head dispatches no later than
// Arrival+BatchWait, whatever its batch filled to.
func (s *Scheduler) lingerHold(now sim.Time) bool {
	if s.maxBatch <= 1 || s.batchWait <= 0 || s.global.len() == 0 {
		return false
	}
	r := s.global.at(s.global.headPos())
	deadline := r.Arrival + sim.Time(s.batchWait)
	if now >= deadline {
		return false
	}
	if s.queuedOfModel(r.Model, s.maxBatch) >= s.maxBatch {
		return false
	}
	if !s.hasWake || deadline < s.pendingWake {
		s.pendingWake = deadline
		s.hasWake = true
	}
	return true
}

// queuedOfModel counts queued requests of the model, stopping at stop.
func (s *Scheduler) queuedOfModel(model string, stop int) int {
	if s.indexed {
		pl, ok := s.byModel[model]
		if !ok {
			return 0
		}
		return len(pl.pos) - pl.start
	}
	n := 0
	for p := s.global.head; p < s.global.tail && n < stop; p++ {
		if r := s.global.at(p); r != nil && r.Model == model {
			n++
		}
	}
	return n
}

// coalesceLast drains up to MaxBatch-1 additional queued requests with
// the primary's model — in arrival order — out of the global queue and
// into the just-appended dispatch's Batch. With the per-model index
// active the collection is O(batch·log queue); the shallow-queue walk
// visits ring positions directly, yielding the identical ascending-
// position member set. Extracted members bump no skip counts: removing
// elements from the queue preserves the monotone-skip invariant (a
// subsequence of a non-increasing sequence is non-increasing).
func (s *Scheduler) coalesceLast() {
	if s.maxBatch <= 1 || s.global.len() == 0 {
		return
	}
	d := &s.out[len(s.out)-1]
	model := d.Req.Model
	batch := s.grabBatchSlice()
	if s.indexed {
		pl := s.byModel[model]
		for pl != nil && !pl.empty() && 1+len(batch) < s.maxBatch {
			p := pl.first(s.global.head)
			if p < 0 {
				break
			}
			batch = append(batch, s.extract(p))
		}
	} else {
		for p := s.global.head; p < s.global.tail && 1+len(batch) < s.maxBatch; p++ {
			if r := s.global.at(p); r != nil && r.Model == model {
				batch = append(batch, s.extract(p))
			}
		}
	}
	s.finishBatch(d, batch)
}

// coalesceLocal extends a local-queue dispatch with the GPU's parked
// same-model requests (arrival order — the local queue is FIFO by
// parking time), leaving other models parked in place.
func (s *Scheduler) coalesceLocal(o Ord) {
	if s.maxBatch <= 1 || s.local[o].len() == 0 {
		return
	}
	d := &s.out[len(s.out)-1]
	model := d.Req.Model
	batch := s.grabBatchSlice()
	// Compact the entries that stay parked to the front of the buffer.
	lq := &s.local[o]
	w := 0
	for _, p := range lq.items() {
		if p.req.Model == model && 1+len(batch) < s.maxBatch {
			batch = append(batch, p.req)
			s.localSum[o] -= p.infer
			continue
		}
		lq.buf[w] = p
		w++
	}
	if len(batch) > 0 {
		s.parkGen++
	}
	lq.truncate(w)
	s.finishBatch(d, batch)
}

// park appends a request to GPU o's local queue with its profiled
// inference time there.
func (s *Scheduler) park(o Ord, r *Request, infer time.Duration) {
	s.local[o].push(parked{req: r, infer: infer})
	if n := s.local[o].len(); n > s.peakLocal {
		s.peakLocal = n
	}
	s.localSum[o] += infer
}

// grabBatchSlice returns a pooled zero-length member slice.
func (s *Scheduler) grabBatchSlice() []*Request {
	if n := len(s.batchFree); n > 0 {
		b := s.batchFree[n-1]
		s.batchFree[n-1] = nil
		s.batchFree = s.batchFree[:n-1]
		return b
	}
	return nil
}

// finishBatch attaches the collected members (returning an empty slice
// to the pool) and maintains the batching counters.
func (s *Scheduler) finishBatch(d *Dispatch, batch []*Request) {
	if len(batch) == 0 {
		if batch != nil {
			s.batchFree = append(s.batchFree, batch)
		}
		return
	}
	d.Batch = batch
	s.batchedDispatches++
	s.batchedMembers += int64(len(batch))
}

// scheduleIdleGPU implements Algorithm 1 for one idle GPU, appending the
// dispatches produced while trying to occupy it (the LLB routine may also
// dispatch requests to *other* idle GPUs) to s.out. It reports whether
// any dispatch was produced.
func (s *Scheduler) scheduleIdleGPU(o Ord, now sim.Time) bool {
	n0 := len(s.out)
	// Lines 2–4: prioritize the local queue.
	if s.local[o].len() > 0 {
		p := s.local[o].pop()
		s.localSum[o] -= p.infer
		s.parkGen++
		s.markTaken(o)
		s.out = append(s.out, Dispatch{
			Req: p.req, GPU: s.backend.IDOf(o),
			ExpectHit:      s.backend.Cached(o, p.req.Model),
			FromLocalQueue: true,
		})
		s.coalesceLocal(o)
		return true
	}
	if s.draining.get(o) {
		// A draining GPU with an empty local queue takes no new work.
		return false
	}
	if s.global.len() == 0 {
		return false
	}
	if s.lingerHold(now) {
		// The head's batch is still filling inside its BatchWait window.
		return false
	}

	// Baseline LB: head of queue to this idle GPU, no locality.
	if s.policy == LB {
		r := s.extract(s.global.headPos())
		s.markTaken(o)
		s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: s.backend.Cached(o, r.Model)})
		s.coalesceLast()
		return true
	}
	if s.scanPlacement || !s.indexed {
		// Shallow queues (and the reference baseline) keep the plain
		// walk; scanPlacement additionally selects the unmemoized llb.
		return s.findWorkScan(o, now, n0)
	}
	return s.findWork(o, now, n0)
}

// findWork is Algorithm 1 lines 6–22 on the indexed path. Instead of
// walking the queue per request it relies on the monotone-skip invariant
// (visits is non-increasing along the live queue, so only the head can
// be starved) and the per-model position index (the first request cached
// on o is the min over cached models' first queued positions): each
// iteration either resolves the head, or jumps straight to the
// out-of-order hit after bumping the skipped prefix.
func (s *Scheduler) findWork(o Ord, now sim.Time, n0 int) bool {
	for s.global.len() > 0 {
		pos := s.global.headPos()
		r := s.global.at(pos)
		if s.backend.Cached(o, r.Model) {
			// Head hit: in-order, so no out-of-order jump is counted.
			s.extract(pos)
			s.markTaken(o)
			s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: true})
			s.coalesceLast()
			return true
		}
		if r.visits >= s.limit {
			// Starvation limit reached (or limit==0, i.e. plain LALB
			// considering the head in order): schedule it now via
			// LocalityLoadBalance. llb removes the request; re-examine
			// the queue, whose head now resolves to the next request.
			if r.visits > 0 && s.limit > 0 {
				s.starved++
			}
			if s.llb(o, pos, now) {
				return true
			}
			continue
		}
		// The head is uncached here and under the limit — and by the
		// monotone-skip invariant so is everything behind it, so the
		// scan's stop is the first queued request cached on o.
		if s.global.len() == 1 {
			// Nothing behind the head to jump to.
			r.visits++
			break
		}
		jump := s.firstCachedPos(o, pos+1)
		if jump < 0 {
			// Nothing cached on o anywhere in the queue: every live
			// request is passed over once (none can be starved).
			s.bumpVisits(pos, s.global.tail)
			break
		}
		s.bumpVisits(pos, jump)
		rj := s.global.at(jump)
		s.o3Dispatches++
		s.extract(jump)
		s.markTaken(o)
		s.out = append(s.out, Dispatch{Req: rj, GPU: s.backend.IDOf(o), ExpectHit: true})
		s.coalesceLast()
		return true
	}
	// Lines 17–22: no queued request has its model cached here — drain
	// through LocalityLoadBalance until this GPU takes one.
	for s.global.len() > 0 {
		before := s.global.len()
		if s.llb(o, s.global.headPos(), now) {
			return true
		}
		if s.global.len() == before {
			// llb always removes the request; guard against spinning if
			// that invariant is ever broken.
			break
		}
	}
	return len(s.out) > n0
}

// firstCachedPos returns the position of the first queued request at or
// after from whose model is cached on o, or -1. The per-model index
// makes this O(distinct queued models · log) instead of O(queue).
func (s *Scheduler) firstCachedPos(o Ord, from int) int {
	best := -1
	for model, pl := range s.byModel {
		p := pl.first(from)
		if p < 0 || (best >= 0 && p >= best) {
			continue
		}
		if s.backend.Cached(o, model) {
			best = p
		}
	}
	return best
}

// bumpVisits passes every live request in [from, to) over once — the
// uniform prefix increment behind the monotone-skip invariant.
func (s *Scheduler) bumpVisits(from, to int) {
	for p := from; p < to; p++ {
		if r := s.global.at(p); r != nil {
			r.visits++
		}
	}
}

// llb implements Algorithm 2 (function LocalityLoadBalance) for the
// request at global-queue position pos, considering idle GPU o. It
// appends any dispatch to s.out and reports whether o itself was taken.
// llb always removes the request from the global queue (dispatching,
// parking, or missing it somewhere).
func (s *Scheduler) llb(o Ord, pos int, now sim.Time) bool {
	r := s.global.at(pos)
	holders := s.backend.GPUsCaching(r.Model)

	// Line 1–3: model cached nowhere — cache miss on the selected idle
	// GPU.
	if len(holders) == 0 {
		s.extract(pos)
		s.markTaken(o)
		s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: false})
		s.coalesceLast()
		return true
	}

	// Line 4–6: model cached on another idle GPU — dispatch there (a
	// cache hit); the selected GPU stays idle. Draining holders are
	// skipped: their residents are on the way out. The pick walks the
	// smaller of the frozen idle list and the holder list; both are
	// ascending ordinals, so either walk yields the same lowest-ord
	// free holder the straight holder scan finds.
	if h := s.firstFreeHolder(o, holders); h >= 0 {
		s.extract(pos)
		if h == o {
			s.markTaken(o)
			s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: true})
			s.coalesceLast()
			return true
		}
		s.markTaken(h)
		s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(h), ExpectHit: true})
		s.coalesceLast()
		return false
	}

	// Lines 8–15: model cached only on busy GPUs. Find the busy holder
	// with the smallest estimated finish time; if waiting for it beats
	// paying the model-load time on the idle GPU, park the request in
	// that GPU's local queue. (Skipped entirely under the
	// DisableLocalQueue ablation.)
	if !s.noPark {
		best, bestFinish := s.argminHolders(r.Model, holders, now)
		if best >= 0 && bestFinish < s.backend.LoadTime(o, r.Model) {
			s.extract(pos)
			infer := s.backend.InferTime(best, r.Model, r.BatchSize)
			s.park(best, r, infer)
			s.parkGen++
			s.moves++
			return false
		}
	}

	// Lines 16–18: allow the cache miss on the idle GPU.
	s.extract(pos)
	s.markTaken(o)
	s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: false})
	s.coalesceLast()
	return true
}

// firstFreeHolder returns the lowest-ord holder that is neither draining
// nor busy nor taken this round (-1 when none). When the round's idle
// list is the smaller side it drives the walk — on a saturated fleet the
// idle list is a handful of GPUs while a hot model's holder list grows
// with the fleet.
func (s *Scheduler) firstFreeHolder(o Ord, holders []Ord) Ord {
	if len(s.roundIdle) < len(holders) {
		for _, g := range s.roundIdle {
			if s.draining.get(g) || s.busyOrTaken(g) {
				continue
			}
			if ordset.Contains(holders, g) {
				return g
			}
		}
		return -1
	}
	for _, h := range holders {
		if s.draining.get(h) {
			continue
		}
		// h == o is the robustness case (the caller only reaches llb
		// when the model is not cached on o); o is idle and untaken, so
		// it folds into the busyOrTaken test.
		if h == o || !s.busyOrTaken(h) {
			return h
		}
	}
	return -1
}

// argminHolders returns the non-draining holder with the smallest
// estimated finish (including its local queue) and that finish, with the
// original scan's tie-break (lowest ordinal wins on equal finish). The
// result is memoized per (round, model): holder sets, draining flags and
// backend finish estimates are all frozen while Schedule runs, so the
// memo only invalidates when a local-queue sum changes (parkGen).
func (s *Scheduler) argminHolders(model string, holders []Ord, now sim.Time) (Ord, time.Duration) {
	if m, ok := s.memo[model]; ok && m.epoch == s.epoch && m.gen == s.parkGen {
		return m.ord, m.fin
	}
	best := Ord(-1)
	var bestFinish time.Duration
	for _, h := range holders {
		if s.draining.get(h) {
			continue
		}
		fin := s.frozenEst(h, now) + s.localSum[h]
		if best < 0 || fin < bestFinish {
			best, bestFinish = h, fin
		}
	}
	s.memo[model] = llbMemo{epoch: s.epoch, gen: s.parkGen, ord: best, fin: bestFinish}
	return best, bestFinish
}

// frozenEst memoizes the backend's in-flight finish estimate per ordinal
// for the duration of a round (busy state is stable across a Schedule
// call, and `now` is fixed).
func (s *Scheduler) frozenEst(o Ord, now sim.Time) time.Duration {
	if s.estEpoch[o] != s.epoch {
		s.estEpoch[o] = s.epoch
		s.estVal[o] = s.backend.EstimatedFinish(o, now)
	}
	return s.estVal[o]
}

// findWorkScan is Algorithm 1 lines 6–22 on the reference scan path: it
// walks ring positions request by request, enforcing the out-of-order
// starvation limit along the way. Tombstones (removed mid-scan by LLB
// placements) are skipped.
func (s *Scheduler) findWorkScan(o Ord, now sim.Time, n0 int) bool {
	pos := s.global.headPos()
	for pos < s.global.tail {
		r := s.global.at(pos)
		if r == nil {
			pos++
			continue
		}
		if s.backend.Cached(o, r.Model) {
			// The ring's head is kept tombstone-free, so any position
			// past it has a live request ahead: an out-of-order jump.
			if pos > s.global.headPos() {
				s.o3Dispatches++
			}
			s.global.remove(pos)
			s.markTaken(o)
			s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: true})
			s.coalesceLast()
			return true
		}
		if r.visits >= s.limit {
			if r.visits > 0 && s.limit > 0 {
				s.starved++
			}
			if s.llbScan(o, pos, now) {
				return true
			}
			// The request left the queue for another GPU (or a local
			// queue); its slot is tombstoned — re-examine from the same
			// position, which now resolves to the next live request.
			continue
		}
		r.visits++
		pos++
	}
	for s.global.len() > 0 {
		before := s.global.len()
		if s.llbScan(o, s.global.headPos(), now) {
			return true
		}
		if s.global.len() == before {
			break
		}
	}
	return len(s.out) > n0
}

// llbScan is llb on the reference scan path: straight holder walks, no
// memoization.
func (s *Scheduler) llbScan(o Ord, pos int, now sim.Time) bool {
	r := s.global.at(pos)
	holders := s.backend.GPUsCaching(r.Model)

	if len(holders) == 0 {
		s.global.remove(pos)
		s.markTaken(o)
		s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: false})
		s.coalesceLast()
		return true
	}

	for _, h := range holders {
		if s.draining.get(h) {
			continue
		}
		if h == o {
			s.global.remove(pos)
			s.markTaken(o)
			s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: true})
			s.coalesceLast()
			return true
		}
		if !s.busyOrTaken(h) {
			s.global.remove(pos)
			s.markTaken(h)
			s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(h), ExpectHit: true})
			s.coalesceLast()
			return false
		}
	}

	if !s.noPark {
		best := Ord(-1)
		var bestFinish time.Duration
		for _, h := range holders {
			if s.draining.get(h) {
				continue
			}
			fin := s.estFinish(h, now)
			if best < 0 || fin < bestFinish {
				best, bestFinish = h, fin
			}
		}
		if best >= 0 && bestFinish < s.backend.LoadTime(o, r.Model) {
			s.global.remove(pos)
			infer := s.backend.InferTime(best, r.Model, r.BatchSize)
			s.park(best, r, infer)
			s.moves++
			return false
		}
	}

	s.global.remove(pos)
	s.markTaken(o)
	s.out = append(s.out, Dispatch{Req: r, GPU: s.backend.IDOf(o), ExpectHit: false})
	s.coalesceLast()
	return true
}
