package core

import (
	"testing"
	"time"

	"gpufaas/internal/sim"
)

// mockBackend is a hand-driven cluster view.
type mockBackend struct {
	gpus   []string
	busy   map[string]bool
	cached map[string]map[string]bool // gpu -> model set
	finish map[string]time.Duration   // remaining in-flight time
	load   map[string]time.Duration   // model -> load time
	infer  map[string]time.Duration   // model -> infer time
}

func newMock(gpus ...string) *mockBackend {
	m := &mockBackend{
		gpus:   gpus,
		busy:   map[string]bool{},
		cached: map[string]map[string]bool{},
		finish: map[string]time.Duration{},
		load:   map[string]time.Duration{},
		infer:  map[string]time.Duration{},
	}
	for _, g := range gpus {
		m.cached[g] = map[string]bool{}
	}
	return m
}

func (m *mockBackend) setModel(model string, load, infer time.Duration) {
	m.load[model] = load
	m.infer[model] = infer
}

// The mock keeps its state in string-keyed maps for test readability and
// adapts to the ord-based Backend at the boundary: ordinals are indices
// into the gpus slice.
func (m *mockBackend) Ords() []Ord {
	out := make([]Ord, len(m.gpus))
	for i := range m.gpus {
		out[i] = Ord(i)
	}
	return out
}
func (m *mockBackend) OrdBound() Ord { return Ord(len(m.gpus)) }
func (m *mockBackend) OrdOf(g string) (Ord, bool) {
	for i, id := range m.gpus {
		if id == g {
			return Ord(i), true
		}
	}
	return 0, false
}
func (m *mockBackend) IDOf(o Ord) string             { return m.gpus[o] }
func (m *mockBackend) Busy(o Ord) bool               { return m.busy[m.gpus[o]] }
func (m *mockBackend) Cached(o Ord, mdl string) bool { return m.cached[m.gpus[o]][mdl] }
func (m *mockBackend) GPUsCaching(model string) []Ord {
	var out []Ord
	for i, g := range m.gpus {
		if m.cached[g][model] {
			out = append(out, Ord(i))
		}
	}
	return out
}
func (m *mockBackend) EstimatedFinish(o Ord, _ sim.Time) time.Duration { return m.finish[m.gpus[o]] }
func (m *mockBackend) LoadTime(_ Ord, model string) time.Duration      { return m.load[model] }
func (m *mockBackend) InferTime(_ Ord, model string, _ int) time.Duration {
	return m.infer[model]
}

// holderIDs is GPUsCaching translated back to IDs for test assertions.
func (m *mockBackend) holderIDs(model string) []string {
	var out []string
	for _, o := range m.GPUsCaching(model) {
		out = append(out, m.gpus[o])
	}
	return out
}

func req(id int64, model string) *Request {
	return &Request{ID: id, Model: model, BatchSize: 32, Arrival: sim.Time(id)}
}

func newSched(t *testing.T, p Policy, limit int, b Backend) *Scheduler {
	t.Helper()
	s, err := New(Config{Policy: p, O3Limit: limit}, b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Policy: LALB}, nil); err == nil {
		t.Error("nil backend should fail")
	}
	if _, err := New(Config{Policy: LALBO3, O3Limit: -1}, newMock("g0")); err == nil {
		t.Error("negative limit should fail")
	}
	if _, err := New(Config{Policy: Policy(99)}, newMock("g0")); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestParsePolicy(t *testing.T) {
	// The accepted-spellings table mirrors the doc comment exactly: the
	// canonical figure spelling, the all-lower-case form, and the paper's
	// "LALB+O3" — anything else (mixed case, lower-case plus form) is
	// rejected.
	for _, c := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"LB", LB, true},
		{"lb", LB, true},
		{"LALB", LALB, true},
		{"lalb", LALB, true},
		{"LALBO3", LALBO3, true},
		{"lalbo3", LALBO3, true},
		{"LALB+O3", LALBO3, true},
		{"", 0, false},
		{"Lb", 0, false},
		{"Lalb", 0, false},
		{"lalb+o3", 0, false},
		{"LALB+o3", 0, false},
		{"LALBO", 0, false},
		{"nope", 0, false},
	} {
		got, err := ParsePolicy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePolicy(%q) accepted, want error", c.in)
		}
	}
	if LB.String() != "LB" || LALB.String() != "LALB" || LALBO3.String() != "LALBO3" {
		t.Error("policy names wrong")
	}
	if Policy(7).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

func TestEnqueueOrdering(t *testing.T) {
	s := newSched(t, LB, 0, newMock("g0"))
	if err := s.Enqueue(nil); err == nil {
		t.Error("nil request should fail")
	}
	if err := s.Enqueue(&Request{ID: 1, Arrival: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(&Request{ID: 2, Arrival: 5}); err == nil {
		t.Error("out-of-order enqueue should fail")
	}
	if s.GlobalQueueLen() != 1 {
		t.Errorf("queue len = %d", s.GlobalQueueLen())
	}
}

func TestLBDispatchesHeadInOrder(t *testing.T) {
	b := newMock("g0", "g1")
	b.setModel("m1", 3*time.Second, time.Second)
	b.setModel("m2", 3*time.Second, time.Second)
	s := newSched(t, LB, 0, b)
	// m2 cached on g1 — LB must ignore locality.
	b.cached["g1"]["m2"] = true
	mustEnqueue(t, s, req(0, "m2"), req(1, "m1"))
	ds := s.Schedule(0)
	if len(ds) != 2 {
		t.Fatalf("dispatches = %+v", ds)
	}
	// Head (m2) goes to the first idle GPU g0 even though g1 caches it.
	if ds[0].Req.ID != 0 || ds[0].GPU != "g0" || ds[0].ExpectHit {
		t.Errorf("first dispatch = %+v", ds[0])
	}
	if ds[1].Req.ID != 1 || ds[1].GPU != "g1" {
		t.Errorf("second dispatch = %+v", ds[1])
	}
	if s.GlobalQueueLen() != 0 {
		t.Error("queue should drain")
	}
}

func TestLALBPrefersIdleCachedGPU(t *testing.T) {
	b := newMock("g0", "g1")
	b.setModel("m", 3*time.Second, time.Second)
	b.cached["g1"]["m"] = true
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "m"))
	ds := s.Schedule(0)
	if len(ds) != 1 || ds[0].GPU != "g1" || !ds[0].ExpectHit {
		t.Fatalf("dispatch = %+v", ds)
	}
}

func TestLALBParksOnBusyGPUWhenFaster(t *testing.T) {
	b := newMock("g0", "g1")
	b.setModel("m", 3*time.Second, time.Second)
	// g1 busy, caches m, finishes in 1s; load on idle g0 costs 3s.
	b.busy["g1"] = true
	b.cached["g1"]["m"] = true
	b.finish["g1"] = time.Second
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "m"))
	ds := s.Schedule(0)
	if len(ds) != 0 {
		t.Fatalf("expected no dispatch, got %+v", ds)
	}
	if s.LocalQueueLen("g1") != 1 {
		t.Errorf("local queue g1 = %d", s.LocalQueueLen("g1"))
	}
	if s.Counters().LocalQueueMoves != 1 {
		t.Errorf("moves = %d", s.Counters().LocalQueueMoves)
	}
	if s.PendingTotal() != 1 {
		t.Errorf("PendingTotal = %d", s.PendingTotal())
	}
}

func TestLALBMissesWhenBusyHitSlower(t *testing.T) {
	b := newMock("g0", "g1")
	b.setModel("m", 3*time.Second, time.Second)
	// g1 busy with 10s remaining; loading on g0 (3s) wins.
	b.busy["g1"] = true
	b.cached["g1"]["m"] = true
	b.finish["g1"] = 10 * time.Second
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "m"))
	ds := s.Schedule(0)
	if len(ds) != 1 || ds[0].GPU != "g0" || ds[0].ExpectHit {
		t.Fatalf("dispatch = %+v", ds)
	}
}

func TestLALBFinishEstimateIncludesLocalQueue(t *testing.T) {
	b := newMock("g0", "g1")
	b.setModel("m", 10*time.Second, 4*time.Second)
	b.busy["g1"] = true
	b.cached["g1"]["m"] = true
	b.finish["g1"] = time.Second
	s := newSched(t, LALB, 0, b)
	// First request parks on g1 (finish 1s < load 10s).
	mustEnqueue(t, s, req(0, "m"), req(1, "m"), req(2, "m"))
	s.Schedule(0)
	// Queue estimates: after parking r0, est = 1s + 4s = 5s < 10s, park r1;
	// then est = 9s < 10s, park r2.
	if s.LocalQueueLen("g1") != 3 {
		t.Errorf("local queue = %d", s.LocalQueueLen("g1"))
	}
	// A fourth request would see 13s > 10s and miss onto g0.
	mustEnqueue(t, s, req(3, "m"))
	ds := s.Schedule(0)
	if len(ds) != 1 || ds[0].GPU != "g0" || ds[0].ExpectHit {
		t.Fatalf("dispatch = %+v", ds)
	}
	if got := s.EstimatedFinishWithQueue("g1", 0); got != 13*time.Second {
		t.Errorf("EstimatedFinishWithQueue = %v", got)
	}
}

func TestLocalQueuePriorityOnIdle(t *testing.T) {
	// g0 is busy and caches m; g1 is idle. LLB (run on behalf of idle g1)
	// parks the request on g0 because waiting 1s beats a 3s load.
	b := newMock("g0", "g1")
	b.setModel("m", 3*time.Second, time.Second)
	b.setModel("other", 3*time.Second, time.Second)
	b.busy["g0"] = true
	b.cached["g0"]["m"] = true
	b.finish["g0"] = time.Second
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "m"))
	s.Schedule(0) // parks on g0; g1 stays idle
	if s.LocalQueueLen("g0") != 1 {
		t.Fatal("expected parked request")
	}
	// g0 completes; another request waits in the global queue. The local
	// queue must win (Algorithm 1 lines 2-4).
	b.busy["g0"] = false
	b.finish["g0"] = 0
	mustEnqueue(t, s, req(1, "other"))
	ds := s.Schedule(sim.Time(2 * time.Second))
	if len(ds) == 0 || !ds[0].FromLocalQueue || ds[0].Req.ID != 0 {
		t.Fatalf("dispatches = %+v", ds)
	}
	if s.LocalQueueLen("g0") != 0 {
		t.Error("local queue should drain")
	}
}

func TestO3JumpsQueueForCacheHit(t *testing.T) {
	b := newMock("g0")
	b.setModel("cold", 3*time.Second, time.Second)
	b.setModel("hot", 3*time.Second, time.Second)
	b.cached["g0"]["hot"] = true
	s := newSched(t, LALBO3, 25, b)
	mustEnqueue(t, s, req(0, "cold"), req(1, "hot"))
	ds := s.Schedule(0)
	// O3: the hot request (id 1) jumps ahead onto g0 as a hit.
	if len(ds) == 0 || ds[0].Req.ID != 1 || !ds[0].ExpectHit {
		t.Fatalf("dispatches = %+v", ds)
	}
	if s.Counters().O3Dispatches != 1 {
		t.Errorf("O3Dispatches = %d", s.Counters().O3Dispatches)
	}
	// The cold request was skipped once.
	head := s.global.at(s.global.headPos())
	if s.GlobalQueueLen() != 1 || head.Visits() != 1 {
		t.Errorf("queue=%d visits=%d", s.GlobalQueueLen(), head.Visits())
	}
}

func TestLALBInOrderNoJump(t *testing.T) {
	b := newMock("g0")
	b.setModel("cold", 3*time.Second, time.Second)
	b.setModel("hot", 3*time.Second, time.Second)
	b.cached["g0"]["hot"] = true
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "cold"), req(1, "hot"))
	ds := s.Schedule(0)
	// In-order: head (cold) must be served first even though hot would hit.
	if len(ds) != 1 || ds[0].Req.ID != 0 || ds[0].ExpectHit {
		t.Fatalf("dispatches = %+v", ds)
	}
}

func TestO3StarvationLimit(t *testing.T) {
	b := newMock("g0")
	b.setModel("cold", 3*time.Second, time.Second)
	b.setModel("hot", 3*time.Second, time.Second)
	b.cached["g0"]["hot"] = true
	limit := 3
	s := newSched(t, LALBO3, limit, b)
	if s.O3Limit() != 3 {
		t.Fatalf("O3Limit = %d", s.O3Limit())
	}
	if err := s.Enqueue(req(0, "cold")); err != nil {
		t.Fatal(err)
	}
	// Repeatedly arrive hot requests; cold gets skipped `limit` times,
	// then must be force-dispatched.
	for i := 1; ; i++ {
		if err := s.Enqueue(req(int64(i), "hot")); err != nil {
			t.Fatal(err)
		}
		ds := s.Schedule(0)
		if len(ds) == 0 {
			t.Fatal("no dispatch")
		}
		d := ds[0]
		b.busy["g0"] = false // complete instantly for the next round
		if d.Req.ID == 0 {
			// cold finally dispatched; must have been skipped exactly
			// `limit` times.
			if d.Req.Visits() != limit {
				t.Errorf("visits = %d, want %d", d.Req.Visits(), limit)
			}
			if i != limit+1 {
				t.Errorf("cold dispatched on round %d, want %d", i, limit+1)
			}
			if s.Counters().Starved != 1 {
				t.Errorf("starved = %d", s.Counters().Starved)
			}
			return
		}
		if i > limit+2 {
			t.Fatal("cold request starved beyond the limit")
		}
	}
}

func TestLLBFallbackMissOnIdle(t *testing.T) {
	// Model cached on a busy GPU but waiting is slower than loading:
	// during the "no cached request" drain the request must land on the
	// idle GPU as a miss.
	b := newMock("g0", "g1")
	b.setModel("m", time.Second, time.Second) // cheap load
	b.busy["g1"] = true
	b.cached["g1"]["m"] = true
	b.finish["g1"] = 30 * time.Second
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "m"))
	ds := s.Schedule(0)
	if len(ds) != 1 || ds[0].GPU != "g0" || ds[0].ExpectHit {
		t.Fatalf("dispatches = %+v", ds)
	}
}

func TestScheduleDrainsMultipleGPUs(t *testing.T) {
	b := newMock("g0", "g1", "g2")
	for _, m := range []string{"a", "b", "c"} {
		b.setModel(m, 3*time.Second, time.Second)
	}
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "a"), req(1, "b"), req(2, "c"))
	ds := s.Schedule(0)
	if len(ds) != 3 {
		t.Fatalf("dispatches = %d", len(ds))
	}
	used := map[string]bool{}
	for _, d := range ds {
		if used[d.GPU] {
			t.Errorf("GPU %s dispatched twice in one round", d.GPU)
		}
		used[d.GPU] = true
	}
}

func TestScheduleNoIdleGPUs(t *testing.T) {
	b := newMock("g0")
	b.busy["g0"] = true
	b.setModel("m", time.Second, time.Second)
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "m"))
	if ds := s.Schedule(0); len(ds) != 0 {
		t.Fatalf("dispatches = %+v", ds)
	}
	if s.GlobalQueueLen() != 1 {
		t.Error("request should remain queued")
	}
}

func TestScheduleEmptyQueue(t *testing.T) {
	s := newSched(t, LALBO3, 25, newMock("g0", "g1"))
	if ds := s.Schedule(0); len(ds) != 0 {
		t.Fatalf("dispatches = %+v", ds)
	}
}

func TestLLBPrefersOtherIdleCachedGPU(t *testing.T) {
	// Head request's model cached on idle g2: LLB from g0 must send it to
	// g2 as a hit, then g0 itself stays available for the next request.
	b := newMock("g0", "g1", "g2")
	b.setModel("m", 3*time.Second, time.Second)
	b.setModel("n", 3*time.Second, time.Second)
	b.cached["g2"]["m"] = true
	s := newSched(t, LALB, 0, b)
	mustEnqueue(t, s, req(0, "m"), req(1, "n"))
	ds := s.Schedule(0)
	if len(ds) != 2 {
		t.Fatalf("dispatches = %+v", ds)
	}
	var hitGPU, missGPU string
	for _, d := range ds {
		if d.Req.ID == 0 {
			hitGPU = d.GPU
			if !d.ExpectHit {
				t.Error("request 0 should hit")
			}
		} else {
			missGPU = d.GPU
		}
	}
	if hitGPU != "g2" {
		t.Errorf("hit went to %s", hitGPU)
	}
	if missGPU == "g2" {
		t.Error("miss collided with the hit GPU")
	}
}

func mustEnqueue(t *testing.T, s *Scheduler, rs ...*Request) {
	t.Helper()
	for _, r := range rs {
		if err := s.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetryPolicyEdges pins where retry starts: MaxAttempts counts the
// first try, so a budget of one grants no retry at all.
func TestRetryPolicyEdges(t *testing.T) {
	for _, tc := range []struct {
		max     int
		enabled bool
	}{{0, false}, {1, false}, {2, true}} {
		p := RetryPolicy{MaxAttempts: tc.max}
		if p.Enabled() != tc.enabled {
			t.Errorf("RetryPolicy{MaxAttempts: %d}.Enabled() = %v, want %v", tc.max, p.Enabled(), tc.enabled)
		}
		if p.Allows(1) != (tc.max >= 2) {
			t.Errorf("RetryPolicy{MaxAttempts: %d}.Allows(1) = %v after one lost attempt", tc.max, p.Allows(1))
		}
	}
}
