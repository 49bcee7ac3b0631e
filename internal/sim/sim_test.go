package sim

import (
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.After(3*time.Second, "c", func(Time) { got = append(got, 3) })
	e.After(1*time.Second, "a", func(Time) { got = append(got, 1) })
	e.After(2*time.Second, "b", func(Time) { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("Fired = %d", e.Fired())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, "tie", func(Time) { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.After(time.Second, "outer", func(now Time) {
		trace = append(trace, "outer")
		e.After(time.Second, "inner", func(Time) { trace = append(trace, "inner") })
	})
	e.Run(0)
	if len(trace) != 2 || trace[0] != "outer" || trace[1] != "inner" {
		t.Fatalf("trace = %v", trace)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEnginePastEventRejected(t *testing.T) {
	e := New()
	e.After(5*time.Second, "later", func(Time) {})
	e.Step()
	if _, err := e.At(time.Second, "past", func(Time) {}); err == nil {
		t.Fatal("want error scheduling into the past")
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := New()
	fired := false
	e.After(-time.Second, "neg", func(now Time) {
		fired = true
		if now != 0 {
			t.Errorf("fired at %v, want 0", now)
		}
	})
	e.Run(0)
	if !fired {
		t.Fatal("clamped event did not fire")
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := 0
	ev := e.After(time.Second, "x", func(Time) { fired++ })
	e.After(2*time.Second, "y", func(Time) { fired++ })
	if !e.Scheduled(ev) {
		t.Error("event should be scheduled before cancel")
	}
	e.Cancel(ev)
	if e.Scheduled(ev) {
		t.Error("event should not be scheduled after cancel")
	}
	e.Cancel(ev)       // cancel-twice is a no-op
	e.Cancel(Handle{}) // zero handle is "no event"
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestEngineCancelAfterFireNoop(t *testing.T) {
	e := New()
	ev := e.After(time.Second, "x", func(Time) {})
	e.Run(0)
	if e.Scheduled(ev) {
		t.Error("fired event still reports scheduled")
	}
	e.Cancel(ev) // must not panic or corrupt the heap
	e.After(time.Second, "y", func(Time) {})
	if e.Run(0) != 1 {
		t.Fatal("engine corrupted after cancelling a fired event")
	}
}

// TestEngineStaleHandleAfterReuse: the arena recycles a fired event's
// slot; cancelling through the stale handle must not touch the slot's new
// occupant (the generation stamp protects it).
func TestEngineStaleHandleAfterReuse(t *testing.T) {
	e := New()
	stale := e.After(time.Second, "old", func(Time) {})
	e.Run(0) // fires "old", releasing its slot to the free list
	fired := false
	fresh := e.After(time.Second, "new", func(Time) { fired = true })
	e.Cancel(stale) // stale generation: must be inert
	if !e.Scheduled(fresh) {
		t.Fatal("stale cancel killed the slot's new occupant")
	}
	e.Cancel(stale) // cancel-twice on a stale handle, still inert
	e.Run(0)
	if !fired {
		t.Fatal("reused-slot event did not fire")
	}
}

// TestEngineFIFOUnderInterleavedCancels: same-timestamp events keep their
// scheduling order even when events between them are cancelled (heap
// removals must not disturb the (at, seq) total order).
func TestEngineFIFOUnderInterleavedCancels(t *testing.T) {
	e := New()
	var got []int
	var hs []Handle
	for i := 0; i < 20; i++ {
		i := i
		hs = append(hs, e.After(time.Second, "tie", func(Time) { got = append(got, i) }))
	}
	var want []int
	for i := range hs {
		if i%3 == 1 { // cancel a strided subset between survivors
			e.Cancel(hs[i])
		} else {
			want = append(want, i)
		}
	}
	e.Run(0)
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-time events reordered after cancels: %v, want %v", got, want)
		}
	}
}

// TestRunUntilClockAtDeadline: RunUntil with no events in range must still
// advance the clock to the deadline, and an event exactly at the deadline
// is delivered.
func TestRunUntilClockAtDeadline(t *testing.T) {
	e := New()
	if n := e.RunUntil(time.Second); n != 0 || e.Now() != time.Second {
		t.Fatalf("empty RunUntil: n=%d now=%v", n, e.Now())
	}
	fired := false
	e.After(time.Second, "edge", func(now Time) {
		fired = true
		if now != 2*time.Second {
			t.Errorf("fired at %v", now)
		}
	})
	e.After(5*time.Second, "beyond", func(Time) {})
	if n := e.RunUntil(2 * time.Second); n != 1 || !fired {
		t.Fatalf("deadline-edge event: n=%d fired=%v", n, fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("clock = %v, want the deadline", e.Now())
	}
}

// TestAfterBatchMatchesSequentialAfter: an AfterBatch delivery is
// indistinguishable from the equivalent loop of After calls, including
// FIFO tie-breaks and interleaving with already-queued events.
func TestAfterBatchMatchesSequentialAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		delays := make([]Time, rng.Intn(64))
		for i := range delays {
			delays[i] = Time(rng.Intn(8)) * time.Second
		}
		runSeq := func(batch bool) []int {
			e := New()
			var got []int
			e.After(3*time.Second, "pre", func(Time) { got = append(got, -1) })
			if batch {
				e.AfterBatch(delays, "b", func(i int, _ Time) { got = append(got, i) })
			} else {
				for i, d := range delays {
					i := i
					e.After(d, "b", func(Time) { got = append(got, i) })
				}
			}
			e.Run(0)
			return got
		}
		seq, bat := runSeq(false), runSeq(true)
		if len(seq) != len(bat) {
			t.Fatalf("trial %d: lengths differ: %v vs %v", trial, seq, bat)
		}
		for i := range seq {
			if seq[i] != bat[i] {
				t.Fatalf("trial %d: order differs at %d: seq=%v batch=%v", trial, i, seq, bat)
			}
		}
	}
}

// TestAfterBatchEdgeCases: empty batches and negative delays (clamped like
// After).
func TestAfterBatchEdgeCases(t *testing.T) {
	e := New()
	e.AfterBatch(nil, "empty", func(int, Time) { t.Error("empty batch fired") })
	if e.Pending() != 0 {
		t.Fatal("empty batch queued events")
	}
	var got []int
	e.AfterBatch([]Time{-time.Second, 0}, "neg", func(i int, now Time) {
		if now != 0 {
			t.Errorf("element %d fired at %v, want 0", i, now)
		}
		got = append(got, i)
	})
	e.Run(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("fired %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Time{time.Second, 2 * time.Second, 5 * time.Second} {
		e.After(d, "x", func(now Time) { fired = append(fired, now) })
	}
	n := e.RunUntil(3 * time.Second)
	if n != 2 || len(fired) != 2 {
		t.Fatalf("delivered %d, fired %v", n, fired)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("clock should sit at the deadline, got %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run(0)
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestRunBudget(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.After(Time(i)*time.Millisecond, "x", func(Time) {})
	}
	if n := e.Run(4); n != 4 {
		t.Fatalf("budget run delivered %d", n)
	}
	if e.Pending() != 6 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

// Property: regardless of insertion order, events fire in timestamp order
// with FIFO tie-breaking, and the clock is monotone.
func TestEngineTimestampOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []Time
		for _, d := range delays {
			e.After(Time(d)*time.Millisecond, "p", func(now Time) { fired = append(fired, now) })
		}
		e.Run(0)
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the others firing.
func TestEngineCancelSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(n uint8) bool {
		e := New()
		count := int(n%50) + 1
		fired := make([]bool, count)
		evs := make([]Handle, count)
		for i := 0; i < count; i++ {
			i := i
			evs[i] = e.After(Time(rng.Intn(1000))*time.Millisecond, "p", func(Time) { fired[i] = true })
		}
		cancelled := make([]bool, count)
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		e.Run(0)
		for i := 0; i < count; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimClock(t *testing.T) {
	e := New()
	c := SimClock{E: e}
	var at Time
	AfterFunc(c, 2*time.Second, "t", func(now Time) { at = now })
	e.Run(0)
	if at != 2*time.Second {
		t.Fatalf("fired at %v", at)
	}
	if c.Now() != 2*time.Second {
		t.Errorf("Now = %v", c.Now())
	}

	var fired bool
	cancel := AfterFunc(c, time.Second, "t2", func(Time) { fired = true })
	cancel()
	e.Run(0)
	if fired {
		t.Error("cancelled SimClock timer fired")
	}
}

func TestRealClock(t *testing.T) {
	c := NewRealClock()
	done := make(chan Time, 1)
	AfterFunc(c, 5*time.Millisecond, "t", func(now Time) { done <- now })
	select {
	case at := <-done:
		if at < 4*time.Millisecond {
			t.Errorf("fired too early: %v", at)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RealClock timer never fired")
	}
	cancel := AfterFunc(c, 50*time.Millisecond, "t2", func(Time) { t.Error("cancelled timer fired") })
	cancel()
	time.Sleep(80 * time.Millisecond)
}

// TestTimerContract drives one Timer through every arm/stop sequence its
// users rely on, on both clocks: the GPU manager keeps two timers per GPU
// and re-arms them for every launch.
func TestTimerContract(t *testing.T) {
	const soon = 5 * time.Millisecond
	e := New()
	var fires atomic.Int64
	for _, tc := range []struct {
		name  string
		clock Clock
		// settle lets the clock reach the want-th firing and a while
		// beyond it, so one firing too many shows as well.
		settle func(want int64)
	}{
		{"sim", SimClock{E: e}, func(int64) { e.RunUntil(e.Now() + time.Minute) }},
		{"real", NewRealClock(), func(want int64) {
			for deadline := time.Now().Add(2 * time.Second); fires.Load() < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(6 * soon)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fires.Store(0)
			tm := tc.clock.NewTimer("contract", func(Time) { fires.Add(1) })
			expect := func(step string, want int64) {
				t.Helper()
				tc.settle(want)
				if got := fires.Load(); got != want {
					t.Fatalf("%s: %d firings, want %d", step, got, want)
				}
			}
			tm.Stop()
			expect("Stop before any Reset", 0)
			tm.Reset(soon)
			expect("Reset", 1)
			tm.Stop()
			expect("Stop after fire", 1)
			tm.Reset(soon)
			expect("Reset after fire", 2)
			tm.Reset(time.Hour)
			tm.Reset(soon)
			expect("Reset while pending", 3)
			tm.Reset(time.Hour)
			tm.Stop()
			expect("Stop while pending", 3)
			tm.Reset(soon)
			expect("Reset after Stop", 4)
		})
	}
}

// TestSimTimerOrder: timers reset at the same instant fire in reset order,
// whatever order they were created in — each Reset is one engine event.
func TestSimTimerOrder(t *testing.T) {
	e := New()
	c := SimClock{E: e}
	var order []string
	a := c.NewTimer("a", func(Time) { order = append(order, "a") })
	b := c.NewTimer("b", func(Time) { order = append(order, "b") })
	b.Reset(time.Second)
	a.Reset(time.Second)
	e.Run(0)
	a.Reset(time.Second)
	b.Reset(time.Second)
	e.Run(0)
	if got := strings.Join(order, ""); got != "baab" {
		t.Errorf("firing order %q, want %q", got, "baab")
	}
}

func TestMaxQueueLen(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Second, "x", func(Time) {})
	}
	e.Run(0)
	if e.MaxQueueLen() != 5 {
		t.Errorf("MaxQueueLen = %d", e.MaxQueueLen())
	}
}
