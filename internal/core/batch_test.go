package core

import (
	"testing"
	"time"

	"gpufaas/internal/sim"
)

// drainBatches runs Schedule rounds until a round dispatches nothing and
// holds every dispatch to the batch cap, returning the requests dispatched
// and the largest launch seen.
func drainBatches(t *testing.T, s *Scheduler, maxBatch int) (dispatched, largest int) {
	t.Helper()
	for round := 1; ; round++ {
		ds := s.Schedule(sim.Time(round))
		if len(ds) == 0 {
			return dispatched, largest
		}
		for _, d := range ds {
			if d.Members() > maxBatch {
				t.Fatalf("round %d: dispatch of %d on %s builds a launch of %d members, cap %d",
					round, d.Req.ID, d.GPU, d.Members(), maxBatch)
			}
			dispatched += d.Members()
			largest = max(largest, d.Members())
		}
	}
}

// TestBatchCapHolds pins MaxBatch on every coalescing path: the queue walk
// of a shallow global queue, the per-model index a deep one switches on,
// and a busy GPU's parked same-model requests.
func TestBatchCapHolds(t *testing.T) {
	const maxBatch = 4

	for _, tc := range []struct {
		name    string
		queued  int
		indexed bool
	}{
		{"walk", 2*maxBatch + 1, false},
		{"indexed", 3 * indexActivateLen, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newMock("g0")
			b.setModel("m", time.Second, time.Millisecond)
			b.cached["g0"]["m"] = true
			s, err := New(Config{Policy: LALB, MaxBatch: maxBatch}, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < int64(tc.queued); i++ {
				mustEnqueue(t, s, req(i, "m"))
			}
			if s.indexed != tc.indexed {
				t.Fatalf("a queue of %d has the per-model index on = %v, want %v", tc.queued, s.indexed, tc.indexed)
			}
			dispatched, largest := drainBatches(t, s, maxBatch)
			if dispatched != tc.queued || largest != maxBatch {
				t.Errorf("dispatched %d of %d requests, largest launch %d; want all, in full launches of %d",
					dispatched, tc.queued, largest, maxBatch)
			}
		})
	}

	t.Run("local queue", func(t *testing.T) {
		// g0 is busy but caches m; a load on idle g1 costs far more than
		// waiting, so every request parks on g0.
		const parked = 3*maxBatch + 1
		b := newMock("g0", "g1")
		b.setModel("m", time.Hour, time.Millisecond)
		b.busy["g0"] = true
		b.cached["g0"]["m"] = true
		b.finish["g0"] = time.Millisecond
		s, err := New(Config{Policy: LALB, MaxBatch: maxBatch}, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < parked; i++ {
			mustEnqueue(t, s, req(i, "m"))
		}
		if ds := s.Schedule(0); len(ds) != 0 || s.LocalQueueLen("g0") != parked {
			t.Fatalf("%d dispatches and %d parked on g0; want none and %d", len(ds), s.LocalQueueLen("g0"), parked)
		}
		b.busy["g0"], b.finish["g0"] = false, 0
		dispatched, largest := drainBatches(t, s, maxBatch)
		if dispatched != parked || largest != maxBatch {
			t.Errorf("dispatched %d of %d parked requests, largest launch %d; want all, in full launches of %d",
				dispatched, parked, largest, maxBatch)
		}
	})
}
