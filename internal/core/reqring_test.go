package core

import (
	"math/rand"
	"testing"
)

// TestReqRingTombstoneCompaction drives an adversarial enqueue/extract
// pattern — O3 jumps and LLB placements hollow out the middle of the
// ring while the head lingers — and requires the buffer to stay
// proportional to the live queue depth: tombstones past half the buffer
// trigger a compaction at the next push, and compaction shrinks the
// buffer while the live count fits in a quarter of it.
func TestReqRingTombstoneCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q reqRing
	maxLive := 0
	for round := 0; round < 5000; round++ {
		// Burst of arrivals...
		for i := 0; i < 8; i++ {
			q.push(&Request{ID: int64(round*8 + i)})
		}
		if q.live > maxLive {
			maxLive = q.live
		}
		// ...then extract almost all of them from the middle/back, the
		// O3 pattern: the head request is starved in place while later
		// requests leave, so head never advances and tombstones pile up
		// inside the span.
		for q.live > 2 {
			// Pick a random live position strictly after the head.
			pos := q.headPos() + 1 + rng.Intn(q.tail-q.headPos()-1)
			if q.at(pos) == nil {
				continue
			}
			q.remove(pos)
		}
		if got := len(q.buf); got > 64 {
			t.Fatalf("round %d: buffer grew to %d slots for %d live requests (tombstones %d)",
				round, got, q.live, q.tombstones())
		}
	}
	// Drain and verify the survivors are still intact and ordered.
	var last int64 = -1
	for q.live > 0 {
		r := q.remove(q.headPos())
		if r == nil {
			t.Fatal("head resolved to a tombstone")
		}
		if r.ID <= last {
			t.Fatalf("drain out of arrival order: %d after %d", r.ID, last)
		}
		last = r.ID
	}
}

// TestReqRingShrinksAfterBurst pins the shrink side: a deep burst grows
// the buffer, and once the queue returns to a shallow steady state the
// next compactions hand the memory back.
func TestReqRingShrinksAfterBurst(t *testing.T) {
	var q reqRing
	for i := 0; i < 4096; i++ {
		q.push(&Request{ID: int64(i)})
	}
	grown := len(q.buf)
	if grown < 4096 {
		t.Fatalf("buffer %d did not grow to hold the burst", grown)
	}
	// Drain to a shallow queue, then churn: each push sees a mostly-dead
	// or mostly-empty buffer and compaction walks it back down.
	for q.live > 4 {
		q.remove(q.headPos())
	}
	for i := 0; i < 4096; i++ {
		q.push(&Request{ID: int64(4096 + i)})
		q.remove(q.headPos())
	}
	if len(q.buf) >= grown/4 {
		t.Fatalf("buffer stuck at %d slots after burst (was %d, live %d)", len(q.buf), grown, q.live)
	}
}

// TestReqRingVersionTracksCompaction: every compaction must bump ver —
// that is the signal the scheduler's per-model position index rebuilds
// on, since compaction renumbers every position.
func TestReqRingVersionTracksCompaction(t *testing.T) {
	var q reqRing
	v0 := q.ver
	for i := 0; i < 64; i++ {
		q.push(&Request{ID: int64(i)})
	}
	if q.ver == v0 {
		t.Fatal("growth compaction did not bump ver")
	}
	v1 := q.ver
	// Tombstone more than half the buffer (always extracting the first
	// live request after the head, so the head pins the span), then
	// push: must compact.
	for q.live > 4 {
		pos := q.headPos() + 1
		for q.at(pos) == nil {
			pos++
		}
		q.remove(pos)
	}
	q.push(&Request{ID: 1000})
	if q.ver == v1 {
		t.Fatalf("tombstone-majority push did not compact (tombstones %d, buf %d)", q.tombstones(), len(q.buf))
	}
}

// TestLocalQueueKeepsCapacity: a local queue that fills and drains over
// and over must stop allocating once it has seen its peak depth, and a
// popped entry must not keep its (arena-recycled) request reachable.
func TestLocalQueueKeepsCapacity(t *testing.T) {
	var q localQueue
	reqs := []*Request{{ID: 1}, {ID: 2}, {ID: 3}}
	cycle := func() {
		for _, r := range reqs {
			q.push(parked{req: r})
		}
		for i, r := range reqs {
			if q.len() != len(reqs)-i {
				t.Fatalf("len = %d before pop %d", q.len(), i)
			}
			if got := q.pop().req; got != r {
				t.Fatalf("pop %d = req %d, want %d", i, got.ID, r.ID)
			}
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("fill+drain allocates %.2f allocs/op, want 0", avg)
	}
	// A queue that never fully drains reuses its popped prefix too.
	q.push(parked{req: reqs[0]})
	if avg := testing.AllocsPerRun(100, func() {
		q.push(parked{req: reqs[1]})
		q.pop()
	}); avg != 0 {
		t.Errorf("steady push+pop allocates %.2f allocs/op, want 0", avg)
	}
	q.pop()
	for i, p := range q.buf[:cap(q.buf)] {
		if p.req != nil {
			t.Errorf("drained queue still references req %d at buffer slot %d", p.req.ID, i)
		}
	}
}
