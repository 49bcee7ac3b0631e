package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gpufaas/internal/core"
	"gpufaas/internal/trace"
)

// sliceSource feeds a pre-built request slice in fixed-size chunks — the
// test double for trace.ArrivalStream.
type sliceSource struct {
	reqs  []trace.Request
	chunk int
	pos   int
}

func (s *sliceSource) Next() ([]trace.Request, bool) {
	if s.pos >= len(s.reqs) {
		return nil, false
	}
	n := s.chunk
	if n <= 0 || n > len(s.reqs)-s.pos {
		n = len(s.reqs) - s.pos
	}
	out := s.reqs[s.pos : s.pos+n]
	s.pos += n
	return out, true
}

// TestRunWorkloadStreamMatchesMaterialized replays the same workload
// through RunWorkload and through RunWorkloadStream at several chunk
// sizes and requires identical reports (modulo the streaming statistics
// themselves): pulling arrivals on demand must not change a single
// scheduling decision. The workload's arrival times are strictly
// increasing (like trace.ArrivalStream's), so chunk boundaries cannot
// split timestamp ties.
func TestRunWorkloadStreamMatchesMaterialized(t *testing.T) {
	reqs := tinyWorkload(120, 170*time.Millisecond, "resnet18", "vgg19", "alexnet", "resnet50")

	base, err := New(testConfig(core.LALBO3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.RunWorkload(reqs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 7, 50, 0} {
		c, err := New(testConfig(core.LALBO3))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.RunWorkloadStream(&sliceSource{reqs: reqs, chunk: chunk})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		st := got.Streaming
		if st == nil {
			t.Fatalf("chunk %d: no streaming stats", chunk)
		}
		if st.Requests != int64(len(reqs)) {
			t.Errorf("chunk %d: injected %d, want %d", chunk, st.Requests, len(reqs))
		}
		if st.ArenaAllocated != st.PeakInflight {
			t.Errorf("chunk %d: allocated %d != peak in-flight %d", chunk, st.ArenaAllocated, st.PeakInflight)
		}
		if st.ArenaAllocated+st.ArenaReused != int64(len(reqs)) {
			t.Errorf("chunk %d: allocated %d + reused %d != %d requests",
				chunk, st.ArenaAllocated, st.ArenaReused, len(reqs))
		}
		got.Streaming = nil
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("chunk %d: streaming report differs from materialized:\n got: %s\nwant: %s",
				chunk, gotJSON, wantJSON)
		}
	}
}

// TestRunWorkloadStreamRecyclesRequests pins the O(in-flight) memory
// claim: tripling the trace length must not grow the arena — fresh
// allocations track the peak in-flight population, which is set by the
// arrival rate and service times, not by how long the trace runs.
func TestRunWorkloadStreamRecyclesRequests(t *testing.T) {
	alloc := func(n int) int64 {
		t.Helper()
		c, err := New(testConfig(core.LALBO3))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunWorkloadStream(&sliceSource{
			reqs:  tinyWorkload(n, 150*time.Millisecond, "resnet18", "vgg19", "alexnet"),
			chunk: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Streaming == nil {
			t.Fatal("no streaming stats")
		}
		return rep.Streaming.ArenaAllocated
	}
	short, long := alloc(150), alloc(450)
	if long > short {
		t.Errorf("arena grew with trace length: %d allocations for 450 requests vs %d for 150", long, short)
	}
	if short >= 150 {
		t.Errorf("arena never recycled: %d allocations for 150 requests", short)
	}
}

// TestRunWorkloadStreamPastArrival: a source yielding an arrival behind
// the engine clock must fail the run, mirroring RunWorkload.
func TestRunWorkloadStreamPastArrival(t *testing.T) {
	c, err := New(testConfig(core.LALBO3))
	if err != nil {
		t.Fatal(err)
	}
	reqs := tinyWorkload(10, 100*time.Millisecond, "resnet18")
	reqs[9].Arrival = reqs[8].Arrival // duplicate is fine...
	if _, err := c.RunWorkloadStream(&sliceSource{reqs: reqs, chunk: 3}); err != nil {
		t.Fatalf("equal-time arrival rejected: %v", err)
	}

	c2, err := New(testConfig(core.LALBO3))
	if err != nil {
		t.Fatal(err)
	}
	bad := tinyWorkload(10, 100*time.Millisecond, "resnet18")
	bad[5].Arrival = -time.Second
	if _, err := c2.RunWorkloadStream(&sliceSource{reqs: bad, chunk: 3}); err == nil {
		t.Fatal("past arrival accepted")
	}

	// An internally-unsorted batch must fail hard too: the refill event
	// rides on the batch's last element, so out-of-order elements would
	// otherwise corrupt the reused injection buffers silently.
	c3, err := New(testConfig(core.LALBO3))
	if err != nil {
		t.Fatal(err)
	}
	unsorted := tinyWorkload(10, 100*time.Millisecond, "resnet18")
	unsorted[4].Arrival, unsorted[5].Arrival = unsorted[5].Arrival, unsorted[4].Arrival
	if _, err := c3.RunWorkloadStream(&sliceSource{reqs: unsorted, chunk: 10}); err == nil {
		t.Fatal("unsorted batch accepted")
	}
}

// TestRunWorkloadSlab holds the materialized replay, whose requests live in
// one slab, to two things on a 2,000-request slice that overloads two GPUs
// with eight models: its report carries the counts measured with one
// allocation per request, and is the streaming replay's (which still hands
// the scheduler pooled requests one at a time); and its allocations do not
// grow with the slice — a constant for the cluster, the run's buffers and
// the cache's warm-up, not one per arrival.
func TestRunWorkloadSlab(t *testing.T) {
	cfg := testConfig(core.LALBO3)
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	reqs := tinyWorkload(2000, 40*time.Millisecond,
		"vgg16", "vgg19", "resnet152", "densenet201", "vgg16.bn", "vgg13", "inception.v3", "resnet101")
	run := func(reqs []trace.Request) Report {
		t.Helper()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunWorkload(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	got := run(reqs)
	if got.Requests != 2000 || got.Failed != 0 || got.Misses != 248 || got.FalseMisses != 0 ||
		got.MaxEventQueueLen != 2002 || got.Makespan != 30*time.Minute+4379999551*time.Nanosecond {
		t.Errorf("report moved: requests %d failed %d misses %d false misses %d max queue %d makespan %v",
			got.Requests, got.Failed, got.Misses, got.FalseMisses, got.MaxEventQueueLen, got.Makespan)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := c.RunWorkloadStream(&sliceSource{reqs: reqs, chunk: 64})
	if err != nil {
		t.Fatal(err)
	}
	streamed.Streaming = nil
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("materialized report differs from streamed:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}

	// Measured 255 and 280 (956 and 3,012 with a request allocated per
	// arrival): the 1,500 extra requests cost the cache's and the queues'
	// last growth steps. The bounds leave those 20 %.
	short := testing.AllocsPerRun(3, func() { run(reqs[:500]) })
	long := testing.AllocsPerRun(3, func() { run(reqs) })
	if long > 340 || long-short > 60 {
		t.Errorf("RunWorkload allocates %.0f times for 500 requests and %.0f for 2000; want <= 340, growing by <= 60", short, long)
	}
}
