package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := uint64(0); i < 1<<16; i++ {
			spinSink += i * i
		}
	}
}

// TestReadProfile parses a CPU profile captured here and finds the function
// that burned the CPU on the sampled stacks.
func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spinning += s.value
				break
			}
		}
	}
	if total <= 0 {
		t.Fatalf("no CPU time in %d samples", len(samples))
	}
	// Not "most of them": under the race detector many samples stop in
	// its runtime, which has no Go frames above it.
	if spinning == 0 {
		t.Errorf("spinForProfile on none of %d sampled ns", total)
	}
	if _, err := readProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestStackLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Allocation under a layer lands on the layer, helpers on their caller.
		{[]string{"runtime.mallocgc", "gpufaas/internal/ordset.(*Set).Add", "gpufaas/internal/core.(*Scheduler).Schedule", "gpufaas/internal/cluster.(*Cluster).runScheduler"}, "core.cpu_share"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "gpufaas/internal/trace.(*ArrivalStream).Next"}, "trace.cpu_share"},
		{[]string{"gpufaas/internal/tensor.Conv2D", "gpufaas/internal/nn.(*Network).Forward", "gpufaas/internal/faas.(*Watchdog).Handle"}, "nn.cpu_share"},
		{[]string{"gpufaas/internal/cluster.(*Cluster).Submit.func1", "main.closedLoop"}, "cluster.cpu_share"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc_cpu_share"},
		{[]string{"syscall.write", "net.(*conn).Write", "net/http.(*conn).serve"}, "net.http_cpu_share"},
		{[]string{"runtime.futex", "runtime.schedule"}, ""},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
