package faas

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufaas/internal/cluster"
	"gpufaas/internal/core"
	"gpufaas/internal/gpumgr"
	"gpufaas/internal/models"
	"gpufaas/internal/sim"
)

// testAdmitGateway builds a single-cell gateway with admission control.
func testAdmitGateway(t *testing.T, cfg AdmissionConfig) *Gateway {
	t.Helper()
	g, err := NewGateway(GatewayConfig{
		Policy:        "LALBO3",
		TimeScale:     0.001,
		InvokeTimeout: 10 * time.Second,
		Admission:     &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdmissionConfigValidate(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{Admission: &AdmissionConfig{}}); err == nil {
		t.Error("zero MaxConcurrent accepted")
	}
	if _, err := NewGateway(GatewayConfig{Admission: &AdmissionConfig{MaxConcurrent: 1, QueueDepth: -1}}); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := NewGateway(GatewayConfig{Admission: &AdmissionConfig{MaxConcurrent: 1, TenantRate: -1}}); err == nil {
		t.Error("negative tenant rate accepted")
	}
}

// TestAdmissionQueueFull pins the queue_full shed: with the slot held
// and no queue, the next request is rejected immediately with a
// ShedError carrying a Retry-After hint.
func TestAdmissionQueueFull(t *testing.T) {
	a, err := newAdmission(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := a.admit(0, "")
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if _, err := a.admit(0, ""); err == nil {
		t.Fatal("second admit succeeded with the slot held and no queue")
	} else if shed, ok := err.(*ShedError); !ok {
		t.Fatalf("err = %T, want *ShedError", err)
	} else {
		if shed.Reason != "queue_full" {
			t.Errorf("reason = %q, want queue_full", shed.Reason)
		}
		if shed.RetryAfter <= 0 {
			t.Errorf("RetryAfter = %v, want > 0", shed.RetryAfter)
		}
	}
	ca.release(time.Now())
	if _, err := a.admit(0, ""); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	st := a.stats()[0]
	if st.ShedQueueFull != 1 || st.ShedTotal() != 1 {
		t.Errorf("stats = %+v, want one queue_full shed", st)
	}
}

// TestAdmissionDeadline pins both deadline sheds: the waiting form (a
// queued request times out after MaxWait) and the immediate form (the
// EWMA estimator predicts the wait exceeds MaxWait, so the request
// never queues at all).
func TestAdmissionDeadline(t *testing.T) {
	a, err := newAdmission(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 8, MaxWait: 20 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.admit(0, ""); err != nil { // hold the slot
		t.Fatal(err)
	}
	start := time.Now()
	_, err = a.admit(0, "")
	shed, ok := err.(*ShedError)
	if !ok || shed.Reason != "deadline" {
		t.Fatalf("err = %v, want deadline shed", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("shed after %v, want ~MaxWait (cold EWMA must wait, not guess)", waited)
	}

	// Teach the estimator a service time far beyond the deadline: the
	// next overflow is shed without waiting.
	a.cells[0].ewmaNs.Store(int64(time.Second))
	start = time.Now()
	if _, err := a.admit(0, ""); err == nil {
		t.Fatal("admit succeeded past a saturated estimator")
	}
	if waited := time.Since(start); waited > 10*time.Millisecond {
		t.Errorf("immediate shed took %v, want instant", waited)
	}
	if st := a.stats()[0]; st.ShedDeadline != 2 {
		t.Errorf("ShedDeadline = %d, want 2", st.ShedDeadline)
	}
}

// TestAdmissionTenantBucket pins the §VI-style per-tenant token
// buckets: burst tokens admit, then the tenant is shed while other
// tenants are untouched.
func TestAdmissionTenantBucket(t *testing.T) {
	a, err := newAdmission(AdmissionConfig{MaxConcurrent: 8, TenantRate: 0.001, TenantBurst: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ca, err := a.admit(0, "alice")
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		ca.release(time.Now())
	}
	_, err = a.admit(0, "alice")
	shed, ok := err.(*ShedError)
	if !ok || shed.Reason != "tenant_quota" {
		t.Fatalf("err = %v, want tenant_quota shed", err)
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", shed.RetryAfter)
	}
	if _, err := a.admit(0, "bob"); err != nil {
		t.Errorf("bob shed by alice's bucket: %v", err)
	}
	if st := a.stats()[0]; st.ShedTenant != 1 {
		t.Errorf("ShedTenant = %d, want 1", st.ShedTenant)
	}
}

// TestInvokeShedHTTP pins the HTTP mapping: a shed invocation is 429
// Too Many Requests with a Retry-After delay-seconds header.
func TestInvokeShedHTTP(t *testing.T) {
	g := testAdmitGateway(t, AdmissionConfig{MaxConcurrent: 1, QueueDepth: 0})
	if _, err := g.Deploy(FunctionSpec{Name: "echo", Handler: HandlerEcho}); err != nil {
		t.Fatal(err)
	}
	// Occupy the cell's only slot so the HTTP invocation overflows.
	g.admit.cells[0].slots <- struct{}{}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	res, err := http.Post(srv.URL+"/function/echo", "application/json", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", res.StatusCode)
	}
	ra, err := strconv.Atoi(res.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", res.Header.Get("Retry-After"))
	}
	<-g.admit.cells[0].slots
	res2, err := http.Post(srv.URL+"/function/echo", "application/json", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Errorf("status after slot freed = %d, want 200", res2.StatusCode)
	}
}

// TestInvokeTenantHeaderHTTP routes the X-Tenant header into the token
// buckets.
func TestInvokeTenantHeaderHTTP(t *testing.T) {
	g := testAdmitGateway(t, AdmissionConfig{MaxConcurrent: 8, TenantRate: 0.001, TenantBurst: 1})
	if _, err := g.Deploy(FunctionSpec{Name: "echo", Handler: HandlerEcho}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	post := func(tenant string) int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/function/echo", strings.NewReader("x"))
		req.Header.Set("X-Tenant", tenant)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.StatusCode
	}
	if s := post("alice"); s != http.StatusOK {
		t.Fatalf("alice #1 = %d", s)
	}
	if s := post("alice"); s != http.StatusTooManyRequests {
		t.Fatalf("alice #2 = %d, want 429 (burst 1 spent)", s)
	}
	if s := post("bob"); s != http.StatusOK {
		t.Fatalf("bob = %d, want 200 (own bucket)", s)
	}
}

// TestInvokeBodyLimit pins the handleInvoke bugfix: oversized bodies
// are an explicit 413, not a silent truncation.
func TestInvokeBodyLimit(t *testing.T) {
	g, err := NewGateway(GatewayConfig{TimeScale: 0.001, MaxBodyBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Deploy(FunctionSpec{Name: "echo", Handler: HandlerEcho}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	res, err := http.Post(srv.URL+"/function/echo", "application/octet-stream", bytes.NewReader(make([]byte, 256)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", res.StatusCode)
	}

	payload := bytes.Repeat([]byte("a"), 128) // exactly at the cap
	res, err = http.Post(srv.URL+"/function/echo", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("at-cap body: status = %d, want 200", res.StatusCode)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("echo returned %d bytes, want the %d-byte payload intact", len(body), len(payload))
	}
}

// TestPrometheusMetricsAdmission extends the exposition contract to the
// admission series: shed counters (by reason and cell) and the
// queue-depth/in-flight gauges parse cleanly and carry the shed we
// induce.
func TestPrometheusMetricsAdmission(t *testing.T) {
	g := testAdmitGateway(t, AdmissionConfig{MaxConcurrent: 1, QueueDepth: 0})
	if _, err := g.Deploy(FunctionSpec{Name: "echo", Handler: HandlerEcho}); err != nil {
		t.Fatal(err)
	}
	g.admit.cells[0].slots <- struct{}{}
	if _, err := g.Invoke("echo", InvokeRequest{}); err == nil {
		t.Fatal("invoke admitted with the slot held")
	}
	<-g.admit.cells[0].slots

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	fams := scrape(t, srv)
	for fam, typ := range map[string]string{
		"gpufaas_requests_shed_total":   "counter",
		"gpufaas_admission_queue_depth": "gauge",
		"gpufaas_admission_inflight":    "gauge",
	} {
		got, ok := fams[fam]
		if !ok {
			t.Errorf("family %s missing", fam)
			continue
		}
		if got.typ != typ {
			t.Errorf("%s: TYPE %s, want %s", fam, got.typ, typ)
		}
	}
	shed := fams["gpufaas_requests_shed_total"].samples
	if v := shed[`gpufaas_requests_shed_total{reason="queue_full",cell="0"}`]; v != 1 {
		t.Errorf("queue_full shed counter = %g, want 1", v)
	}
	// Every reason appears even at zero, so rate() has an origin.
	for _, reason := range []string{"deadline", "tenant_quota"} {
		key := fmt.Sprintf(`gpufaas_requests_shed_total{reason=%q,cell="0"}`, reason)
		if v, ok := shed[key]; !ok || v != 0 {
			t.Errorf("%s = %g (present=%v), want 0", key, v, ok)
		}
	}
	if v := fams["gpufaas_admission_queue_depth"].samples[`gpufaas_admission_queue_depth{cell="0"}`]; v != 0 {
		t.Errorf("queue depth = %g, want 0 at idle", v)
	}
}

// TestArenaSteadyState pins the allocation discipline on the GPU path:
// sequential invocations share one arena request — Allocated stays at
// the peak in-flight count (1) while Reused grows.
func TestArenaSteadyState(t *testing.T) {
	g := testGateway(t)
	if _, err := g.Deploy(FunctionSpec{Name: "fn", GPUEnabled: true, Model: "resnet18", BatchSize: 2}); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := g.Invoke("fn", InvokeRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	st := g.ArenaStats()
	if st.Allocated != 1 {
		t.Errorf("Allocated = %d, want 1 (sequential invokes share one request)", st.Allocated)
	}
	if st.Reused != n-1 {
		t.Errorf("Reused = %d, want %d", st.Reused, n-1)
	}
	if st.Live != 0 {
		t.Errorf("Live = %d, want 0 after drain", st.Live)
	}
}

// TestDropFailsFast pins the OnDrop hook: a dispatch the GPU manager
// rejects (model cannot fit the device even after evicting everything)
// fails the invocation immediately instead of holding the waiter — and
// its arena slot — until the invoke timeout.
func TestDropFailsFast(t *testing.T) {
	g, err := NewGateway(GatewayConfig{
		TimeScale:     0.001,
		GPUMemory:     1, // no model fits: every dispatch drops
		InvokeTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Deploy(FunctionSpec{Name: "fn", GPUEnabled: true, Model: "resnet18", BatchSize: 2}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = g.Invoke("fn", InvokeRequest{})
	if err == nil {
		t.Fatal("invoke succeeded on a cluster no model fits")
	}
	if !strings.Contains(err.Error(), "dropped") {
		t.Errorf("err = %v, want a dropped-dispatch error", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("drop took %v — waiter rode out the timeout instead of failing fast", waited)
	}
	if st := g.ArenaStats(); st.Live != 0 {
		t.Errorf("arena Live = %d, want 0 (drop must recycle)", st.Live)
	}
}

// TestInvokeParallelChurn runs concurrent invocations against
// Deploy/Remove/Scale/Update churn; under -race this pins the lock-free
// hot path (satellite: the old global mutex is gone, so nothing
// serializes — or protects — cross-function state by accident).
func TestInvokeParallelChurn(t *testing.T) {
	g := testGateway(t)
	if _, err := g.Deploy(FunctionSpec{Name: "stable", Handler: HandlerEcho}); err != nil {
		t.Fatal(err)
	}
	// Fixed per-worker iteration counts (not run-until-stopped): on a
	// single-CPU runner a stop-channel loop can close before the workers
	// are ever scheduled, proving nothing.
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := g.Invoke("stable", InvokeRequest{Body: []byte("x")}); err != nil {
					t.Errorf("invoke stable: %v", err)
					return
				}
			}
		}()
	}
	// Churn other functions and rescale the stable one while the
	// invokers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("churn-%d", i%4)
			if _, err := g.Deploy(FunctionSpec{Name: name, Handler: HandlerEcho}); err != nil {
				t.Errorf("deploy %s: %v", name, err)
				return
			}
			if _, err := g.Invoke(name, InvokeRequest{}); err != nil {
				t.Errorf("invoke %s: %v", name, err)
				return
			}
			if _, err := g.Scale("stable", i%3+1); err != nil {
				t.Errorf("scale: %v", err)
				return
			}
			if err := g.Remove(name); err != nil {
				t.Errorf("remove %s: %v", name, err)
				return
			}
		}
	}()
	wg.Wait()
	fn, err := g.registry.Get("stable")
	if err != nil {
		t.Fatal(err)
	}
	if fn.Invocations != workers*perWorker {
		t.Errorf("stable invocations = %d, want %d (atomic counter must not drop under churn)", fn.Invocations, workers*perWorker)
	}
}

// TestGatewayInvokeAllocs pins the steady-state allocation cost of one
// live invocation on the echo path (admission enabled), which never
// reaches the GPU cluster: the watchdog's invocation record — the key
// copy, the value copy and the datastore entry — is most of its 4
// allocs/op. The bound has headroom for map-growth amortization;
// reintroducing a per-invoke request allocation, JSON marshal, or
// unpooled channel/timer blows well past it. A GPU function's invoke
// costs more — the completion record and the reply — and is pinned by
// TestGatewayInferenceInvokeAllocs.
func TestGatewayInvokeAllocs(t *testing.T) {
	g := testAdmitGateway(t, AdmissionConfig{MaxConcurrent: 4, QueueDepth: 8})
	if _, err := g.Deploy(FunctionSpec{Name: "echo", Handler: HandlerEcho}); err != nil {
		t.Fatal(err)
	}
	req := InvokeRequest{Body: []byte("ping")}
	// Warm the pools (record buffer, admission state).
	for i := 0; i < 32; i++ {
		if _, err := g.Invoke("echo", req); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := g.Invoke("echo", req); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 8
	if avg > maxAllocs {
		t.Errorf("echo invoke allocs/op = %.1f, want <= %d", avg, maxAllocs)
	}
}

// TestInferenceHandlerAllocs pins what the CPU side of an inference invoke
// leaves on the heap once the function is warm: the default image batch,
// the []int of classes and the JSON reply — no float32 buffer. One input
// tensor is 12 kB and one pass's activations 200 kB, so the bound is on
// bytes as well as objects.
func TestInferenceHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	w := NewWatchdog(FunctionSpec{Name: "cpu", Handler: HandlerInference, Model: "resnet18", BatchSize: 1}, nil, nil, nil)
	invoke := func() {
		resp, err := w.handleInference(InvokeRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Predictions) != 1 {
			t.Fatalf("predictions = %v", resp.Predictions)
		}
	}
	// One P, as testing.AllocsPerRun arranges: a sync.Pool keeps a slot per
	// P, so a goroutine that migrates mid-measurement finds its pools empty.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	invoke() // builds the network, sizes its workspace, fills the input pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		invoke()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if objects > 10 || bytes > 1024 {
		t.Errorf("inference handler allocates %.1f objects / %.0f B per invoke, want <= 10 / 1024", objects, bytes)
	}
}

// TestPredictAllocs bounds what the live control plane under a warm
// Predict leaves on the heap: client lock and arena, Cluster.Submit, the
// scheduling round, the GPU manager's launch into the GPU's resident slot,
// its re-armed completion timer, Route. Nothing in that path allocates per
// call; the bound leaves room for a map or pool refill. A per-launch
// closure, Result copy or timer would each put it past the bound.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	zoo := models.Default()
	clock := sim.NewRealClock()
	var ic *InferenceClient
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.GPUsPerNode = 1, 8
	cfg.Zoo = zoo
	cfg.Profiles = ScaledProfiles(zoo, cluster.DefaultGPUType, 1e-6)
	cfg.Clock = clock
	cfg.OnResult = func(res gpumgr.Result) { ic.Route(res) }
	cfg.OnDrop = func(id int64, err error) { ic.Drop(id, err) }
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ic = NewInferenceClient(c, clock, time.Minute)
	spec := FunctionSpec{Name: "fn", Model: "resnet18"}
	predict := func() {
		if res, err := ic.Predict(spec, 1); err != nil || res.Model != spec.Model {
			t.Fatalf("predict: %+v, %v", res, err)
		}
	}
	// Past the model load and the first use of the GPU's timers, and short
	// of the next growth of the cluster's latency sample (room for 4096).
	for i := 0; i < 64; i++ {
		predict()
	}
	if avg := testing.AllocsPerRun(200, predict); avg > 2 {
		t.Errorf("warm Predict allocs/op = %.2f, want <= 2", avg)
	}
}

// TestConcurrentPredictNeverOutOfOrder: Predict stamps the arrival before
// taking the client lock and submits after releasing it, so concurrent
// callers reach the scheduler in a different order than their stamps.
// Without Cluster.Submit's clamp that is "core: out-of-order enqueue" — a
// failed invoke the caller did nothing to deserve (16 callers on 8 GPUs
// keep the global queue non-empty, which is when the check bites). Every
// Predict must succeed, answer for the model asked, and leave the arena
// empty.
func TestConcurrentPredictNeverOutOfOrder(t *testing.T) {
	g, err := NewGateway(GatewayConfig{Nodes: 1, GPUsPerNode: 8, Policy: "LALBO3", TimeScale: 1e-4, InvokeTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	specs := []FunctionSpec{
		{Name: "a", Model: "squeezenet1.1"}, {Name: "b", Model: "resnet18"},
		{Name: "c", Model: "resnet34"}, {Name: "d", Model: "alexnet"},
	}
	const callers, each = 16, 2000
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			for i := 0; i < each; i++ {
				spec := specs[(c+i)%len(specs)]
				res, err := g.infer.Predict(spec, 1)
				if err == nil && res.Model != spec.Model {
					err = fmt.Errorf("predict for %s answered for %s", spec.Model, res.Model)
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d, predict %d: %w", c, i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if st := g.ArenaStats(); st.Live != 0 {
		t.Errorf("arena Live = %d after every Predict returned, want 0", st.Live)
	}
}

// BenchmarkGatewayInvoke measures the in-process invocation path
// (no network): the echo round trip through admission, the watchdog
// and the metric record.
func BenchmarkGatewayInvoke(b *testing.B) {
	g, err := NewGateway(GatewayConfig{
		TimeScale: 0.001,
		Admission: &AdmissionConfig{MaxConcurrent: 16, QueueDepth: 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Deploy(FunctionSpec{Name: "echo", Handler: HandlerEcho}); err != nil {
		b.Fatal(err)
	}
	req := InvokeRequest{Body: []byte("ping")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Invoke("echo", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayInvokeParallel exercises the same path from many
// goroutines: with per-function state off the global lock, parallel
// throughput should scale instead of serializing.
func BenchmarkGatewayInvokeParallel(b *testing.B) {
	g, err := NewGateway(GatewayConfig{
		TimeScale: 0.001,
		Admission: &AdmissionConfig{MaxConcurrent: 256, QueueDepth: 1024},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Deploy(FunctionSpec{Name: "echo", Handler: HandlerEcho}); err != nil {
		b.Fatal(err)
	}
	req := InvokeRequest{Body: []byte("ping")}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := g.Invoke("echo", req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFailGPURacesCompletionTimer: on the wall clock a launch's completion
// can already be running on its timer goroutine, waiting for the cluster
// lock, when FailGPU interrupts that launch and removes the device — the
// timer can no longer be stopped. The late firing must find nothing to
// complete (it used to complete the interrupted launch on the idle device
// and panic on a goroutine nobody can recover), and every request must
// still end exactly once: completed, or dropped when its retries run out.
func TestFailGPURacesCompletionTimer(t *testing.T) {
	zoo := models.Default()
	var completed, dropped atomic.Int64
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.GPUsPerNode = 1, 4
	cfg.Zoo = zoo
	// Microsecond launches: the timers expire while FailGPU holds the lock.
	cfg.Profiles = ScaledProfiles(zoo, cluster.DefaultGPUType, 1e-6)
	clock := sim.NewRealClock()
	cfg.Clock = clock
	cfg.Retry = core.RetryPolicy{MaxAttempts: 5}
	cfg.OnResult = func(gpumgr.Result) { completed.Add(1) }
	cfg.OnDrop = func(int64, error) { dropped.Add(1) }
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var submitted int64
	for round := 0; round < 300; round++ {
		for i := 0; i < 8; i++ {
			submitted++
			req := &core.Request{ID: submitted, Model: "resnet18", BatchSize: 1, Arrival: clock.Now()}
			if err := c.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		ids := c.GPUIDs()
		if err := c.FailGPU(ids[round%len(ids)]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddGPU("", 0); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); completed.Load()+dropped.Load() < submitted && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if c, d := completed.Load(), dropped.Load(); c+d != submitted {
		t.Errorf("completed %d + dropped %d != submitted %d", c, d, submitted)
	}
}
