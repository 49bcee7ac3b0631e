package cluster

import (
	"testing"
	"time"

	"gpufaas/internal/core"
	"gpufaas/internal/gpumgr"
	"gpufaas/internal/models"
	"gpufaas/internal/sim"
	"gpufaas/internal/stats"
	"gpufaas/internal/trace"
)

func testConfig(p core.Policy) Config {
	cfg := DefaultConfig()
	cfg.Policy = p
	if p == core.LALBO3 {
		cfg.O3Limit = core.DefaultO3Limit
	}
	return cfg
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, GPUsPerNode: 1, GPUMemory: 1},
		{Nodes: 1, GPUsPerNode: 0, GPUMemory: 1},
		{Nodes: 1, GPUsPerNode: 1, GPUMemory: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	cfg := DefaultConfig()
	cfg.CachePolicy = "bogus"
	if _, err := New(cfg); err == nil {
		t.Error("bogus cache policy should fail")
	}
}

func TestTopology(t *testing.T) {
	c, err := New(testConfig(core.LALB))
	if err != nil {
		t.Fatal(err)
	}
	ids := c.GPUIDs()
	if len(ids) != 12 {
		t.Fatalf("GPUs = %d, want 12", len(ids))
	}
	if ids[0] != "node0/gpu0" || ids[11] != "node2/gpu3" {
		t.Errorf("IDs = %v", ids)
	}
	if len(c.Managers()) != 3 {
		t.Errorf("managers = %d", len(c.Managers()))
	}
	if _, ok := c.Device("node1/gpu2"); !ok {
		t.Error("device lookup failed")
	}
	if c.Zoo().Len() != 22 {
		t.Errorf("zoo = %d models", c.Zoo().Len())
	}
}

// tinyWorkload builds n requests round-robining over the given models with
// even spacing.
func tinyWorkload(n int, spacing time.Duration, modelNames ...string) []trace.Request {
	reqs := make([]trace.Request, n)
	for i := 0; i < n; i++ {
		reqs[i] = trace.Request{
			ID:        int64(i),
			Function:  "f-" + modelNames[i%len(modelNames)],
			Model:     modelNames[i%len(modelNames)],
			Arrival:   time.Duration(i) * spacing,
			BatchSize: 32,
		}
	}
	return reqs
}

func TestRunWorkloadAllComplete(t *testing.T) {
	c, err := New(testConfig(core.LALBO3))
	if err != nil {
		t.Fatal(err)
	}
	c.KeepResults(true)
	reqs := tinyWorkload(50, 200*time.Millisecond, "resnet18", "vgg19", "alexnet")
	rep, err := c.RunWorkload(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 50 || rep.Failed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.AvgLatencySec <= 0 {
		t.Error("latency must be positive")
	}
	if rep.MissRatio <= 0 || rep.MissRatio > 1 {
		t.Errorf("MissRatio = %g", rep.MissRatio)
	}
	results := c.Results()
	if len(results) != 50 {
		t.Fatalf("results = %d", len(results))
	}
	seen := map[int64]bool{}
	for _, r := range results {
		if seen[r.ReqID] {
			t.Errorf("request %d completed twice", r.ReqID)
		}
		seen[r.ReqID] = true
		if r.FinishedAt < r.Arrival {
			t.Error("finished before arrival")
		}
		if r.Hit && r.LoadTime != 0 {
			t.Error("hit with load time")
		}
		if !r.Hit && r.LoadTime == 0 {
			t.Error("miss without load time")
		}
	}
	// Device invariants hold after the run.
	for _, id := range c.GPUIDs() {
		d, _ := c.Device(id)
		if err := d.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if d.Busy() {
			t.Errorf("%s still busy after drain", id)
		}
	}
	if err := c.CacheManager().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestRunWorkloadDeterministic(t *testing.T) {
	run := func() Report {
		c, err := New(testConfig(core.LALBO3))
		if err != nil {
			t.Fatal(err)
		}
		reqs := tinyWorkload(80, 100*time.Millisecond, "resnet18", "vgg19", "densenet121", "inception.v3")
		rep, err := c.RunWorkload(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.AvgLatencySec != b.AvgLatencySec || a.MissRatio != b.MissRatio || a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestLALBBeatsLBOnHotWorkload(t *testing.T) {
	// A single hot model arriving faster than cold-start service rate:
	// locality should massively beat blind load balancing.
	mk := func(p core.Policy) Report {
		c, err := New(testConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		reqs := tinyWorkload(150, 300*time.Millisecond, "resnet18", "vgg19", "alexnet")
		rep, err := c.RunWorkload(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	lb, lalb := mk(core.LB), mk(core.LALB)
	if lalb.MissRatio >= lb.MissRatio {
		t.Errorf("LALB miss %g !< LB miss %g", lalb.MissRatio, lb.MissRatio)
	}
	if lalb.AvgLatencySec >= lb.AvgLatencySec {
		t.Errorf("LALB latency %g !< LB latency %g", lalb.AvgLatencySec, lb.AvgLatencySec)
	}
	// Underloaded workload: SM utilization must at least not regress
	// (the strict ordering is exercised by the saturated Fig. 4 bench).
	if lalb.SMUtilization < lb.SMUtilization-1e-9 {
		t.Errorf("LALB SM %g < LB SM %g", lalb.SMUtilization, lb.SMUtilization)
	}
}

// fastProfiles builds a profile store where every model loads in 2ms and
// infers in 1ms, so live-clock tests finish quickly.
func fastProfiles(zoo *models.Zoo, gpuType string) *models.ProfileStore {
	prof := models.NewProfileStore()
	for _, m := range zoo.All() {
		prof.Put(models.Profile{
			Model:    m.Name,
			GPUType:  gpuType,
			LoadTime: 2 * time.Millisecond,
			InferFit: stats.Linear{Alpha: 0.001, Beta: 0, R2: 1, N: 2},
		})
	}
	return prof
}

func TestSubmitLiveMode(t *testing.T) {
	cfg := testConfig(core.LALB)
	cfg.Clock = sim.NewRealClock()
	cfg.Zoo = models.Default()
	cfg.Profiles = fastProfiles(cfg.Zoo, DefaultGPUType)
	done := make(chan gpumgr.Result, 16)
	cfg.OnResult = func(r gpumgr.Result) { done <- r }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunWorkload(nil); err != ErrLiveMode {
		t.Errorf("RunWorkload on live cluster: %v", err)
	}
	for i := 0; i < 8; i++ {
		req := &core.Request{
			ID:        int64(i),
			Function:  "live-fn",
			Model:     "resnet18",
			BatchSize: 32,
			Arrival:   cfg.Clock.Now(),
		}
		if err := c.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case r := <-done:
			if r.Model != "resnet18" {
				t.Errorf("result model = %s", r.Model)
			}
		case <-deadline:
			t.Fatalf("only %d/8 completions before deadline", i)
		}
	}
	if got := c.Completed(); got != 8 {
		t.Errorf("Completed = %d", got)
	}
	snap := c.Snapshot()
	if snap.Requests != 8 {
		t.Errorf("snapshot requests = %d", snap.Requests)
	}
	if lat := c.PerModelMeanLatency(); lat["resnet18"] <= 0 {
		t.Errorf("per-model latency = %v", lat)
	}
}

// saturatedCluster returns a cluster on the given clock (nil: simulated)
// whose 12 GPUs are busy (LB dispatches the first 12 submits) and whose
// global queue holds a 13th request stamped 1 s.
func saturatedCluster(t *testing.T, clock sim.Clock) *Cluster {
	t.Helper()
	cfg := testConfig(core.LB)
	cfg.Clock = clock
	zoo := models.Default()
	cfg.Zoo = zoo
	prof := models.NewProfileStore()
	for _, m := range zoo.All() {
		prof.Put(models.Profile{
			Model:    m.Name,
			GPUType:  DefaultGPUType,
			LoadTime: 500 * time.Millisecond,
			InferFit: stats.Linear{Alpha: 0.5, Beta: 0, R2: 1, N: 2},
		})
	}
	cfg.Profiles = prof
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		req := &core.Request{ID: int64(i), Model: "resnet18", BatchSize: 32, Arrival: sim.Time(time.Second)}
		if err := c.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if c.Scheduler().GlobalQueueLen() == 0 {
		t.Skip("cluster drained faster than expected; ordering path covered in core tests")
	}
	return c
}

// A live caller that read the clock first but took the cluster lock second
// submits a stamp older than the queue tail's. On an external clock Submit
// moves the stamp up to the tail's rather than fail the invoke; on the
// simulated clock the scheduler's ordering error still propagates.
func TestSubmitOutOfOrderArrival(t *testing.T) {
	c := saturatedCluster(t, sim.NewRealClock())
	queued := c.Scheduler().GlobalQueueLen()
	late := &core.Request{ID: 99, Model: "resnet18", BatchSize: 32, Arrival: 0}
	if err := c.Submit(late); err != nil {
		t.Fatalf("out-of-order live Submit: %v", err)
	}
	if late.Arrival != sim.Time(time.Second) {
		t.Errorf("Arrival = %v, want the queue tail's %v", late.Arrival, sim.Time(time.Second))
	}
	if got := c.Scheduler().GlobalQueueLen(); got != queued+1 {
		t.Errorf("global queue = %d, want %d", got, queued+1)
	}
	next := &core.Request{ID: 100, Model: "resnet18", BatchSize: 32, Arrival: sim.Time(2 * time.Second)}
	if err := c.Submit(next); err != nil || next.Arrival != sim.Time(2*time.Second) {
		t.Errorf("in-order Submit: err %v, Arrival %v (must not move)", err, next.Arrival)
	}

	simulated := saturatedCluster(t, nil)
	if err := simulated.Submit(&core.Request{ID: 99, Model: "resnet18", BatchSize: 32, Arrival: 0}); err == nil {
		t.Error("out-of-order Submit on the simulated clock should fail")
	}
}

// idleCheckSink verifies, at every GPU status transition, that the
// cluster's incremental idle set matches the devices' actual busy state
// and stays in registration order.
type idleCheckSink struct {
	t      *testing.T
	c      *Cluster
	events int
}

func (s *idleCheckSink) GPUStatus(gpuID string, busy bool, at sim.Time) {
	s.events++
	idle := map[string]bool{}
	for _, o := range s.c.idle {
		idle[s.c.cacheMgr.IDOf(o)] = true
	}
	for i := 1; i < len(s.c.idle); i++ {
		if s.c.idle[i-1] >= s.c.idle[i] {
			s.t.Errorf("idle set out of registration order: %v", s.c.idle)
		}
	}
	for _, id := range s.c.gpuIDs {
		d := s.c.devByID[id]
		if d.Busy() == idle[id] {
			s.t.Errorf("at %v: GPU %s busy=%v but idle-set membership=%v",
				at, id, d.Busy(), idle[id])
		}
	}
}

func (s *idleCheckSink) Completion(res gpumgr.Result) {}

func TestIdleSetTracksDeviceState(t *testing.T) {
	cfg := testConfig(core.LALBO3)
	sink := &idleCheckSink{t: t}
	cfg.Sink = sink
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink.c = c

	// All GPUs idle at rest.
	if got := c.IdleGPUs(); len(got) != 12 {
		t.Fatalf("initial idle = %v", got)
	}
	reqs := tinyWorkload(80, 150*time.Millisecond, "resnet18", "vgg19", "alexnet", "squeezenet1.1")
	rep, err := c.RunWorkload(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 80 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if sink.events == 0 {
		t.Fatal("sink observed no transitions")
	}
	// After drain, every GPU is idle again.
	if got := c.IdleGPUs(); len(got) != 12 {
		t.Errorf("post-run idle = %v", got)
	}
}
