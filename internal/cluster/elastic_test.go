package cluster

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"gpufaas/internal/autoscale"
	"gpufaas/internal/core"
	"gpufaas/internal/gpumgr"
	"gpufaas/internal/models"
	"gpufaas/internal/sim"
)

// checkMembership verifies every membership view agrees after churn: the
// idle set only holds members, the cache manager tracks exactly the
// member GPUs, and the scheduler holds no state for departed GPUs.
func checkMembership(t *testing.T, c *Cluster) {
	t.Helper()
	members := make(map[string]bool)
	for _, id := range c.GPUIDs() {
		members[id] = true
	}
	for _, id := range c.IdleGPUs() {
		if !members[id] {
			t.Errorf("idle set holds non-member %s", id)
		}
	}
	for _, id := range c.CacheManager().GPUs() {
		if !members[id] {
			t.Errorf("cache manager tracks non-member %s", id)
		}
	}
	if got, want := len(c.CacheManager().GPUs()), len(members); got != want {
		t.Errorf("cache manager tracks %d GPUs, cluster has %d", got, want)
	}
	if err := c.CacheManager().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestAddGPUImmediatelySchedulable(t *testing.T) {
	c, err := New(testConfig(core.LALBO3))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.AddGPU("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if id != "elastic/gpu0" {
		t.Errorf("ID = %s", id)
	}
	if got := len(c.GPUIDs()); got != 13 {
		t.Fatalf("fleet = %d, want 13", got)
	}
	if got := len(c.IdleGPUs()); got != 13 {
		t.Fatalf("idle = %d, want 13", got)
	}
	checkMembership(t, c)
	// The new GPU executes work like any other.
	rep, err := c.RunWorkload(tinyWorkload(40, 50*time.Millisecond, "resnet18", "vgg19"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 || rep.Failed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.FinalGPUs != 13 || rep.PeakGPUs != 13 || rep.ScaleUps != 1 {
		t.Errorf("elasticity accounting = final %d peak %d ups %d",
			rep.FinalGPUs, rep.PeakGPUs, rep.ScaleUps)
	}
}

// TestScaleToEdges pins ScaleTo at its boundaries: the current size adds
// and removes nothing, growing by one adds exactly one, one GPU is still a
// fleet, and zero is refused.
func TestScaleToEdges(t *testing.T) {
	cfg := testConfig(core.LALB)
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := c.GPUIDs()
	added, removed, err := c.ScaleTo(len(before), 0)
	if err != nil || len(added) != 0 || len(removed) != 0 || !reflect.DeepEqual(c.GPUIDs(), before) {
		t.Fatalf("ScaleTo(current) = added %v, removed %v, %v; fleet %v, want %v untouched",
			added, removed, err, c.GPUIDs(), before)
	}
	added, removed, err = c.ScaleTo(3, 0)
	if err != nil || len(added) != 1 || len(removed) != 0 || c.SchedulableGPUs() != 3 {
		t.Fatalf("ScaleTo(3) from 2 = added %v, removed %v, %v; %d schedulable", added, removed, err, c.SchedulableGPUs())
	}
	added, removed, err = c.ScaleTo(1, 0)
	if err != nil || len(added) != 0 || len(removed) != 2 || c.SchedulableGPUs() != 1 {
		t.Fatalf("ScaleTo(1) from 3 = added %v, removed %v, %v; %d schedulable", added, removed, err, c.SchedulableGPUs())
	}
	if _, _, err := c.ScaleTo(0, 0); err == nil {
		t.Error("ScaleTo(0) accepted")
	}
	checkMembership(t, c)
}

func TestAddGPUColdStartDelaysSchedulability(t *testing.T) {
	cfg := testConfig(core.LALBO3)
	cfg.Nodes, cfg.GPUsPerNode = 1, 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.AddGPU("", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.IdleGPUs()); got != 1 {
		t.Fatalf("cold-starting GPU already idle-listed: idle = %d", got)
	}
	// Two same-model requests at t=0: with one schedulable GPU both run
	// there back to back; the second must NOT land on the provisioning
	// GPU even though it is free.
	reqs := tinyWorkload(2, 0, "resnet18")
	c.KeepResults(true)
	rep, err := c.RunWorkload(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 2 {
		t.Fatalf("report = %+v", rep)
	}
	for _, r := range c.Results() {
		if r.GPU == id {
			t.Errorf("request %d dispatched to GPU %s during cold start (dispatched at %v)",
				r.ReqID, id, r.DispatchedAt)
		}
	}
	// After the engine drained, virtual time passed the cold-start
	// window and the GPU joined the idle set.
	if got := len(c.IdleGPUs()); got != 2 {
		t.Errorf("after activation idle = %d, want 2", got)
	}
	checkMembership(t, c)
}

func TestDecommissionIdleGPUEvictsResidents(t *testing.T) {
	c, err := New(testConfig(core.LALBO3))
	if err != nil {
		t.Fatal(err)
	}
	// Warm one model onto node0/gpu0 via a short run.
	if _, err := c.RunWorkload(tinyWorkload(1, 0, "resnet18")); err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, id := range c.GPUIDs() {
		if c.CacheManager().Cached(id, "resnet18") {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("no GPU cached resnet18 after the warm-up run")
	}
	if err := c.DecommissionGPU(victim, false); err != nil {
		t.Fatal(err)
	}
	if got := len(c.GPUIDs()); got != 11 {
		t.Fatalf("fleet = %d, want 11", got)
	}
	if c.CacheManager().NumCaching("resnet18") != 0 {
		t.Error("resident survived decommission in the cache index")
	}
	if _, ok := c.Device(victim); ok {
		t.Error("device lookup still resolves the removed GPU")
	}
	checkMembership(t, c)
}

func TestDecommissionUnknownAndBusy(t *testing.T) {
	cfg := testConfig(core.LALBO3)
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecommissionGPU("nope", true); !errors.Is(err, ErrUnknownGPU) {
		t.Errorf("unknown GPU: %v", err)
	}
	// Make node0/gpu0 busy at t=0, then ask for a non-drain removal
	// from inside the run: it must refuse.
	reqs := tinyWorkload(2, 0, "resnet18", "vgg19")
	if _, err := c.Engine().At(1*time.Millisecond, "test.decommission", func(now sim.Time) {
		if err := c.DecommissionGPU("node0/gpu0", false); !errors.Is(err, ErrNotQuiet) {
			t.Errorf("busy non-drain decommission: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunWorkload(reqs); err != nil {
		t.Fatal(err)
	}
	checkMembership(t, c)
}

// TestDecommissionDrainsInFlightAndParkedWork is the churn acceptance
// test: a GPU holding cache residents, an in-flight request AND parked
// local-queue work is drained mid-run. Every request still completes,
// the draining GPU takes no new global work after the mark, and all
// membership views stay consistent.
func TestDecommissionDrainsInFlightAndParkedWork(t *testing.T) {
	cfg := testConfig(core.LALB)
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.KeepResults(true)
	// resnet18 requests arrive faster than service: the first miss-loads
	// onto gpu0, later ones park in gpu0's local queue (load time >>
	// wait). vgg19 keeps gpu1 occupied so llb cannot divert.
	var reqs = tinyWorkload(12, 20*time.Millisecond, "resnet18", "vgg19")
	const victim = "node0/gpu0"
	drained := make(chan struct{})
	if _, err := c.Engine().At(120*time.Millisecond, "test.drain", func(now sim.Time) {
		if err := c.DecommissionGPU(victim, true); err != nil {
			t.Errorf("drain decommission: %v", err)
		}
		close(drained)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunWorkload(reqs)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	default:
		t.Fatal("drain event never fired")
	}
	if rep.Requests != 12 || rep.Failed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if got := len(c.GPUIDs()); got != 1 {
		t.Fatalf("fleet = %d, want 1 after drain", got)
	}
	if rep.ScaleDowns != 1 {
		t.Errorf("ScaleDowns = %d", rep.ScaleDowns)
	}
	// The drained GPU must not have started any request after its last
	// pre-drain work finished: every dispatch to it happened either
	// before the drain mark or from its local queue (FromLocalQueue is
	// not recorded in Result, so check completion coverage instead).
	seen := map[int64]bool{}
	for _, r := range c.Results() {
		seen[r.ReqID] = true
	}
	for i := int64(0); i < 12; i++ {
		if !seen[i] {
			t.Errorf("request %d never completed", i)
		}
	}
	checkMembership(t, c)
	if c.Scheduler().PendingTotal() != 0 {
		t.Error("scheduler still has pending work")
	}
}

// TestChurnMembershipTable walks add/decommission sequences and checks
// every view after each step.
func TestChurnMembershipTable(t *testing.T) {
	type step struct {
		op        string // "add", "addCold", "rm", "rmProvisioning"
		wantFleet int
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"grow-then-shrink", []step{
			{"add", 13}, {"add", 14}, {"rm", 13}, {"rm", 12},
		}},
		{"cancel-cold-start", []step{
			{"addCold", 13}, {"rmProvisioning", 12},
		}},
		{"interleaved", []step{
			{"add", 13}, {"addCold", 14}, {"rm", 13}, {"add", 14}, {"rm", 13},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(testConfig(core.LALBO3))
			if err != nil {
				t.Fatal(err)
			}
			var added []string
			for i, s := range tc.steps {
				switch s.op {
				case "add":
					id, err := c.AddGPU("", 0)
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					added = append(added, id)
				case "addCold":
					id, err := c.AddGPU("", time.Hour) // never activates in this test
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					added = append(added, id)
				case "rm", "rmProvisioning":
					id := added[len(added)-1]
					added = added[:len(added)-1]
					if err := c.DecommissionGPU(id, true); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				if got := len(c.GPUIDs()); got != s.wantFleet {
					t.Fatalf("step %d: fleet = %d, want %d", i, got, s.wantFleet)
				}
				checkMembership(t, c)
			}
		})
	}
}

// TestChurnStressRace hammers a live-mode cluster with concurrent
// submissions, scale-ups and drain-decommissions; run under -race this is
// the churn data-race gate.
func TestChurnStressRace(t *testing.T) {
	cfg := testConfig(core.LALBO3)
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	cfg.Clock = sim.NewRealClock()
	cfg.Zoo = models.Default()
	cfg.Profiles = fastProfiles(cfg.Zoo, DefaultGPUType)
	done := make(chan struct{}, 256)
	cfg.OnResult = func(gpumgr.Result) { done <- struct{}{} }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const submitters, reqsEach = 4, 12
	var wg sync.WaitGroup
	var idMu sync.Mutex
	var nextID int64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqsEach; i++ {
				idMu.Lock()
				nextID++
				req := &core.Request{
					ID: nextID, Function: "stress", Model: "resnet18",
					BatchSize: 8, Arrival: c.Snapshot().EndOfRun,
				}
				// Submit under idMu so arrivals reach the scheduler in
				// non-decreasing order.
				err := c.Submit(req)
				idMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mine []string
		for i := 0; i < 6; i++ {
			id, err := c.AddGPU("", 2*time.Millisecond)
			if err != nil {
				t.Error(err)
				return
			}
			mine = append(mine, id)
			time.Sleep(3 * time.Millisecond)
			if i%2 == 1 {
				victim := mine[0]
				mine = mine[1:]
				if err := c.DecommissionGPU(victim, true); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()

	deadline := time.After(10 * time.Second)
	for i := 0; i < submitters*reqsEach; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("only %d/%d completions before deadline", i, submitters*reqsEach)
		}
	}
	if err := c.CacheManager().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestElasticDeterministicReports runs the same autoscaled workload twice
// and requires identical Reports including the scale-event log — once on
// the homogeneous fleet, once on a mixed-class fleet under the tiered
// policy, so determinism is pinned for heterogeneous membership churn
// too.
func TestElasticDeterministicReports(t *testing.T) {
	homogeneous := func() Report {
		cfg := testConfig(core.LALBO3)
		cfg.Nodes, cfg.GPUsPerNode = 1, 4
		pol, err := autoscale.NewTargetUtilization(0.7, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Autoscale = &autoscale.Config{
			Policy:    pol,
			Interval:  2 * time.Second,
			MinGPUs:   2,
			MaxGPUs:   8,
			ColdStart: 1 * time.Second,
			Horizon:   2 * time.Minute,
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := tinyWorkload(150, 300*time.Millisecond, "resnet18", "vgg19", "alexnet", "densenet121")
		rep, err := c.RunWorkload(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	mixed := func() Report {
		cfg := testConfig(core.LALBO3)
		cfg.Fleet = FleetSpec{
			{Type: "t4", Count: 3, CostPerSecond: 0.20},
			{Type: "rtx2080", Count: 1, CostPerSecond: 0.60},
		}
		pol, err := autoscale.NewTiered(autoscale.Tiered{
			Tiers:     []string{"t4", "rtx2080"},
			TierCaps:  []int{6, 3},
			TargetP95: 3,
			Step:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Autoscale = &autoscale.Config{
			Policy:    pol,
			Interval:  2 * time.Second,
			MinGPUs:   2,
			MaxGPUs:   9,
			ColdStart: 1 * time.Second,
			Horizon:   2 * time.Minute,
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := tinyWorkload(150, 300*time.Millisecond, "resnet18", "vgg19", "alexnet", "densenet121")
		rep, err := c.RunWorkload(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, tc := range []struct {
		name string
		run  func() Report
	}{
		{"homogeneous", homogeneous},
		{"mixed-tiered", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.run(), tc.run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("nondeterministic elastic runs:\n%+v\n%+v", a, b)
			}
			if a.ScaleUps == 0 && a.ScaleDowns == 0 {
				t.Error("autoscaler made no scaling decisions on a 150-request burst")
			}
			if a.GPUSeconds <= 0 {
				t.Errorf("GPUSeconds = %g", a.GPUSeconds)
			}
		})
	}
}

// TestReportCoversRemovedGPUs: utilization averages must include
// members that served and left, and an emptied fleet must not produce
// NaN metrics (JSON marshalling would fail).
func TestReportCoversRemovedGPUs(t *testing.T) {
	cfg := testConfig(core.LALBO3)
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both GPUs serve work, then one leaves.
	if _, err := c.RunWorkload(tinyWorkload(8, 10*time.Millisecond, "resnet18", "vgg19")); err != nil {
		t.Fatal(err)
	}
	busyBefore := c.Snapshot().BusyFraction
	if busyBefore <= 0 {
		t.Fatal("setup: no recorded utilization")
	}
	if err := c.DecommissionGPU("node0/gpu1", true); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if after.BusyFraction <= 0 {
		t.Error("removed GPU's utilization dropped from the report")
	}
	if math.IsNaN(after.SMUtilization) || math.IsNaN(after.BusyFraction) {
		t.Error("NaN utilization after decommission")
	}
	// Drain the last GPU too: metrics must stay finite (the removed
	// members' history), and the report must survive JSON marshalling.
	if err := c.DecommissionGPU("node0/gpu0", true); err != nil {
		t.Fatal(err)
	}
	final := c.Snapshot()
	if math.IsNaN(final.SMUtilization) || math.IsNaN(final.LoadFraction) || math.IsNaN(final.BusyFraction) {
		t.Errorf("NaN metrics on an empty fleet: %+v", final)
	}
	if _, err := json.Marshal(final); err != nil {
		t.Errorf("empty-fleet report does not marshal: %v", err)
	}
	if final.BusyFraction <= 0 {
		t.Error("fully-drained fleet lost its utilization history")
	}
}

// TestAutoscalerRequiresHorizonInSimMode pins the guard that keeps
// RunWorkload from never draining.
func TestAutoscalerRequiresHorizonInSimMode(t *testing.T) {
	cfg := testConfig(core.LALBO3)
	pol, err := autoscale.NewTargetUtilization(0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Autoscale = &autoscale.Config{Policy: pol}
	if _, err := New(cfg); err == nil {
		t.Fatal("sim-mode autoscaler without Horizon must be rejected")
	}
}
