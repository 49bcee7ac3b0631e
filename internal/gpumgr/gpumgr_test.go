package gpumgr

import (
	"errors"
	"testing"
	"time"

	"gpufaas/internal/cache"
	"gpufaas/internal/core"
	"gpufaas/internal/gpu"
	"gpufaas/internal/models"
	"gpufaas/internal/sim"
)

type fixture struct {
	engine *sim.Engine
	cache  *cache.Manager
	mgr    *Manager
	zoo    *models.Zoo
	done   []Result
	// onDone, when set, runs after each completion is recorded.
	onDone func(Result)
}

type recordSink struct {
	status []string
	comps  []Result
}

func (r *recordSink) GPUStatus(gpuID string, busy bool, _ sim.Time) {
	s := "idle"
	if busy {
		s = "busy"
	}
	r.status = append(r.status, gpuID+"="+s)
}
func (r *recordSink) Completion(res Result) { r.comps = append(r.comps, res) }

func newFixture(t *testing.T, sink StatusSink, gpus int) *fixture {
	t.Helper()
	f := &fixture{engine: sim.New(), zoo: models.Default()}
	sizeOf := func(m string) (int64, bool) {
		mm, ok := f.zoo.Get(m)
		if !ok {
			return 0, false
		}
		return mm.OccupancyBytes(), true
	}
	var err error
	f.cache, err = cache.NewManager(cache.PolicyLRU, sizeOf)
	if err != nil {
		t.Fatal(err)
	}
	f.mgr, err = New(Config{
		Node:     "node0",
		Clock:    sim.SimClock{E: f.engine},
		Cache:    f.cache,
		Zoo:      f.zoo,
		Profiles: models.TableProfiles("rtx2080", f.zoo),
		Sink:     sink,
		OnComplete: func(res Result) {
			f.done = append(f.done, res)
			if f.onDone != nil {
				f.onDone(res)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gpus; i++ {
		d, err := gpu.New(gpu.Config{
			ID: f.mgr.Node() + "/gpu" + string(rune('0'+i)), Node: "node0",
			Type: "rtx2080", Capacity: 7 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.mgr.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func req(id int64, model string) *core.Request {
	return &core.Request{ID: id, Function: "fn", Model: model, BatchSize: 32}
}

func TestNewValidation(t *testing.T) {
	good := Config{Clock: sim.SimClock{E: sim.New()}}
	cm, _ := cache.NewManager(cache.PolicyLRU, func(string) (int64, bool) { return 1, true })
	good.Cache = cm
	good.Zoo = models.Default()
	good.Profiles = models.NewProfileStore()
	cases := []func(Config) Config{
		func(c Config) Config { c.Clock = nil; return c },
		func(c Config) Config { c.Cache = nil; return c },
		func(c Config) Config { c.Zoo = nil; return c },
		func(c Config) Config { c.Profiles = nil; return c },
	}
	for i, mut := range cases {
		if _, err := New(mut(good)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
}

func TestAddDeviceDuplicate(t *testing.T) {
	f := newFixture(t, nil, 1)
	d, _ := gpu.New(gpu.Config{ID: "node0/gpu0", Capacity: 1 << 30})
	if err := f.mgr.AddDevice(d); err == nil {
		t.Error("duplicate device should fail")
	}
	if got := f.mgr.DeviceIDs(); len(got) != 1 {
		t.Errorf("DeviceIDs = %v", got)
	}
	if _, ok := f.mgr.Device("node0/gpu0"); !ok {
		t.Error("Device lookup failed")
	}
}

func TestExecuteMissThenHit(t *testing.T) {
	sink := &recordSink{}
	f := newFixture(t, sink, 1)
	hit, err := f.mgr.Execute(req(1, "resnet18"), "node0/gpu0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first execution must miss")
	}
	procs := f.mgr.Processes("node0/gpu0")
	if len(procs) != 1 || procs[0].Model != "resnet18" {
		t.Errorf("processes = %+v", procs)
	}
	f.engine.Run(0)
	if len(f.done) != 1 {
		t.Fatalf("completions = %d", len(f.done))
	}
	res := f.done[0]
	// load 2.52s + infer 1.25s
	want := 2520*time.Millisecond + 1250*time.Millisecond
	if got := time.Duration(res.FinishedAt); got != want {
		t.Errorf("finish = %v, want %v", got, want)
	}
	// Second request: hit, no load.
	now := sim.Time(f.engine.Now())
	hit, err = f.mgr.Execute(req(2, "resnet18"), "node0/gpu0", now)
	if err != nil || !hit {
		t.Fatalf("second execute: hit=%v err=%v", hit, err)
	}
	f.engine.Run(0)
	if len(f.done) != 2 || f.done[1].LoadTime != 0 {
		t.Errorf("hit result = %+v", f.done[1])
	}
	// Sink saw busy/idle transitions and completions.
	if len(sink.comps) != 2 {
		t.Errorf("sink completions = %d", len(sink.comps))
	}
	if len(sink.status) < 4 {
		t.Errorf("sink status = %v", sink.status)
	}
}

func TestExecuteEvictsLRUVictims(t *testing.T) {
	f := newFixture(t, nil, 1)
	// 7 GiB GPU: vgg19 (3947MB) + vgg16 (3907MB) don't fit together.
	if _, err := f.mgr.Execute(req(1, "vgg19"), "node0/gpu0", 0); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(0)
	now := f.engine.Now()
	if _, err := f.mgr.Execute(req(2, "vgg16"), "node0/gpu0", now); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(0)
	d, _ := f.mgr.Device("node0/gpu0")
	if d.Resident("vgg19") {
		t.Error("vgg19 should have been evicted")
	}
	if !d.Resident("vgg16") {
		t.Error("vgg16 should be resident")
	}
	if len(f.mgr.Processes("node0/gpu0")) != 1 {
		t.Errorf("processes = %+v", f.mgr.Processes("node0/gpu0"))
	}
	m := f.cache.Metrics()
	if m.Misses != 2 || m.Requests != 2 {
		t.Errorf("cache metrics = %+v", m)
	}
}

func TestExecuteErrors(t *testing.T) {
	f := newFixture(t, nil, 1)
	if _, err := f.mgr.Execute(req(1, "resnet18"), "ghost", 0); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unknown device: %v", err)
	}
	if _, err := f.mgr.Execute(req(1, "no-such-model"), "node0/gpu0", 0); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: %v", err)
	}
	// Device busy: Execute while a request is in flight fails via device.
	if _, err := f.mgr.Execute(req(1, "resnet18"), "node0/gpu0", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.Execute(req(2, "alexnet"), "node0/gpu0", 0); err == nil {
		t.Error("execute on busy device should fail")
	}
}

func TestQuotaProcesses(t *testing.T) {
	f := newFixture(t, nil, 2)
	f.mgr.SetQuota("t1", Quota{MaxProcesses: 1})
	r1 := req(1, "resnet18")
	r1.Tenant = "t1"
	if _, err := f.mgr.Execute(r1, "node0/gpu0", 0); err != nil {
		t.Fatal(err)
	}
	r2 := req(2, "alexnet")
	r2.Tenant = "t1"
	if _, err := f.mgr.Execute(r2, "node0/gpu1", 0); !errors.Is(err, ErrQuota) {
		t.Errorf("second process: %v", err)
	}
	// A hit does not need a new process, so it passes the process quota.
	f.engine.Run(0)
	r3 := req(3, "resnet18")
	r3.Tenant = "t1"
	if _, err := f.mgr.Execute(r3, "node0/gpu0", f.engine.Now()); err != nil {
		t.Errorf("hit within quota: %v", err)
	}
	if f.mgr.TenantProcesses("t1") != 1 {
		t.Errorf("processes = %d", f.mgr.TenantProcesses("t1"))
	}
}

func TestQuotaGPUTime(t *testing.T) {
	f := newFixture(t, nil, 1)
	f.mgr.SetQuota("t1", Quota{MaxGPUTime: 5 * time.Second})
	r1 := req(1, "resnet18") // 2.52 + 1.25 = 3.77s
	r1.Tenant = "t1"
	if _, err := f.mgr.Execute(r1, "node0/gpu0", 0); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(0)
	if got := f.mgr.TenantGPUTime("t1"); got != 3770*time.Millisecond {
		t.Errorf("gpu time = %v", got)
	}
	r2 := req(2, "resnet18") // hit: 1.25s, total 5.02s > 5s
	r2.Tenant = "t1"
	if _, err := f.mgr.Execute(r2, "node0/gpu0", f.engine.Now()); !errors.Is(err, ErrQuota) {
		t.Errorf("over-time execute: %v", err)
	}
	if f.mgr.TenantGPUTime("unknown") != 0 || f.mgr.TenantProcesses("unknown") != 0 {
		t.Error("unknown tenant usage should be zero")
	}
}

func TestQuotaMemory(t *testing.T) {
	f := newFixture(t, nil, 2)
	f.mgr.SetQuota("t1", Quota{MaxMemoryBytes: 2000 * (1 << 20)})
	r1 := req(1, "resnet18") // 1313 MB
	r1.Tenant = "t1"
	if _, err := f.mgr.Execute(r1, "node0/gpu0", 0); err != nil {
		t.Fatal(err)
	}
	r2 := req(2, "alexnet") // 1437 MB -> 2750 MB > 2000 MB
	r2.Tenant = "t1"
	if _, err := f.mgr.Execute(r2, "node0/gpu1", 0); !errors.Is(err, ErrQuota) {
		t.Errorf("over-memory execute: %v", err)
	}
}

// TestQuotaExactBoundary pins both quota comparisons at their edge: a
// launch that brings the tenant exactly to MaxGPUTime or MaxMemoryBytes is
// admitted, and one nanosecond or one byte less of quota refuses it.
func TestQuotaExactBoundary(t *testing.T) {
	launch := func(q *Quota) (*fixture, error) {
		f := newFixture(t, nil, 1)
		if q != nil {
			f.mgr.SetQuota("t1", *q)
		}
		r := req(1, "resnet18") // a miss: load + inference, one new process
		r.Tenant = "t1"
		_, err := f.mgr.Execute(r, "node0/gpu0", 0)
		return f, err
	}
	f, err := launch(nil)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.Run(0)
	gpuTime := f.mgr.TenantGPUTime("t1")
	mdl, _ := f.zoo.Get("resnet18")
	memory := mdl.OccupancyBytes()

	for _, tc := range []struct {
		name  string
		quota Quota
		ok    bool
	}{
		{"gpu time exactly", Quota{MaxGPUTime: gpuTime}, true},
		{"gpu time 1ns short", Quota{MaxGPUTime: gpuTime - 1}, false},
		{"memory exactly", Quota{MaxMemoryBytes: memory}, true},
		{"memory 1 byte short", Quota{MaxMemoryBytes: memory - 1}, false},
	} {
		_, err := launch(&tc.quota)
		if tc.ok && err != nil {
			t.Errorf("%s: %v, want the launch admitted", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrQuota) {
			t.Errorf("%s: %v, want ErrQuota", tc.name, err)
		}
	}
}

func TestNoProfileError(t *testing.T) {
	f := newFixture(t, nil, 1)
	// A device with a GPU type that has no profiles.
	d, _ := gpu.New(gpu.Config{ID: "node0/exotic", Node: "node0", Type: "h100", Capacity: 7 << 30})
	if err := f.mgr.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.Execute(req(1, "resnet18"), "node0/exotic", 0); !errors.Is(err, ErrNoProfile) {
		t.Errorf("missing profile: %v", err)
	}
}

func TestHeterogeneousProfiles(t *testing.T) {
	// §VI "Heterogeneity of GPUs": per-type profiles drive per-type
	// execution times on devices of different types under one manager.
	f := newFixture(t, nil, 1)
	fast := models.NewProfileStore()
	for _, m := range f.zoo.All() {
		p, _ := models.TableProfiles("rtx2080", f.zoo).Get("rtx2080", m.Name)
		p.GPUType = "a100"
		p.LoadTime = p.LoadTime / 2
		fast.Put(p)
		f.mgr.profiles.Put(p) // extend the shared store with the new type
	}
	d, _ := gpu.New(gpu.Config{ID: "node0/a100", Node: "node0", Type: "a100", Capacity: 7 << 30})
	if err := f.mgr.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.Execute(req(1, "resnet18"), "node0/a100", 0); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(0)
	if len(f.done) != 1 {
		t.Fatal("no completion")
	}
	if f.done[0].LoadTime != 1260*time.Millisecond {
		t.Errorf("a100 load = %v, want half of 2.52s", f.done[0].LoadTime)
	}
}
