package cache

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"gpufaas/internal/sim"
)

const gib = int64(1) << 30

// fakeDev implements DeviceView.
type fakeDev struct {
	id       string
	capacity int64
	resident map[string]int64
}

func newFakeDev(id string, capacity int64) *fakeDev {
	return &fakeDev{id: id, capacity: capacity, resident: map[string]int64{}}
}

func (d *fakeDev) ID() string { return d.id }
func (d *fakeDev) MemFree() int64 {
	used := int64(0)
	for _, sz := range d.resident {
		used += sz
	}
	return d.capacity - used
}
func (d *fakeDev) ResidentSize(model string) (int64, bool) {
	sz, ok := d.resident[model]
	return sz, ok
}

var sizes = map[string]int64{
	"a": 1 * gib, "b": 1 * gib, "c": 2 * gib, "d": 2 * gib, "e": 3 * gib,
}

func sizeOf(model string) (int64, bool) {
	sz, ok := sizes[model]
	return sz, ok
}

func newMgr(t *testing.T, policy string) *Manager {
	t.Helper()
	m, err := NewManager(policy, sizeOf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager("bogus", sizeOf); err == nil {
		t.Error("want error for unknown policy")
	}
	if _, err := NewManager(PolicyLRU, nil); err == nil {
		t.Error("want error for nil sizeOf")
	}
	m, err := NewManager("", sizeOf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy() != PolicyLRU {
		t.Errorf("default policy = %s", m.Policy())
	}
}

func TestRegisterAndIndex(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	if err := m.RegisterGPU("g0"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterGPU("g0"); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := m.RegisterGPU("g1"); err != nil {
		t.Fatal(err)
	}
	if got := m.GPUs(); len(got) != 2 || got[0] != "g0" {
		t.Errorf("GPUs = %v", got)
	}

	if err := m.OnMiss("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	if err := m.OnMiss("g1", "a", 0); err != nil {
		t.Fatal(err)
	}
	if !m.Cached("g0", "a") || !m.Cached("g1", "a") {
		t.Error("index lost residency")
	}
	if m.NumCaching("a") != 2 {
		t.Errorf("NumCaching = %d", m.NumCaching("a"))
	}
	if got := m.GPUsCaching("a"); len(got) != 2 || got[0] != "g0" || got[1] != "g1" {
		t.Errorf("GPUsCaching = %v", got)
	}
	if m.GPUsCaching("nope") != nil {
		t.Error("unknown model should have nil GPU list")
	}
	if err := m.OnEvict("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	if m.Cached("g0", "a") || !m.CachedAnywhere("a") {
		t.Error("eviction bookkeeping wrong")
	}
	if err := m.OnEvict("g1", "a", 0); err != nil {
		t.Fatal(err)
	}
	if m.CachedAnywhere("a") {
		t.Error("model should be gone everywhere")
	}
}

func TestHitMissErrors(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	if err := m.OnHit("ghost", "a", 0); !errors.Is(err, ErrUnknownGPU) {
		t.Errorf("OnHit unknown GPU: %v", err)
	}
	if err := m.OnMiss("ghost", "a", 0); !errors.Is(err, ErrUnknownGPU) {
		t.Errorf("OnMiss unknown GPU: %v", err)
	}
	if err := m.OnEvict("ghost", "a", 0); !errors.Is(err, ErrUnknownGPU) {
		t.Errorf("OnEvict unknown GPU: %v", err)
	}
	if err := m.RegisterGPU("g0"); err != nil {
		t.Fatal(err)
	}
	if err := m.OnHit("g0", "a", 0); !errors.Is(err, ErrNotTracked) {
		t.Errorf("OnHit untracked: %v", err)
	}
	if err := m.OnEvict("g0", "a", 0); !errors.Is(err, ErrNotTracked) {
		t.Errorf("OnEvict untracked: %v", err)
	}
	if err := m.OnMiss("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	if err := m.OnMiss("g0", "a", 0); !errors.Is(err, ErrAlreadyKnown) {
		t.Errorf("double miss: %v", err)
	}
}

func TestVictimsLRUOrder(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	if err := m.RegisterGPU("g0"); err != nil {
		t.Fatal(err)
	}
	dev := newFakeDev("g0", 4*gib)
	for _, model := range []string{"a", "b", "c"} { // 1+1+2 = 4 GiB, full
		if err := m.OnMiss("g0", model, 0); err != nil {
			t.Fatal(err)
		}
		dev.resident[model] = sizes[model]
	}
	// Touch "a" so "b" becomes LRU.
	if err := m.OnHit("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	// Need 2 GiB: must evict b (1 GiB) then c (2 GiB)? b first is LRU
	// order; b alone gives 1 GiB free, so c is also taken.
	victims, err := m.Victims(dev, 2*gib)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 2 || victims[0] != "b" || victims[1] != "c" {
		t.Errorf("victims = %v", victims)
	}
	// Already fits -> no victims.
	dev2 := newFakeDev("g0", 8*gib)
	v2, err := m.Victims(dev2, gib)
	if err != nil || v2 != nil {
		t.Errorf("fit case: %v %v", v2, err)
	}
}

func TestVictimsSkipsPinned(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	if err := m.RegisterGPU("g0"); err != nil {
		t.Fatal(err)
	}
	dev := newFakeDev("g0", 2*gib)
	for _, model := range []string{"a", "b"} {
		if err := m.OnMiss("g0", model, 0); err != nil {
			t.Fatal(err)
		}
		dev.resident[model] = sizes[model]
	}
	m.Pin("g0", "a") // a is LRU but in use
	victims, err := m.Victims(dev, gib)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0] != "b" {
		t.Errorf("victims = %v", victims)
	}
	m.Pin("g0", "") // unpin
	victims, err = m.Victims(dev, gib)
	if err != nil || victims[0] != "a" {
		t.Errorf("after unpin victims = %v (%v)", victims, err)
	}
}

func TestVictimsWontFit(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	if err := m.RegisterGPU("g0"); err != nil {
		t.Fatal(err)
	}
	dev := newFakeDev("g0", 2*gib)
	if err := m.OnMiss("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	dev.resident["a"] = sizes["a"]
	if _, err := m.Victims(dev, 100*gib); !errors.Is(err, ErrWontFit) {
		t.Errorf("want ErrWontFit, got %v", err)
	}
	if _, err := m.Victims(newFakeDev("ghost", gib), gib); !errors.Is(err, ErrUnknownGPU) {
		t.Errorf("unknown GPU: %v", err)
	}
}

func TestMetricsAndFalseMiss(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	for _, id := range []string{"g0", "g1"} {
		if err := m.RegisterGPU(id); err != nil {
			t.Fatal(err)
		}
	}
	// miss on g0 (model nowhere): not a false miss
	if err := m.OnMiss("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	// miss on g1 (a cached on g0): false miss
	if err := m.OnMiss("g1", "a", 0); err != nil {
		t.Fatal(err)
	}
	// hit on g0
	if err := m.OnHit("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	got := m.Metrics()
	if got.Requests != 3 || got.Misses != 2 || got.FalseMisses != 1 {
		t.Errorf("metrics = %+v", got)
	}
	if got.MissRatio < 0.66 || got.MissRatio > 0.67 {
		t.Errorf("MissRatio = %g", got.MissRatio)
	}
	if got.FalseMissRatio != 0.5 {
		t.Errorf("FalseMissRatio = %g", got.FalseMissRatio)
	}
}

func TestMetricsEmpty(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	got := m.Metrics()
	if got.MissRatio != 0 || got.FalseMissRatio != 0 {
		t.Errorf("empty metrics = %+v", got)
	}
}

func TestTrackedDuplicates(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	for _, id := range []string{"g0", "g1"} {
		if err := m.RegisterGPU(id); err != nil {
			t.Fatal(err)
		}
	}
	sec := sim.Time(1e9)
	m.Track("a", 0)
	if err := m.OnMiss("g0", "a", 0); err != nil { // 1 copy from t=0
		t.Fatal(err)
	}
	if err := m.OnMiss("g1", "a", 10*sec); err != nil { // 2 copies from t=10
		t.Fatal(err)
	}
	// average over [0,20]: (1*10 + 2*10)/20 = 1.5
	if got := m.TrackedAverage("a", 20*sec); got < 1.49 || got > 1.51 {
		t.Errorf("TrackedAverage = %g", got)
	}
	if m.TrackedAverage("untracked", 20*sec) != 0 {
		t.Error("untracked model should average 0")
	}
}

func TestResidentCount(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	if m.ResidentCount("ghost") != 0 {
		t.Error("unknown GPU should count 0")
	}
	if err := m.RegisterGPU("g0"); err != nil {
		t.Fatal(err)
	}
	if err := m.OnMiss("g0", "a", 0); err != nil {
		t.Fatal(err)
	}
	if m.ResidentCount("g0") != 1 {
		t.Errorf("ResidentCount = %d", m.ResidentCount("g0"))
	}
}

func TestReplacementListPolicies(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		l := newLRU()
		l.Insert("a")
		l.Insert("b")
		l.Insert("c")
		l.Touch("a") // order (evict first): b, c, a
		got := l.AppendCandidates(nil)
		if len(got) != 3 || got[0] != "b" || got[1] != "c" || got[2] != "a" {
			t.Errorf("LRU candidates = %v", got)
		}
		l.Remove("c")
		if l.Len() != 2 {
			t.Errorf("Len = %d", l.Len())
		}
		l.Insert("a") // re-insert refreshes
		if got := l.AppendCandidates(nil); got[0] != "b" {
			t.Errorf("after refresh = %v", got)
		}
	})
	t.Run("fifo", func(t *testing.T) {
		l := newFIFO()
		l.Insert("a")
		l.Insert("b")
		l.Touch("a")  // no effect
		l.Insert("a") // no effect, already present
		got := l.AppendCandidates(nil)
		if got[0] != "a" || got[1] != "b" {
			t.Errorf("FIFO candidates = %v", got)
		}
		l.Remove("a")
		l.Remove("missing") // no-op
		if l.Len() != 1 {
			t.Errorf("Len = %d", l.Len())
		}
	})
	t.Run("lfu", func(t *testing.T) {
		l := newLFU()
		l.Insert("a")
		l.Insert("b")
		l.Insert("c")
		l.Touch("b")
		l.Touch("b")
		l.Touch("c")
		l.Touch("missing") // ignored
		got := l.AppendCandidates(nil)
		// a: 0 uses, c: 1 use, b: 2 uses
		if got[0] != "a" || got[1] != "c" || got[2] != "b" {
			t.Errorf("LFU candidates = %v", got)
		}
		l.Remove("a")
		if l.Len() != 2 {
			t.Errorf("Len = %d", l.Len())
		}
	})
}

// Property: after any sequence of miss/hit/evict operations, the per-GPU
// lists and the global index agree, and victim selection frees enough
// space without ever selecting a pinned model.
func TestManagerConsistencyProperty(t *testing.T) {
	modelNames := []string{"a", "b", "c", "d", "e"}
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewManager(PolicyLRU, sizeOf)
		if err != nil {
			return false
		}
		devs := map[string]*fakeDev{}
		for _, id := range []string{"g0", "g1", "g2"} {
			if err := m.RegisterGPU(id); err != nil {
				return false
			}
			devs[id] = newFakeDev(id, 4*gib)
		}
		ids := []string{"g0", "g1", "g2"}
		for _, op := range ops {
			id := ids[int(op)%len(ids)]
			model := modelNames[rng.Intn(len(modelNames))]
			dev := devs[id]
			switch op % 3 {
			case 0: // access: hit or miss-with-eviction
				if m.Cached(id, model) {
					if err := m.OnHit(id, model, 0); err != nil {
						return false
					}
				} else {
					need := sizes[model]
					victims, err := m.Victims(dev, need)
					if errors.Is(err, ErrWontFit) {
						continue
					}
					if err != nil {
						return false
					}
					for _, v := range victims {
						if err := m.OnEvict(id, v, 0); err != nil {
							return false
						}
						delete(dev.resident, v)
					}
					if dev.MemFree() < need {
						return false // victims did not free enough
					}
					if err := m.OnMiss(id, model, 0); err != nil {
						return false
					}
					dev.resident[model] = need
				}
			case 1: // evict something if present
				if m.Cached(id, model) {
					if err := m.OnEvict(id, model, 0); err != nil {
						return false
					}
					delete(dev.resident, model)
				}
			case 2: // toggle pin
				if rng.Intn(2) == 0 && m.Cached(id, model) {
					m.Pin(id, model)
				} else {
					m.Pin(id, "")
				}
			}
			if err := m.CheckConsistency(); err != nil {
				t.Logf("consistency: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestEventSubscription(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	for _, id := range []string{"g0", "g1"} {
		if err := m.RegisterGPU(id); err != nil {
			t.Fatal(err)
		}
	}
	var events []Event
	m.Subscribe(func(ev Event) { events = append(events, ev) })
	// Subscribers observe post-transition state.
	m.Subscribe(func(ev Event) {
		cached := m.Cached(ev.GPU, ev.Model)
		if ev.Kind == EventInsert && !cached {
			t.Errorf("insert event for %s/%s observed before index update", ev.GPU, ev.Model)
		}
		if ev.Kind == EventEvict && cached {
			t.Errorf("evict event for %s/%s observed before index update", ev.GPU, ev.Model)
		}
	})

	if err := m.OnMiss("g0", "a", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.OnMiss("g1", "a", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.OnHit("g0", "a", 3); err != nil { // hits emit no event
		t.Fatal(err)
	}
	if err := m.OnEvict("g0", "a", 4); err != nil {
		t.Fatal(err)
	}

	want := []Event{
		{Kind: EventInsert, GPU: "g0", Model: "a", At: 1},
		{Kind: EventInsert, GPU: "g1", Model: "a", At: 2},
		{Kind: EventEvict, GPU: "g0", Model: "a", At: 4},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestGPUsCachingView(t *testing.T) {
	m := newMgr(t, PolicyLRU)
	for _, id := range []string{"g0", "g1", "g2"} {
		if err := m.RegisterGPU(id); err != nil {
			t.Fatal(err)
		}
	}
	// Insert out of registration order; views stay in registration order.
	for i, id := range []string{"g2", "g0", "g1"} {
		if err := m.OnMiss(id, "a", sim.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	view := m.HoldersView("a")
	copied := m.GPUsCaching("a")
	wantOrder := []string{"g0", "g1", "g2"}
	for i, id := range wantOrder {
		if m.IDOf(view[i]) != id || copied[i] != id {
			t.Fatalf("holder order: view=%v copy=%v, want %v", view, copied, wantOrder)
		}
	}
	if m.HoldersView("nope") != nil {
		t.Error("unknown model should have nil view")
	}
	// Ordinals round-trip through the string boundary.
	for _, id := range wantOrder {
		o, ok := m.Ord(id)
		if !ok || m.IDOf(o) != id {
			t.Errorf("ord round-trip failed for %s", id)
		}
		if !m.CachedOrd(o, "a") {
			t.Errorf("CachedOrd(%s, a) = false", id)
		}
	}
	if m.OrdBound() != 3 {
		t.Errorf("OrdBound = %d", m.OrdBound())
	}
	// The copy is detached from the index; the view reflects mutations.
	if err := m.OnEvict("g1", "a", 5); err != nil {
		t.Fatal(err)
	}
	got := m.HoldersView("a")
	if len(got) != 2 || m.IDOf(got[0]) != "g0" || m.IDOf(got[1]) != "g2" {
		t.Errorf("view after evict = %v", got)
	}
	if copied[1] != "g1" {
		t.Errorf("copy mutated by evict: %v", copied)
	}
}

func TestIndexConsistencyProperty(t *testing.T) {
	m := newMgr(t, PolicyLFU)
	gpus := []string{"g0", "g1", "g2", "g3"}
	for _, id := range gpus {
		if err := m.RegisterGPU(id); err != nil {
			t.Fatal(err)
		}
	}
	mdls := []string{"a", "b", "c", "d", "e"}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 2000; step++ {
		g := gpus[rng.Intn(len(gpus))]
		mdl := mdls[rng.Intn(len(mdls))]
		if m.Cached(g, mdl) {
			if rng.Intn(2) == 0 {
				if err := m.OnHit(g, mdl, sim.Time(step)); err != nil {
					t.Fatal(err)
				}
			} else if err := m.OnEvict(g, mdl, sim.Time(step)); err != nil {
				t.Fatal(err)
			}
		} else if err := m.OnMiss(g, mdl, sim.Time(step)); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
