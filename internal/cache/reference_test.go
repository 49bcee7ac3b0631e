package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpufaas/internal/sim"
)

// refList is the container/list replacement list recencyList replaced —
// the former lruList, and with moveOnUse off the former fifoList — kept as
// the oracle for both policies.
type refList struct {
	ll        *list.List // front = most recent
	pos       map[string]*list.Element
	moveOnUse bool
}

func newRefList(moveOnUse bool) *refList {
	return &refList{ll: list.New(), pos: make(map[string]*list.Element), moveOnUse: moveOnUse}
}

func (l *refList) Insert(model string) {
	if e, ok := l.pos[model]; ok {
		if l.moveOnUse {
			l.ll.MoveToFront(e)
		}
		return
	}
	l.pos[model] = l.ll.PushFront(model)
}

func (l *refList) Touch(model string) {
	if e, ok := l.pos[model]; ok && l.moveOnUse {
		l.ll.MoveToFront(e)
	}
}

func (l *refList) Remove(model string) {
	if e, ok := l.pos[model]; ok {
		l.ll.Remove(e)
		delete(l.pos, model)
	}
}

func (l *refList) AppendCandidates(dst []string) []string {
	for e := l.ll.Back(); e != nil; e = e.Prev() {
		dst = append(dst, e.Value.(string))
	}
	return dst
}

func (l *refList) Len() int { return len(l.pos) }

// TestRecencyListMatchesReference drives the slab list and the
// container/list oracle with one seeded tape — inserts (of resident and of
// removed models alike), touches, removes, of present and absent names —
// and holds them to the same length and the same eviction order after every
// operation.
func TestRecencyListMatchesReference(t *testing.T) {
	models := make([]string, 40)
	for i := range models {
		models[i] = fmt.Sprintf("m%02d", i)
	}
	for _, tc := range []struct {
		policy string
		ref    *refList
	}{
		{PolicyLRU, newRefList(true)},
		{PolicyFIFO, newRefList(false)},
	} {
		got, err := NewReplacementList(tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(got.AppendCandidates(nil)); n != 0 || got.Len() != 0 {
			t.Fatalf("%s: a new list holds %d candidates, Len %d", tc.policy, n, got.Len())
		}
		got.Touch("absent")
		got.Remove("absent")
		rng := rand.New(rand.NewSource(21))
		var a, b []string
		for op := 0; op < 20000; op++ {
			m := models[rng.Intn(len(models))]
			switch k := rng.Intn(10); {
			case k < 4:
				got.Insert(m)
				tc.ref.Insert(m)
			case k < 7:
				got.Touch(m)
				tc.ref.Touch(m)
			default:
				got.Remove(m)
				tc.ref.Remove(m)
			}
			// Now and then drain to empty, so the free chain is walked end
			// to end and the ring is rebuilt from its sentinel alone.
			if op%5000 == 4999 {
				for _, m := range tc.ref.AppendCandidates(nil) {
					got.Remove(m)
					tc.ref.Remove(m)
				}
			}
			a, b = got.AppendCandidates(a[:0]), tc.ref.AppendCandidates(b[:0])
			if got.Len() != tc.ref.Len() || !slices.Equal(a, b) {
				t.Fatalf("%s op %d: Len %d candidates %v, reference Len %d candidates %v",
					tc.policy, op, got.Len(), a, tc.ref.Len(), b)
			}
		}
		// The slab grew to the peak residency plus the sentinel, no further.
		if n := len(got.(*recencyList).nodes); n > len(models)+1 {
			t.Errorf("%s: %d nodes for at most %d resident models", tc.policy, n, len(models))
		}
	}
}

// TestIndexRecyclesHolderLists churns models on and off a small fleet —
// most evictions here empty a holder list, most inserts refill one — and
// checks after every event that the index is consistent, that it counts
// only the models resident somewhere, and that a list, once it has its
// storage, is never allocated again.
func TestIndexRecyclesHolderLists(t *testing.T) {
	ix := NewIndex()
	gpus := []string{"g0", "g1", "g2", "g3"}
	for _, id := range gpus {
		ix.AddGPU(id)
	}
	models := make([]string, 30)
	for i := range models {
		models[i] = fmt.Sprintf("m%02d", i)
	}
	resident := map[string]map[string]bool{}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 10000; step++ {
		g, m := gpus[rng.Intn(len(gpus))], models[rng.Intn(len(models))]
		kind := EventInsert
		if resident[m][g] {
			kind = EventEvict
			delete(resident[m], g)
			if len(resident[m]) == 0 {
				delete(resident, m)
			}
		} else {
			if resident[m] == nil {
				resident[m] = map[string]bool{}
			}
			resident[m][g] = true
		}
		ix.Apply(Event{Kind: kind, GPU: g, Model: m, At: sim.Time(step)})
		if err := ix.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if ix.Models() != len(resident) {
			t.Fatalf("step %d: Models() = %d, %d models are resident", step, ix.Models(), len(resident))
		}
		if ix.NumCaching(m) != len(resident[m]) || ix.Cached(g, m) != resident[m][g] {
			t.Fatalf("step %d: %s on %s: NumCaching %d Cached %v, want %d %v",
				step, m, g, ix.NumCaching(m), ix.Cached(g, m), len(resident[m]), resident[m][g])
		}
	}
	ix.Apply(Event{Kind: EventEvict, GPU: "g0", Model: "never-seen"})
	if len(ix.holders) > len(models) {
		t.Errorf("index keeps %d holder lists for %d models", len(ix.holders), len(models))
	}
	// A list that has had storage keeps it: emptying and refilling is free.
	ix.Apply(Event{Kind: EventInsert, GPU: "g1", Model: "solo"})
	if avg := testing.AllocsPerRun(100, func() {
		ix.Apply(Event{Kind: EventEvict, GPU: "g1", Model: "solo"})
		ix.Apply(Event{Kind: EventInsert, GPU: "g1", Model: "solo"})
	}); avg != 0 {
		t.Errorf("evict-to-empty + re-insert allocates %.2f allocs/op, want 0", avg)
	}
}
