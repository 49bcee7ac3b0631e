// Residency index and event stream. The Manager emits an Event for every
// cache state transition (a model becoming resident on a miss, a model
// being evicted); the Index consumes that stream to maintain the global
// model → {GPUs caching it} map the Scheduler's hot path queries. Keeping
// the index event-driven means every lookup the scheduler performs per
// decision — Cached, holder lists — is O(holders) instead of a cluster
// scan, and external components (datastores, dashboards) can subscribe to
// the same stream to maintain their own derived views.
//
// The Index is also the system's interning authority for GPU identifiers:
// registration assigns each GPU a dense, monotone ordset.Ord, and the
// holder lists are ascending Ord slices. Hot-path consumers (the
// scheduler, the cluster's idle set) operate on Ords — slice and bitset
// indexing — and only translate back to strings at the dispatch boundary.
package cache

import (
	"fmt"

	"gpufaas/internal/ordset"
	"gpufaas/internal/sim"
)

// Ord is the dense GPU registration ordinal (see ordset.Ord).
type Ord = ordset.Ord

// EventKind classifies a cache state transition.
type EventKind int

// Cache transition kinds.
const (
	// EventInsert: a miss was resolved and the model became resident.
	EventInsert EventKind = iota
	// EventEvict: the model was evicted (its GPU process killed).
	EventEvict
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case EventInsert:
		return "insert"
	case EventEvict:
		return "evict"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one cache residency transition, emitted by the Manager after
// its own state (including the Index) reflects the transition.
type Event struct {
	Kind  EventKind
	GPU   string
	Model string
	At    sim.Time
}

// Index is the incremental model → resident-GPUs map. It is updated from
// the Manager's insert/evict events and keeps, per model, the holders as
// an ascending Ord slice — registration order, so lookups are
// deterministic, allocation-free, and bounded by the number of holders
// rather than the cluster size. Membership tests binary-search the holder
// list: resident sets per model are tiny (duplicates of one model are
// what the paper's Fig. 6 counts), so this beats a per-model hash set on
// both lookup cost and memory.
type Index struct {
	ord map[string]Ord // gpuID -> registration ordinal
	// ids translates a live ordinal back to its GPU ID ("" once
	// removed). Ordinals are monotone and never reused, so len(ids) is
	// the OrdBound: every ordinal ever assigned is < len(ids).
	ids []string
	// holders maps a model to its caching GPUs, ascending Ord. A model
	// evicted everywhere keeps an empty list here (see Apply), so the map
	// grows to the number of distinct models ever resident, not beyond.
	holders map[string][]Ord
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{
		ord:     make(map[string]Ord),
		holders: make(map[string][]Ord),
	}
}

// AddGPU registers a GPU; registration order defines the deterministic
// holder order. Duplicate registrations are ignored. Registration
// ordinals are monotone and never reused, so GPUs added after a removal
// (elastic membership) still sort after every earlier registration.
func (ix *Index) AddGPU(gpuID string) {
	if _, ok := ix.ord[gpuID]; ok {
		return
	}
	ix.ord[gpuID] = Ord(len(ix.ids))
	ix.ids = append(ix.ids, gpuID)
}

// RemoveGPU deregisters a GPU. The caller must have evicted all of the
// GPU's residents first (the Manager enforces this); removing a GPU that
// still appears in a holder list is an error.
func (ix *Index) RemoveGPU(gpuID string) error {
	o, ok := ix.ord[gpuID]
	if !ok {
		return nil
	}
	for model, hs := range ix.holders {
		if ordset.Contains(hs, o) {
			return fmt.Errorf("cache: removing GPU %s still caching %s", gpuID, model)
		}
	}
	delete(ix.ord, gpuID)
	ix.ids[o] = ""
	return nil
}

// Ord resolves a GPU ID to its registration ordinal.
func (ix *Index) Ord(gpuID string) (Ord, bool) {
	o, ok := ix.ord[gpuID]
	return o, ok
}

// IDOf returns the GPU ID for an ordinal ("" if never assigned or
// removed).
func (ix *Index) IDOf(o Ord) string {
	if o < 0 || int(o) >= len(ix.ids) {
		return ""
	}
	return ix.ids[o]
}

// OrdBound returns one past the highest ordinal ever assigned; ordinals
// are dense, so slices indexed by Ord are sized by this bound.
func (ix *Index) OrdBound() Ord { return Ord(len(ix.ids)) }

// Apply folds one residency transition into the index. Unknown GPUs and
// redundant transitions are ignored (the Manager validates before
// emitting).
func (ix *Index) Apply(ev Event) {
	o, ok := ix.ord[ev.GPU]
	if !ok {
		return
	}
	switch ev.Kind {
	case EventInsert:
		ix.holders[ev.Model] = ordset.Insert(ix.holders[ev.Model], o)
	case EventEvict:
		// A list that empties keeps its map entry and its storage: the
		// model's next insert — on the churn path the very next event —
		// reuses both instead of allocating them again.
		if hs, ok := ix.holders[ev.Model]; ok {
			ix.holders[ev.Model] = ordset.Remove(hs, o)
		}
	}
}

// Cached reports whether the model is resident on the GPU.
func (ix *Index) Cached(gpuID, model string) bool {
	o, ok := ix.ord[gpuID]
	return ok && ordset.Contains(ix.holders[model], o)
}

// CachedOrd is Cached for a pre-resolved ordinal (the scheduler's
// per-decision path).
func (ix *Index) CachedOrd(o Ord, model string) bool {
	return ordset.Contains(ix.holders[model], o)
}

// NumCaching returns how many GPUs cache the model.
func (ix *Index) NumCaching(model string) int { return len(ix.holders[model]) }

// Holders returns the ordinals of the GPUs caching the model, ascending
// (= registration order); it is empty when the model is resident nowhere.
// The returned slice is the index's internal storage, which every insert
// and evict of that model edits in place — an emptied list keeps its array
// for the model's next insert. Callers must treat the slice as read-only
// and must not use it after the next Apply: it may list different GPUs by
// then, or a grown list may have moved.
func (ix *Index) Holders(model string) []Ord { return ix.holders[model] }

// Models returns the number of distinct models resident anywhere. Models
// whose emptied holder list is being kept for reuse do not count.
func (ix *Index) Models() int {
	n := 0
	for _, hs := range ix.holders {
		if len(hs) > 0 {
			n++
		}
	}
	return n
}

// CheckConsistency verifies every holder list is strictly ascending and
// every listed ordinal belongs to a live registration.
func (ix *Index) CheckConsistency() error {
	for model, hs := range ix.holders {
		for i, o := range hs {
			if i > 0 && hs[i-1] >= o {
				return fmt.Errorf("cache: holder list for %s out of registration order", model)
			}
			id := ix.IDOf(o)
			if id == "" {
				return fmt.Errorf("cache: %s held by dead ordinal %d", model, o)
			}
			if got, ok := ix.ord[id]; !ok || got != o {
				return fmt.Errorf("cache: ordinal %d for %s does not round-trip", o, id)
			}
		}
	}
	return nil
}
