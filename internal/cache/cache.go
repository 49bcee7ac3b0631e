// Package cache implements the paper's global Cache Manager (§III-D). It
// treats the inference models resident in each GPU's memory as cache items,
// maintains one replacement list per GPU (LRU by default, with the
// pluggable alternatives §VI calls out), selects eviction victims to make
// room on a miss, and maintains the global model → {GPUs caching it} index
// the Scheduler consults ("the Cache Manager maintains the lists of GPUs
// where each model is cached", §VI).
//
// The Manager also owns the evaluation metrics that are defined at cache
// granularity: cache miss ratio (Fig. 4b), false-miss ratio (Fig. 5), and
// the time-averaged number of duplicates of tracked hot models (Fig. 6).
//
// Memory follows residency, not traffic: the LRU/FIFO list reuses the nodes
// of a per-GPU slab and the Index keeps a model's emptied holder list, so
// once warm a miss → evict → insert cycle allocates nothing.
package cache

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"gpufaas/internal/sim"
	"gpufaas/internal/stats"
)

// ReplacementList orders a single GPU's resident models by eviction
// preference. Implementations are not safe for concurrent use; the Manager
// serializes access. Inserting a tracked model counts as a use of it;
// touching or removing an untracked one does nothing.
type ReplacementList interface {
	// Insert adds a model that just became resident.
	Insert(model string)
	// Touch records a use of a resident model.
	Touch(model string)
	// Remove drops a model (evicted or killed).
	Remove(model string)
	// AppendCandidates appends the tracked models to dst, the one to evict
	// first leading, and returns the extended slice.
	AppendCandidates(dst []string) []string
	// Len returns the number of tracked models.
	Len() int
}

// recencyList is LRU (the paper's default: least recently used evicts first)
// and FIFO (insertion order: the same list, but a use moves nothing). Slab
// and map appear with the first insert; until then a GPU costs this struct.
type recencyList struct {
	nodes     []recencyNode // nodes[0] is the ring's sentinel: next = most recent, prev = next victim
	free      int32         // head of the free chain, linked through next; 0 = none
	pos       map[string]int32
	moveOnUse bool // LRU
}

type recencyNode struct {
	model      string
	prev, next int32
}

func newLRU() ReplacementList  { return &recencyList{moveOnUse: true} }
func newFIFO() ReplacementList { return &recencyList{} }

// link puts node i at the front of ring n; unlink takes it out.
func link(n []recencyNode, i int32) {
	n[i].prev, n[i].next = 0, n[0].next
	n[n[0].next].prev, n[0].next = i, i
}

func unlink(n []recencyNode, i int32) {
	n[n[i].prev].next, n[n[i].next].prev = n[i].next, n[i].prev
}

func (l *recencyList) Insert(model string) {
	if _, ok := l.pos[model]; ok {
		l.Touch(model)
		return
	}
	if l.pos == nil {
		l.pos, l.nodes = make(map[string]int32), make([]recencyNode, 1)
	}
	i := l.free
	if i == 0 {
		l.nodes = append(l.nodes, recencyNode{})
		i = int32(len(l.nodes) - 1)
	}
	l.free = l.nodes[i].next // 0 for a fresh node, which is only taken when the chain is empty
	l.nodes[i].model = model
	link(l.nodes, i)
	l.pos[model] = i
}

func (l *recencyList) Touch(model string) {
	if i, ok := l.pos[model]; ok && l.moveOnUse && l.nodes[0].next != i {
		unlink(l.nodes, i)
		link(l.nodes, i)
	}
}

func (l *recencyList) Remove(model string) {
	if i, ok := l.pos[model]; ok {
		delete(l.pos, model)
		unlink(l.nodes, i)
		l.nodes[i] = recencyNode{next: l.free}
		l.free = i
	}
}

func (l *recencyList) AppendCandidates(dst []string) []string {
	for i, k := int32(0), len(l.pos); k > 0; k-- {
		i = l.nodes[i].prev
		dst = append(dst, l.nodes[i].model)
	}
	return dst
}

func (l *recencyList) Len() int { return len(l.pos) }

// lfuList evicts the least-frequently-used model first, breaking ties by
// least-recent use.
type lfuList struct {
	count map[string]int64
	last  map[string]int64
	tick  int64
}

func newLFU() ReplacementList {
	return &lfuList{count: make(map[string]int64), last: make(map[string]int64)}
}

func (l *lfuList) Insert(model string) {
	l.tick++
	if _, ok := l.count[model]; !ok {
		l.count[model] = 0
	}
	l.last[model] = l.tick
}

func (l *lfuList) Touch(model string) {
	if _, ok := l.count[model]; !ok {
		return
	}
	l.tick++
	l.count[model]++
	l.last[model] = l.tick
}

func (l *lfuList) Remove(model string) {
	delete(l.count, model)
	delete(l.last, model)
}

func (l *lfuList) AppendCandidates(dst []string) []string {
	n := len(dst)
	for m := range l.count {
		dst = append(dst, m)
	}
	out := dst[n:]
	sort.Slice(out, func(i, j int) bool {
		ci, cj := l.count[out[i]], l.count[out[j]]
		if ci != cj {
			return ci < cj
		}
		return l.last[out[i]] < l.last[out[j]]
	})
	return dst
}

func (l *lfuList) Len() int { return len(l.count) }

// Policy names accepted by NewManager.
const (
	PolicyLRU  = "lru"
	PolicyFIFO = "fifo"
	PolicyLFU  = "lfu"
)

// NewReplacementList builds a list for the named policy.
func NewReplacementList(policy string) (ReplacementList, error) {
	switch policy {
	case PolicyLRU, "":
		return newLRU(), nil
	case PolicyFIFO:
		return newFIFO(), nil
	case PolicyLFU:
		return newLFU(), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %q", policy)
	}
}

// DeviceView is the slice of gpu.Device the Cache Manager needs for victim
// selection; defined here so cache does not import gpu.
type DeviceView interface {
	ID() string
	MemFree() int64
	ResidentSize(model string) (int64, bool)
}

// Errors reported by the Manager.
var (
	ErrUnknownGPU   = errors.New("cache: unknown GPU")
	ErrWontFit      = errors.New("cache: model cannot fit even after evicting all victims")
	ErrNotTracked   = errors.New("cache: model not tracked on GPU")
	ErrAlreadyKnown = errors.New("cache: model already tracked on GPU")
)

// Manager is the global Cache Manager. It is not safe for concurrent use;
// the live path wraps it in the cluster mutex, matching the paper's
// single global component.
type Manager struct {
	policy string
	perGPU map[string]ReplacementList
	gpuIDs []string
	idx    *Index            // model -> resident GPUs, updated from events
	pinned map[string]string // gpuID -> model currently in use (not evictable)
	sizeOf func(model string) (int64, bool)
	miss   stats.Ratio
	falseMiss
	tracked map[string]*stats.TimeWeighted
	subs    []func(Event)
	// Scratch for Victims: the GPU's replacement order and the chosen
	// victims, reused across calls.
	candidates, victims []string
}

type falseMiss struct {
	falseMisses int64
	misses      int64
}

// NewManager creates a Manager using the named replacement policy. sizeOf
// resolves a model's GPU occupancy in bytes (from the model zoo).
func NewManager(policy string, sizeOf func(model string) (int64, bool)) (*Manager, error) {
	if _, err := NewReplacementList(policy); err != nil {
		return nil, err
	}
	if sizeOf == nil {
		return nil, errors.New("cache: nil sizeOf")
	}
	if policy == "" {
		policy = PolicyLRU
	}
	return &Manager{
		policy:  policy,
		perGPU:  make(map[string]ReplacementList),
		idx:     NewIndex(),
		pinned:  make(map[string]string),
		sizeOf:  sizeOf,
		tracked: make(map[string]*stats.TimeWeighted),
	}, nil
}

// Subscribe registers a listener for cache residency events. Listeners
// run synchronously, in subscription order, after the Manager's own state
// (replacement lists and the global index) reflects the transition; they
// must not call back into the Manager.
func (m *Manager) Subscribe(fn func(Event)) {
	if fn != nil {
		m.subs = append(m.subs, fn)
	}
}

// emit folds the transition into the index, refreshes tracked-duplicate
// sampling, and notifies subscribers.
func (m *Manager) emit(ev Event) {
	m.idx.Apply(ev)
	m.sample(ev.Model, ev.At)
	for _, fn := range m.subs {
		fn(ev)
	}
}

// Policy returns the replacement policy name.
func (m *Manager) Policy() string { return m.policy }

// RegisterGPU adds a GPU to the manager. Registration order defines the
// deterministic tie-break order used elsewhere.
func (m *Manager) RegisterGPU(gpuID string) error {
	if _, ok := m.perGPU[gpuID]; ok {
		return fmt.Errorf("cache: GPU %s already registered", gpuID)
	}
	rl, err := NewReplacementList(m.policy)
	if err != nil {
		return err
	}
	m.perGPU[gpuID] = rl
	m.gpuIDs = append(m.gpuIDs, gpuID)
	m.idx.AddGPU(gpuID)
	return nil
}

// UnregisterGPU removes a GPU from the manager (elastic decommission).
// Every resident model must already have been evicted through OnEvict so
// the index, subscribers and derived views saw the departures; a GPU with
// residents cannot be unregistered.
func (m *Manager) UnregisterGPU(gpuID string) error {
	rl, ok := m.perGPU[gpuID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGPU, gpuID)
	}
	if rl.Len() != 0 {
		return fmt.Errorf("cache: GPU %s still holds %d residents", gpuID, rl.Len())
	}
	if err := m.idx.RemoveGPU(gpuID); err != nil {
		return err
	}
	delete(m.perGPU, gpuID)
	delete(m.pinned, gpuID)
	if i := slices.Index(m.gpuIDs, gpuID); i >= 0 {
		m.gpuIDs = slices.Delete(m.gpuIDs, i, i+1)
	}
	return nil
}

// GPUs returns the registered GPU IDs in registration order.
func (m *Manager) GPUs() []string {
	out := make([]string, len(m.gpuIDs))
	copy(out, m.gpuIDs)
	return out
}

// Cached reports whether model is resident on gpuID according to the
// manager's view.
func (m *Manager) Cached(gpuID, model string) bool {
	return m.idx.Cached(gpuID, model)
}

// GPUsCaching returns the GPUs currently caching model, in registration
// order (deterministic). This is the §VI index that bounds the scheduler's
// search "by the number of GPUs that have this model cached". The result
// is a fresh slice the caller may keep; hot paths should prefer
// HoldersView.
func (m *Manager) GPUsCaching(model string) []string {
	hs := m.idx.Holders(model)
	if len(hs) == 0 {
		return nil
	}
	out := make([]string, len(hs))
	for i, o := range hs {
		out[i] = m.idx.IDOf(o)
	}
	return out
}

// HoldersView is the allocation-free holder lookup for the scheduler's
// hot path: the index's internal ascending-Ord holder list (registration
// order). Callers must treat it as read-only and must not retain it
// across the next cache mutation.
func (m *Manager) HoldersView(model string) []Ord {
	return m.idx.Holders(model)
}

// Ord resolves a GPU ID to its dense registration ordinal.
func (m *Manager) Ord(gpuID string) (Ord, bool) { return m.idx.Ord(gpuID) }

// IDOf translates a live ordinal back to its GPU ID.
func (m *Manager) IDOf(o Ord) string { return m.idx.IDOf(o) }

// OrdBound returns one past the highest ordinal ever assigned.
func (m *Manager) OrdBound() Ord { return m.idx.OrdBound() }

// CachedOrd is Cached for a pre-resolved ordinal.
func (m *Manager) CachedOrd(o Ord, model string) bool {
	return m.idx.CachedOrd(o, model)
}

// NumCaching returns how many GPUs cache the model (Fig. 6 duplicates).
func (m *Manager) NumCaching(model string) int {
	return m.idx.NumCaching(model)
}

// CachedAnywhere reports whether any GPU caches the model.
func (m *Manager) CachedAnywhere(model string) bool {
	return m.idx.NumCaching(model) > 0
}

// Pin marks the model as in use on the GPU; pinned models are never chosen
// as victims (the GPU would be killing the process serving a live
// request). Unpin with the empty string.
func (m *Manager) Pin(gpuID, model string) {
	if model == "" {
		delete(m.pinned, gpuID)
		return
	}
	m.pinned[gpuID] = model
}

// Victims selects the models to evict from the device, least-preferred
// first according to the GPU's replacement list, so that `need` bytes fit.
// It returns nil (no evictions) when the model already fits. Pinned models
// are skipped. ErrWontFit is returned when even evicting every candidate
// cannot make room. The returned slice is the manager's scratch: it is
// valid until the next Victims call (the GPU Manager evicts the victims
// before it asks again).
func (m *Manager) Victims(dev DeviceView, need int64) ([]string, error) {
	rl, ok := m.perGPU[dev.ID()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownGPU, dev.ID())
	}
	free := dev.MemFree()
	if free >= need {
		return nil, nil
	}
	m.candidates = rl.AppendCandidates(m.candidates[:0])
	m.victims = m.victims[:0]
	for _, cand := range m.candidates {
		if m.pinned[dev.ID()] == cand {
			continue
		}
		sz, ok := dev.ResidentSize(cand)
		if !ok {
			// The manager's list drifted from the device; treat as
			// already gone.
			continue
		}
		m.victims = append(m.victims, cand)
		free += sz
		if free >= need {
			return m.victims, nil
		}
	}
	return nil, fmt.Errorf("%w: need %d, reachable %d on %s", ErrWontFit, need, free, dev.ID())
}

// OnHit records a cache hit: the model was resident on the GPU and is
// being reused. It refreshes the replacement list.
func (m *Manager) OnHit(gpuID, model string, now sim.Time) error {
	rl, ok := m.perGPU[gpuID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGPU, gpuID)
	}
	if !m.Cached(gpuID, model) {
		return fmt.Errorf("%w: %s on %s", ErrNotTracked, model, gpuID)
	}
	rl.Touch(model)
	m.miss.Observe(false)
	return nil
}

// OnMiss records a cache miss being resolved by loading the model onto the
// GPU. It updates the replacement list, the global index, the miss ratio,
// and the false-miss ratio — a false miss is "a cache miss scenario ...
// where the request is forwarded to a GPU as a cache miss even though the
// requested model is cached on another GPU" (§V-D).
func (m *Manager) OnMiss(gpuID, model string, now sim.Time) error {
	rl, ok := m.perGPU[gpuID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGPU, gpuID)
	}
	if m.Cached(gpuID, model) {
		return fmt.Errorf("%w: %s on %s", ErrAlreadyKnown, model, gpuID)
	}
	m.miss.Observe(true)
	m.misses++
	if m.CachedAnywhere(model) {
		m.falseMisses++
	}
	rl.Insert(model)
	m.emit(Event{Kind: EventInsert, GPU: gpuID, Model: model, At: now})
	return nil
}

// OnEvict records that the model was evicted from the GPU (its process
// killed).
func (m *Manager) OnEvict(gpuID, model string, now sim.Time) error {
	rl, ok := m.perGPU[gpuID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGPU, gpuID)
	}
	if !m.Cached(gpuID, model) {
		return fmt.Errorf("%w: %s on %s", ErrNotTracked, model, gpuID)
	}
	rl.Remove(model)
	m.emit(Event{Kind: EventEvict, GPU: gpuID, Model: model, At: now})
	return nil
}

// Track starts time-averaged duplicate accounting for the model (used for
// the Fig. 6 "average number of duplicates of the top one model" metric).
func (m *Manager) Track(model string, now sim.Time) {
	tw := &stats.TimeWeighted{}
	tw.Set(tw0(now), float64(m.NumCaching(model)))
	m.tracked[model] = tw
}

func tw0(t sim.Time) float64 { return float64(t) / 1e9 }

func (m *Manager) sample(model string, now sim.Time) {
	if tw, ok := m.tracked[model]; ok {
		tw.Set(tw0(now), float64(m.NumCaching(model)))
	}
}

// TrackedAverage returns the time-averaged duplicate count of a tracked
// model through now; 0 when untracked.
func (m *Manager) TrackedAverage(model string, now sim.Time) float64 {
	tw, ok := m.tracked[model]
	if !ok {
		return 0
	}
	return tw.Average(tw0(now))
}

// Metrics summarizes cache-level evaluation metrics.
type Metrics struct {
	Requests    int64
	Misses      int64
	FalseMisses int64
	// MissRatio is misses / requests (Fig. 4b).
	MissRatio float64
	// FalseMissRatio is false misses / misses (Fig. 5): among the
	// scheduling decisions that caused a load, the fraction for which
	// the model was already cached on some other GPU.
	FalseMissRatio float64
}

// Metrics returns a snapshot of the counters.
func (m *Manager) Metrics() Metrics {
	out := Metrics{
		Requests:    m.miss.Den,
		Misses:      m.miss.Num,
		FalseMisses: m.falseMisses,
		MissRatio:   m.miss.Value(),
	}
	if m.misses > 0 {
		out.FalseMissRatio = float64(m.falseMisses) / float64(m.misses)
	}
	return out
}

// ResidentCount returns how many models the manager believes are resident
// on the GPU.
func (m *Manager) ResidentCount(gpuID string) int {
	rl, ok := m.perGPU[gpuID]
	if !ok {
		return 0
	}
	return rl.Len()
}

// CheckConsistency verifies that the per-GPU lists and the global index
// agree; the property tests call it after every operation.
func (m *Manager) CheckConsistency() error {
	if err := m.idx.CheckConsistency(); err != nil {
		return err
	}
	fromLists := make(map[string]map[string]bool)
	for id, rl := range m.perGPU {
		for _, model := range rl.AppendCandidates(nil) {
			set, ok := fromLists[model]
			if !ok {
				set = make(map[string]bool)
				fromLists[model] = set
			}
			set[id] = true
		}
	}
	if len(fromLists) != m.idx.Models() {
		return fmt.Errorf("cache: index has %d models, lists have %d", m.idx.Models(), len(fromLists))
	}
	for model, lset := range fromLists {
		if m.idx.NumCaching(model) != len(lset) {
			return fmt.Errorf("cache: index/list mismatch for %s", model)
		}
		for id := range lset {
			if !m.idx.Cached(id, model) {
				return fmt.Errorf("cache: %s in %s's list but not indexed", model, id)
			}
		}
	}
	return nil
}
