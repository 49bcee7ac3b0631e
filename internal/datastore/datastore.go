// Package datastore implements the Datastore of the FaaS architecture
// (§III-E): an etcd-like consistent key-value store holding "the estimated
// latency of each inference request, the LRU list of each GPU, and the
// status of each GPU". Like etcd it provides monotonically increasing
// revisions, compare-and-swap, prefix queries, watches that stream ordered
// change events, and TTL leases. It is an in-process store with full
// mutual exclusion — the consistency guarantees the paper relies on (a
// single serialized view shared by the Scheduler, Cache Manager and GPU
// Managers) hold by construction.
//
// Writes cost what a record costs. Putting a new key stores one copy of
// the key, one copy of the value and one entry; overwriting an existing
// key rewrites its value bytes in place and allocates nothing, which is
// what keeps the GPU Managers' busy/idle transitions off the heap. That is
// safe because no caller ever holds the stored bytes: Get and List hand
// out copies, and a watch event carries its own copy of the value, made
// once per write that some watcher is subscribed to — so an event keeps
// its bytes however long its receiver holds it, Cancel or not.
package datastore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one change notification.
type Event struct {
	Type     EventType
	Key      string
	Value    []byte
	Revision int64
}

// EventType discriminates puts from deletes.
type EventType int

// Event types.
const (
	EventPut EventType = iota
	EventDelete
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventPut:
		return "put"
	case EventDelete:
		return "delete"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// KV is one key-value pair with its metadata.
type KV struct {
	Key            string
	Value          []byte
	CreateRevision int64
	ModRevision    int64
	Lease          int64
}

// Errors reported by the store.
var (
	ErrNotFound    = errors.New("datastore: key not found")
	ErrCASFailed   = errors.New("datastore: compare-and-swap failed")
	ErrLeaseExpire = errors.New("datastore: lease not found or expired")
	ErrClosed      = errors.New("datastore: store closed")
)

type watcher struct {
	prefix string
	ch     chan Event
	done   chan struct{}
}

type lease struct {
	id      int64
	ttl     time.Duration
	expires time.Time
	keys    map[string]bool
}

// Store is the key-value store. All operations are linearizable under the
// single internal mutex.
type Store struct {
	mu       sync.Mutex
	rev      int64
	kv       map[string]*KV
	watchers map[*watcher]bool
	leases   map[int64]*lease
	nextLs   int64
	closed   bool
	// now is injectable for deterministic lease tests.
	now func() time.Time
}

// New creates an empty store.
func New() *Store {
	return &Store{
		kv:       make(map[string]*KV),
		watchers: make(map[*watcher]bool),
		leases:   make(map[int64]*lease),
		now:      time.Now,
	}
}

// SetClock overrides the time source (tests).
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// Revision returns the current store revision.
func (s *Store) Revision() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rev
}

// expireLocked drops expired leases and their keys.
func (s *Store) expireLocked() {
	now := s.now()
	for id, l := range s.leases {
		if now.Before(l.expires) {
			continue
		}
		for k := range l.keys {
			s.deleteLocked(k)
		}
		delete(s.leases, id)
	}
}

// notifyLocked sends ev to every watcher under its key's prefix. The
// watchers share one copy of ev.Value, made only if one of them matches:
// the stored bytes are rewritten in place by the next Put, the copy never.
func (s *Store) notifyLocked(ev Event) {
	copied := false
	for w := range s.watchers {
		if !strings.HasPrefix(ev.Key, w.prefix) {
			continue
		}
		if !copied {
			ev.Value = append([]byte(nil), ev.Value...)
			copied = true
		}
		select {
		case w.ch <- ev:
		case <-w.done:
		}
	}
}

// writeLocked stores value under key, bound to lease l (nil: leaseID is
// 0), bumps the revision and notifies the watchers. A new key is copied
// into the store, so key itself is never retained; an existing entry
// keeps its CreateRevision and has its value rewritten in place.
func (s *Store) writeLocked(key string, value []byte, leaseID int64, l *lease) int64 {
	s.rev++
	e, ok := s.kv[key]
	if ok {
		e.Value = append(e.Value[:0], value...)
	} else {
		e = &KV{Key: strings.Clone(key), Value: append([]byte(nil), value...), CreateRevision: s.rev}
		s.kv[e.Key] = e
	}
	if e.Lease != 0 && e.Lease != leaseID {
		if ol, ok := s.leases[e.Lease]; ok {
			delete(ol.keys, key)
		}
	}
	e.Lease = leaseID
	e.ModRevision = s.rev
	if l != nil {
		l.keys[e.Key] = true
	}
	s.notifyLocked(Event{Type: EventPut, Key: e.Key, Value: e.Value, Revision: s.rev})
	return s.rev
}

// Put writes a key, returning the new revision. leaseID 0 means no lease.
// Put copies both arguments and retains neither: a new key costs one copy
// of the key, one of the value and an entry, and overwriting a key
// rewrites the stored bytes in place and allocates nothing. Watchers get
// their own copy (one per Put, shared by every matching watcher), so the
// bytes a watch event carries are never the ones an overwrite rewrites.
func (s *Store) Put(key string, value []byte, leaseID int64) (int64, error) {
	if key == "" {
		return 0, errors.New("datastore: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.expireLocked()
	var l *lease
	if leaseID != 0 {
		var ok bool
		l, ok = s.leases[leaseID]
		if !ok {
			return 0, fmt.Errorf("%w: %d", ErrLeaseExpire, leaseID)
		}
	}
	return s.writeLocked(key, value, leaseID, l), nil
}

// Get reads one key.
func (s *Store) Get(key string) (KV, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return KV{}, ErrClosed
	}
	s.expireLocked()
	kv, ok := s.kv[key]
	if !ok {
		return KV{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	out := *kv
	out.Value = append([]byte(nil), kv.Value...)
	return out, nil
}

// List returns all pairs under a prefix, sorted by key.
func (s *Store) List(prefix string) []KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.expireLocked()
	var out []KV
	for k, kv := range s.kv {
		if strings.HasPrefix(k, prefix) {
			cp := *kv
			cp.Value = append([]byte(nil), kv.Value...)
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (s *Store) deleteLocked(key string) bool {
	kv, ok := s.kv[key]
	if !ok {
		return false
	}
	if kv.Lease != 0 {
		if l, ok := s.leases[kv.Lease]; ok {
			delete(l.keys, key)
		}
	}
	delete(s.kv, key)
	s.rev++
	s.notifyLocked(Event{Type: EventDelete, Key: key, Revision: s.rev})
	return true
}

// Delete removes a key; it reports whether the key existed.
func (s *Store) Delete(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	s.expireLocked()
	return s.deleteLocked(key), nil
}

// CompareAndSwap writes value only if the key's current ModRevision equals
// expected (0 = key must not exist). It returns the new revision.
func (s *Store) CompareAndSwap(key string, expected int64, value []byte) (int64, error) {
	if key == "" {
		return 0, errors.New("datastore: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.expireLocked()
	cur, exists := s.kv[key]
	switch {
	case expected == 0 && exists:
		return 0, fmt.Errorf("%w: %s exists at rev %d", ErrCASFailed, key, cur.ModRevision)
	case expected != 0 && (!exists || cur.ModRevision != expected):
		got := int64(0)
		if exists {
			got = cur.ModRevision
		}
		return 0, fmt.Errorf("%w: %s at rev %d, expected %d", ErrCASFailed, key, got, expected)
	}
	return s.writeLocked(key, value, 0, nil), nil
}

// GrantLease creates a lease with the given TTL and returns its ID.
func (s *Store) GrantLease(ttl time.Duration) (int64, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("datastore: non-positive TTL %v", ttl)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.nextLs++
	id := s.nextLs
	s.leases[id] = &lease{id: id, ttl: ttl, expires: s.now().Add(ttl), keys: make(map[string]bool)}
	return id, nil
}

// KeepAlive refreshes a lease's expiry.
func (s *Store) KeepAlive(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.expireLocked()
	l, ok := s.leases[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrLeaseExpire, id)
	}
	l.expires = s.now().Add(l.ttl)
	return nil
}

// RevokeLease drops a lease and deletes its keys.
func (s *Store) RevokeLease(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	l, ok := s.leases[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrLeaseExpire, id)
	}
	for k := range l.keys {
		s.deleteLocked(k)
	}
	delete(s.leases, id)
	return nil
}

// Watch streams events for keys under prefix, starting with changes after
// the call. Cancel releases the watcher; the channel is closed on cancel
// or store close. The channel is buffered; a slow consumer blocks writers,
// matching etcd's backpressure-by-default behaviour at this scale.
func (s *Store) Watch(prefix string) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	w := &watcher{prefix: prefix, ch: make(chan Event, 128), done: make(chan struct{})}
	s.watchers[w] = true
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.watchers[w] {
			delete(s.watchers, w)
			close(w.done)
			close(w.ch)
		}
	}
	return w.ch, cancel, nil
}

// Close shuts the store; all watchers are closed and further operations
// fail with ErrClosed.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for w := range s.watchers {
		delete(s.watchers, w)
		close(w.done)
		close(w.ch)
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return len(s.kv)
}
