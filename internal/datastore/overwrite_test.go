package datastore

import (
	"errors"
	"testing"
	"time"
	"unsafe"
)

// An overwrite keeps the key's CreateRevision and moves its ModRevision
// forward, whether the new value is longer or shorter than the old.
func TestOverwriteRevisions(t *testing.T) {
	s := New()
	rev, _ := s.Put("k", []byte("idle"), 0)
	for i, v := range []string{"busy", "a much longer value than before", "x", "", "idle"} {
		next, err := s.Put("k", []byte(v), 0)
		if err != nil {
			t.Fatal(err)
		}
		if next <= rev {
			t.Errorf("overwrite %d: revision %d not after %d", i, next, rev)
		}
		kv, err := s.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if string(kv.Value) != v || kv.CreateRevision != 1 || kv.ModRevision != next {
			t.Errorf("overwrite %d: %+v, want value %q create 1 mod %d", i, kv, v, next)
		}
		rev = next
	}
}

// Neither a Get nor a List result aliases the stored bytes an overwrite
// rewrites in place.
func TestOverwriteReadersKeepTheirCopies(t *testing.T) {
	s := New()
	s.Put("gpu/g0", []byte("busy"), 0)
	got, _ := s.Get("gpu/g0")
	listed := s.List("gpu/")
	got.Value[0] = 'X'
	listed[0].Value[0] = 'Y'
	if kv, _ := s.Get("gpu/g0"); string(kv.Value) != "busy" {
		t.Errorf("reader mutation reached the store: %q", kv.Value)
	}
	got, _ = s.Get("gpu/g0")
	listed = s.List("gpu/")
	s.Put("gpu/g0", []byte("idle"), 0)
	if string(got.Value) != "busy" || string(listed[0].Value) != "busy" {
		t.Errorf("overwrite reached earlier reads: get %q list %q", got.Value, listed[0].Value)
	}
}

// An event received before its watcher is cancelled keeps the value it
// carried, though the key is then overwritten in place.
func TestOverwriteKeepsWatchedValue(t *testing.T) {
	s := New()
	ch, cancel, err := s.Watch("k")
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("busy"), 0)
	ev := <-ch
	cancel()
	s.Put("k", []byte("idle"), 0)
	if string(ev.Value) != "busy" {
		t.Errorf("received event reads %q after the overwrite, want busy", ev.Value)
	}
	// Still watching: each event has the value of its own write.
	ch, cancel, _ = s.Watch("k")
	defer cancel()
	s.Put("k", []byte("busy"), 0)
	s.Put("k", []byte("idle"), 0)
	if a, b := <-ch, <-ch; string(a.Value) != "busy" || string(b.Value) != "idle" {
		t.Errorf("events read %q, %q; want busy, idle", a.Value, b.Value)
	}
}

// A leased key overwritten under the same lease still dies with it.
func TestOverwriteUnderLeaseExpires(t *testing.T) {
	s := New()
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })
	id, _ := s.GrantLease(10 * time.Second)
	s.Put("k", []byte("busy"), id)
	if _, err := s.Put("k", []byte("idle"), id); err != nil {
		t.Fatal(err)
	}
	if kv, err := s.Get("k"); err != nil || kv.Lease != id || string(kv.Value) != "idle" {
		t.Fatalf("overwrite under lease: %+v, %v", kv, err)
	}
	now = now.Add(11 * time.Second)
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("overwritten leased key outlived its lease: %v", err)
	}
}

// A swap drops the key's lease, as a lease-less Put does: revoking the
// old lease no longer deletes it.
func TestCompareAndSwapDetachesLease(t *testing.T) {
	s := New()
	id, _ := s.GrantLease(time.Hour)
	rev, _ := s.Put("k", []byte("1"), id)
	if _, err := s.CompareAndSwap("k", rev, []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := s.RevokeLease(id); err != nil {
		t.Fatal(err)
	}
	if kv, err := s.Get("k"); err != nil || kv.Lease != 0 || string(kv.Value) != "2" {
		t.Errorf("swapped key after revoking its old lease: %+v, %v", kv, err)
	}
}

func TestOverwriteClosedStore(t *testing.T) {
	s := New()
	s.Put("k", []byte("busy"), 0)
	s.Close()
	if _, err := s.Put("k", []byte("idle"), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("overwrite after close: %v", err)
	}
}

// Put retains neither argument: a key viewed over a scratch buffer (as
// the FaaS records pass theirs) is copied on insert, so rewriting the
// buffer afterwards changes nothing in the store.
func TestPutDoesNotRetainKey(t *testing.T) {
	s := New()
	buf := []byte("latency/f/1")
	s.Put(unsafe.String(&buf[0], len(buf)), []byte("v"), 0)
	copy(buf, "XXXXXXXXXXX")
	if kv, err := s.Get("latency/f/1"); err != nil || kv.Key != "latency/f/1" {
		t.Errorf("stored key changed with the caller's buffer: %+v, %v", kv, err)
	}
	if l := s.List(""); len(l) != 1 || l[0].Key != "latency/f/1" {
		t.Errorf("List = %+v", l)
	}
}

// Overwriting a key no watcher is subscribed to allocates nothing.
func TestOverwriteAllocs(t *testing.T) {
	s := New()
	s.Put("gpu/node0/gpu0/status", []byte("idle"), 0)
	busy, idle := []byte("busy"), []byte("idle")
	n := 0
	if avg := testing.AllocsPerRun(1000, func() {
		v := busy
		if n++; n%2 == 0 {
			v = idle
		}
		if _, err := s.Put("gpu/node0/gpu0/status", v, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("overwrite allocs/op = %.2f, want 0", avg)
	}
}
