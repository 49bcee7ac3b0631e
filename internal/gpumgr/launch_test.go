package gpumgr

import (
	"errors"
	"testing"
	"time"

	"gpufaas/internal/core"
	"gpufaas/internal/sim"
)

// TestSingleDispatchResult pins what a dispatch without extras reports,
// field for field, against the single-dispatch arithmetic written out
// here: Execute is ExecuteBatch with no extras, and its results must stay
// what they were when the two were separate code (every golden and
// report digest reads them).
func TestSingleDispatchResult(t *testing.T) {
	const gpuID = "node0/gpu0"
	for _, tc := range []struct {
		name     string
		warm     bool    // the model is resident before the dispatch under test
		slowdown float64 // straggler factor during it
		quota    *Quota  // the tenant's quota
		wantErr  error
	}{
		{name: "miss"},
		{name: "hit", warm: true},
		{name: "miss straggler-scaled", slowdown: 3},
		{name: "hit straggler-scaled", warm: true, slowdown: 2.5},
		{name: "quota-rejected", quota: &Quota{MaxGPUTime: time.Second}, wantErr: ErrQuota},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &recordSink{}
			f := newFixture(t, sink, 1)
			prof, ok := f.mgr.profiles.Get("rtx2080", "resnet18")
			if !ok {
				t.Fatal("no profile")
			}
			if tc.warm {
				if _, err := f.mgr.Execute(req(1, "resnet18"), gpuID, 0); err != nil {
					t.Fatal(err)
				}
				f.engine.Run(0)
				f.done, sink.comps = nil, nil
			}
			if tc.quota != nil {
				f.mgr.SetQuota("acme", *tc.quota)
			}
			if tc.slowdown > 0 {
				f.mgr.SetSlowdown(gpuID, tc.slowdown)
			}
			now := f.engine.Now()
			r := &core.Request{ID: 7, Function: "fn7", Model: "resnet18", BatchSize: 8, Tenant: "acme", Arrival: now - sim.Time(time.Second)}
			hit, _, err := f.mgr.ExecuteBatch(r, nil, gpuID, now)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if hit != tc.warm {
				t.Errorf("hit = %v, want %v", hit, tc.warm)
			}
			f.engine.Run(0)
			if tc.wantErr != nil {
				if dev, _ := f.mgr.Device(gpuID); dev.Busy() || len(f.done) != 0 || f.mgr.TenantGPUTime("acme") != 0 {
					t.Errorf("rejected dispatch left state: busy=%v completions=%d gpuTime=%v", dev.Busy(), len(f.done), f.mgr.TenantGPUTime("acme"))
				}
				return
			}
			scale := func(d time.Duration) time.Duration {
				if tc.slowdown > 1 {
					return time.Duration(float64(d) * tc.slowdown)
				}
				return d
			}
			want := Result{
				ReqID: 7, Function: "fn7", Model: "resnet18", GPU: gpuID, Tenant: "acme",
				Hit: tc.warm, Arrival: r.Arrival, DispatchedAt: now,
				InferTime: scale(prof.InferTime(8)),
			}
			if !tc.warm {
				want.LoadTime = scale(prof.LoadTime)
			}
			want.FinishedAt = now + want.LoadTime + want.InferTime
			if len(f.done) != 1 || f.done[0] != want {
				t.Errorf("result\n got %+v\nwant %+v", f.done, want)
			}
			if len(sink.comps) != 1 || sink.comps[0] != want {
				t.Errorf("sink completion\n got %+v\nwant %+v", sink.comps, want)
			}
			if got := f.mgr.TenantGPUTime("acme"); got != want.LoadTime+want.InferTime {
				t.Errorf("tenant GPU time = %v, want %v", got, want.LoadTime+want.InferTime)
			}
		})
	}
}

// TestCompletionMayRelaunch: the cluster's OnComplete runs the scheduler,
// which can start the next launch on the GPU that just went idle while the
// finishing batch still has members to deliver. Refilling the launch slot
// must not reach the results not yet delivered.
func TestCompletionMayRelaunch(t *testing.T) {
	const gpuID = "node0/gpu0"
	f := newFixture(t, nil, 1)
	if _, err := f.mgr.Execute(req(1, "resnet18"), gpuID, 0); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(0)
	f.done = nil

	now := f.engine.Now()
	batch := make([]*core.Request, 4)
	for i := range batch {
		batch[i] = &core.Request{ID: int64(10 + i), Function: "fn", Model: "resnet18", BatchSize: 4 + i, Arrival: now - sim.Time(i+1)*sim.Time(time.Second)}
	}
	next := []*core.Request{
		{ID: 20, Function: "next", Model: "resnet18", BatchSize: 1, Arrival: now},
		{ID: 21, Function: "next", Model: "resnet18", BatchSize: 1, Arrival: now},
	}
	f.onDone = func(res Result) {
		if res.ReqID != batch[0].ID {
			return
		}
		// The first member's completion refills the slot with a launch of
		// a different shape.
		if _, _, err := f.mgr.ExecuteBatch(next[0], next[1:], gpuID, res.FinishedAt); err != nil {
			t.Errorf("relaunch from OnComplete: %v", err)
		}
	}
	if _, dropped, err := f.mgr.ExecuteBatch(batch[0], batch[1:], gpuID, now); err != nil || len(dropped) != 0 {
		t.Fatalf("batch launch: dropped=%v err=%v", dropped, err)
	}
	f.engine.Step()
	if len(f.done) != len(batch) {
		t.Fatalf("%d completions after the batch's event, want %d", len(f.done), len(batch))
	}
	var shares time.Duration
	for i, res := range f.done {
		if res.ReqID != batch[i].ID || res.Arrival != batch[i].Arrival || res.Function != "fn" {
			t.Errorf("member %d delivered as req %d (%s) arrival %v, want req %d arrival %v",
				i, res.ReqID, res.Function, res.Arrival, batch[i].ID, batch[i].Arrival)
		}
		if res.BatchMembers != len(batch) || res.InferShare <= 0 {
			t.Errorf("member %d: BatchMembers=%d InferShare=%v", i, res.BatchMembers, res.InferShare)
		}
		if i > 1 && res.InferShare <= f.done[i-1].InferShare {
			t.Errorf("member %d (more inputs) share %v <= member %d share %v", i, res.InferShare, i-1, f.done[i-1].InferShare)
		}
		shares += res.InferShare
	}
	if shares != f.done[0].InferTime {
		t.Errorf("shares sum to %v, InferTime %v", shares, f.done[0].InferTime)
	}
	// The relaunch is live and completes as itself.
	f.engine.Run(0)
	if len(f.done) != len(batch)+len(next) {
		t.Fatalf("%d completions in all, want %d", len(f.done), len(batch)+len(next))
	}
	for i, res := range f.done[len(batch):] {
		if res.ReqID != next[i].ID || res.Function != "next" || res.BatchMembers != len(next) {
			t.Errorf("relaunch member %d = %+v", i, res)
		}
	}
}
