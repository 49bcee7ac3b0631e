package cluster

// Failure-path tests: the failure × drain interplay table, retry-budget
// exhaustion, and request conservation on a scripted chaos run. Timings
// lean on the default profile store (resnet18 ≈ 2.5s load + 1.3s infer,
// vgg19 ≈ 4.1s load + 1.3s infer on the default GPU type), which the
// sim makes exactly reproducible.

import (
	"testing"
	"time"

	"gpufaas/internal/chaos"
	"gpufaas/internal/core"
	"gpufaas/internal/sim"
	"gpufaas/internal/trace"
)

// chaosTestConfig is a 1-node / 2-GPU fleet with the given total retry
// attempt budget (0 = retry off).
func chaosTestConfig(retry int) Config {
	cfg := testConfig(core.LALB)
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	cfg.Retry = core.RetryPolicy{MaxAttempts: retry}
	return cfg
}

// failAt schedules a FailGPU call inside the run.
func failAt(t *testing.T, c *Cluster, at time.Duration, gpuID string) {
	t.Helper()
	if _, err := c.Engine().At(sim.Time(at), "test.fail "+gpuID, func(now sim.Time) {
		if err := c.FailGPU(gpuID); err != nil {
			t.Errorf("FailGPU(%s) at %v: %v", gpuID, at, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFailureDrainInterplay is the interplay table: a GPU that fails
// while draining, a GPU that fails mid-batch, and a request whose retry
// is already queued when its replacement GPU fails too. With retry
// enabled every interrupted request must still complete; accounting and
// membership views must agree afterwards.
func TestFailureDrainInterplay(t *testing.T) {
	const victim = "node0/gpu0"
	cases := []struct {
		name  string
		retry int
		setup func(t *testing.T, c *Cluster) []int64 // returns expected completed request IDs
		reqs  func() []trace.Request
		check func(t *testing.T, rep Report)
	}{
		{
			// gpu0 is mid-drain (in-flight resnet18 + parked same-model
			// followers) when it fails: the in-flight attempt interrupts
			// and re-queues, parked work re-queues without consuming an
			// attempt, and the drain state must not wedge removal.
			name:  "fail-while-draining",
			retry: 3,
			setup: func(t *testing.T, c *Cluster) []int64 {
				if _, err := c.Engine().At(sim.Time(120*time.Millisecond), "test.drain", func(now sim.Time) {
					if err := c.DecommissionGPU(victim, true); err != nil {
						t.Errorf("drain decommission: %v", err)
					}
				}); err != nil {
					t.Fatal(err)
				}
				failAt(t, c, 1*time.Second, victim)
				ids := make([]int64, 12)
				for i := range ids {
					ids[i] = int64(i)
				}
				return ids
			},
			reqs: func() []trace.Request {
				return tinyWorkload(12, 20*time.Millisecond, "resnet18", "vgg19")
			},
			check: func(t *testing.T, rep Report) {
				if rep.Requests != 12 || rep.Failed != 0 {
					t.Fatalf("report = requests %d failed %d", rep.Requests, rep.Failed)
				}
				if rep.Failures != 1 {
					t.Errorf("Failures = %d, want 1", rep.Failures)
				}
				if rep.Interrupted == 0 {
					t.Error("failing a draining GPU with in-flight work interrupted nothing")
				}
				if rep.Retries != rep.Interrupted {
					t.Errorf("Retries = %d, Interrupted = %d: every interrupt had budget left", rep.Retries, rep.Interrupted)
				}
			},
		},
		{
			// vgg19 pins gpu0 until ~5.4s; five resnet18s land on gpu1 —
			// the first serves solo, the rest coalesce into an in-flight
			// batch at ~3.8s. Failing gpu1 at 4.5s interrupts the whole
			// batch; every member re-queues and completes on gpu0.
			name:  "fail-mid-batch",
			retry: 3,
			setup: func(t *testing.T, c *Cluster) []int64 {
				failAt(t, c, 4500*time.Millisecond, "node0/gpu1")
				return []int64{0, 1, 2, 3, 4, 5}
			},
			reqs: func() []trace.Request {
				reqs := tinyWorkload(1, 0, "vgg19")
				for i := 0; i < 5; i++ {
					r := tinyWorkload(1, 0, "resnet18")[0]
					r.ID = int64(i + 1)
					r.Arrival = 10 * time.Millisecond
					reqs = append(reqs, r)
				}
				return reqs
			},
			check: func(t *testing.T, rep Report) {
				if rep.Requests != 6 || rep.Failed != 0 {
					t.Fatalf("report = requests %d failed %d", rep.Requests, rep.Failed)
				}
				if rep.BatchedDispatches == 0 {
					t.Fatal("setup never formed a batch — the scenario proves nothing")
				}
				if rep.Interrupted < 2 {
					t.Errorf("Interrupted = %d, want the whole in-flight batch (>= 2)", rep.Interrupted)
				}
				if rep.Retries != rep.Interrupted {
					t.Errorf("Retries = %d, Interrupted = %d", rep.Retries, rep.Interrupted)
				}
			},
		},
		{
			// The retry of a failed attempt is re-queued and running on
			// gpu1 when gpu1 fails too: the second interrupt exhausts a
			// 2-attempt budget and the request drops as retry_exhausted.
			name:  "fail-with-retry-queued",
			retry: 2,
			setup: func(t *testing.T, c *Cluster) []int64 {
				failAt(t, c, 1*time.Second, victim)
				failAt(t, c, 2*time.Second, "node0/gpu1")
				return nil
			},
			reqs: func() []trace.Request {
				return tinyWorkload(1, 0, "resnet18")
			},
			check: func(t *testing.T, rep Report) {
				if rep.Requests != 0 || rep.Failed != 1 {
					t.Fatalf("report = requests %d failed %d", rep.Requests, rep.Failed)
				}
				if rep.Failures != 2 || rep.Interrupted != 2 || rep.Retries != 1 {
					t.Errorf("failures %d interrupted %d retries %d, want 2/2/1",
						rep.Failures, rep.Interrupted, rep.Retries)
				}
				if rep.FailedByReason["retry_exhausted"] != 1 {
					t.Errorf("failure split = %v, want retry_exhausted: 1", rep.FailedByReason)
				}
			},
		},
		{
			// Same first failure with retry off: the interrupted attempt
			// drops immediately, attributed to the fault itself.
			name:  "fail-retry-off",
			retry: 0,
			setup: func(t *testing.T, c *Cluster) []int64 {
				failAt(t, c, 1*time.Second, victim)
				return nil
			},
			reqs: func() []trace.Request {
				return tinyWorkload(1, 0, "resnet18")
			},
			check: func(t *testing.T, rep Report) {
				if rep.Requests != 0 || rep.Failed != 1 {
					t.Fatalf("report = requests %d failed %d", rep.Requests, rep.Failed)
				}
				if rep.Retries != 0 {
					t.Errorf("Retries = %d with retry off", rep.Retries)
				}
				if rep.FailedByReason["fault"] != 1 {
					t.Errorf("failure split = %v, want fault: 1", rep.FailedByReason)
				}
			},
		},
		{
			// A budget of one attempt is retry off, not a retry budget
			// spent: the interrupted attempt drops at once, attributed to
			// the fault, and nothing re-queues.
			name:  "fail-single-attempt",
			retry: 1,
			setup: func(t *testing.T, c *Cluster) []int64 {
				failAt(t, c, 1*time.Second, victim)
				return nil
			},
			reqs: func() []trace.Request {
				return tinyWorkload(1, 0, "resnet18")
			},
			check: func(t *testing.T, rep Report) {
				if rep.Requests != 0 || rep.Failed != 1 {
					t.Fatalf("report = requests %d failed %d", rep.Requests, rep.Failed)
				}
				if rep.Interrupted != 1 || rep.Retries != 0 {
					t.Errorf("interrupted %d retries %d, want 1/0", rep.Interrupted, rep.Retries)
				}
				if rep.FailedByReason["fault"] != 1 {
					t.Errorf("failure split = %v, want fault: 1", rep.FailedByReason)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosTestConfig(tc.retry)
			if tc.name == "fail-mid-batch" {
				cfg.MaxBatch = 8
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.KeepResults(true)
			wantDone := tc.setup(t, c)
			rep, err := c.RunWorkload(tc.reqs())
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, rep)
			// Whatever failed, the views must agree: the dead GPU is out
			// of every index and the cache serves no dead holder.
			checkMembership(t, c)
			if c.Scheduler().PendingTotal() != 0 {
				t.Error("scheduler still has pending work")
			}
			seen := map[int64]bool{}
			for _, r := range c.Results() {
				if seen[r.ReqID] {
					t.Errorf("request %d completed twice", r.ReqID)
				}
				seen[r.ReqID] = true
			}
			for _, id := range wantDone {
				if !seen[id] {
					t.Errorf("request %d never completed", id)
				}
			}
		})
	}
}

// TestFailGPUAccounting pins the per-GPU failure counters and the
// schedulable-GPU readiness signal across a failure.
func TestFailGPUAccounting(t *testing.T) {
	c, err := New(chaosTestConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SchedulableGPUs(); got != 2 {
		t.Fatalf("SchedulableGPUs = %d, want 2", got)
	}
	if err := c.FailGPU("nope"); err == nil {
		t.Error("failing an unknown GPU must error")
	}
	if err := c.FailGPU("node0/gpu1"); err != nil {
		t.Fatal(err)
	}
	if got := c.SchedulableGPUs(); got != 1 {
		t.Errorf("SchedulableGPUs = %d after failure, want 1", got)
	}
	if got := c.GPUFailures(); got["node0/gpu1"] != 1 || len(got) != 1 {
		t.Errorf("GPUFailures = %v", got)
	}
	if _, ok := c.Device("node0/gpu1"); ok {
		t.Error("device lookup still resolves the failed GPU")
	}
	checkMembership(t, c)
}

// TestChaosRunConservation runs a scripted chaos trace — two crashes
// (one with a straggler window first) and MTTR recovery — and requires
// the conservation identity: completed + failed == offered, with retry
// on bleeding nothing and retry off bleeding exactly the interrupted
// attempts.
func TestChaosRunConservation(t *testing.T) {
	const offered = 40
	run := func(retry int) Report {
		cfg := chaosTestConfig(retry)
		cfg.MaxBatch = 4
		cfg.Chaos = &chaos.Config{
			Seed: 7,
			MTTR: 2 * time.Second,
			Script: []chaos.Fault{
				{At: 1500 * time.Millisecond, Ord: 0, Kind: chaos.Crash},
				{At: 2 * time.Second, Ord: 1, Kind: chaos.Straggle, Factor: 2, Window: time.Second},
				{At: 4 * time.Second, Ord: 1, Kind: chaos.Crash},
			},
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunWorkload(tinyWorkload(offered, 100*time.Millisecond, "resnet18", "vgg19", "alexnet"))
		if err != nil {
			t.Fatal(err)
		}
		checkMembership(t, c)
		return rep
	}
	t.Run("retry-on", func(t *testing.T) {
		rep := run(3)
		if rep.Requests+rep.Failed != offered {
			t.Fatalf("conservation violated: %d completed + %d failed != %d offered",
				rep.Requests, rep.Failed, offered)
		}
		if rep.Failed != 0 {
			t.Errorf("retry-on bled %d requests (%v)", rep.Failed, rep.FailedByReason)
		}
		if rep.Failures != 2 {
			t.Errorf("Failures = %d, want both scripted crashes", rep.Failures)
		}
		if rep.Interrupted == 0 {
			t.Error("scripted crashes under load interrupted nothing")
		}
	})
	t.Run("retry-off", func(t *testing.T) {
		rep := run(0)
		if rep.Requests+rep.Failed != offered {
			t.Fatalf("conservation violated: %d completed + %d failed != %d offered",
				rep.Requests, rep.Failed, offered)
		}
		if rep.Failed != rep.Interrupted {
			t.Errorf("retry-off must drop exactly the interrupted attempts: failed %d, interrupted %d",
				rep.Failed, rep.Interrupted)
		}
		if rep.FailedByReason["fault"] != rep.Failed {
			t.Errorf("failure split = %v, want all %d attributed to faults", rep.FailedByReason, rep.Failed)
		}
	})
}

// TestChaosRunDeterministic: the same scripted chaos run twice produces
// identical reports — the fault path introduces no map-order or timer
// nondeterminism.
func TestChaosRunDeterministic(t *testing.T) {
	run := func() Report {
		cfg := chaosTestConfig(2)
		cfg.MaxBatch = 4
		cfg.Chaos = &chaos.Config{
			Seed:    11,
			MTBF:    20 * time.Second,
			MTTR:    3 * time.Second,
			Horizon: 15 * time.Second,
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunWorkload(tinyWorkload(60, 80*time.Millisecond, "resnet18", "vgg19", "alexnet", "squeezenet1.1"))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Failures == 0 {
		t.Fatal("sampled MTBF produced no crashes — tighten MTBF or Horizon")
	}
	if a.Requests != b.Requests || a.Failed != b.Failed || a.Makespan != b.Makespan ||
		a.Failures != b.Failures || a.Interrupted != b.Interrupted || a.Retries != b.Retries {
		t.Fatalf("nondeterministic chaos runs:\n%+v\n%+v", a, b)
	}
}
