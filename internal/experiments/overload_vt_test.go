//go:build goexperiment.synctest

package experiments

import (
	"reflect"
	"testing"
	"testing/synctest"
)

// sweepInVirtualTime runs the short overload sweep inside a synctest
// bubble: the gateway's goroutines, the generator's sleeps and every
// time.Now read a synthetic clock that advances only when all of them are
// blocked, so the CPU a forward pass takes on this host costs no time and
// the sweep's outcomes depend on its configuration alone.
func sweepInVirtualTime(t *testing.T) []OverloadRow {
	t.Helper()
	var rows []OverloadRow
	var err error
	synctest.Run(func() { rows, err = OverloadSweep(true) })
	if err != nil {
		t.Fatal(err)
	}
	// The allocation telemetry reads the host's heap, not the bubble's
	// clock; it is checked for presence, not compared.
	checkOverloadStructure(t, rows)
	for i := range rows {
		rows[i].AllocsPerOp, rows[i].HeapDeltaMB = 0, 0
	}
	return rows
}

// TestOverloadSweepVirtualTime pins the benchmark's two claims: with
// shedding on, overload turns into 429s and tail latency stays far below
// the shedding-off divergence; the arena keeps the request population
// bounded by in-flight, not by request count. These are the outcome
// assertions TestOverloadSweep made on the wall clock, where a contended
// host could void them; here two sweeps agree row for row.
func TestOverloadSweepVirtualTime(t *testing.T) {
	rows := sweepInVirtualTime(t)
	calib, on, off := overloadPhases(t, rows)

	if on.OfferedRPS < 1.5*calib.GoodputRPS {
		t.Errorf("offered %.1f rps is not ~2x capacity %.1f", on.OfferedRPS, calib.GoodputRPS)
	}
	// Shedding on: overload is visibly rejected.
	if on.Shed == 0 {
		t.Error("shedding-on phase shed nothing at 2x capacity")
	}
	// The headline: bounded tail with shedding vs divergence without.
	if on.P99Ms <= 0 || off.P99Ms <= 0 {
		t.Fatalf("empty latency samples: on=%+v off=%+v", on, off)
	}
	if on.P99Ms >= off.P99Ms {
		t.Errorf("shedding-on p99 %.1fms >= shedding-off p99 %.1fms — no divergence",
			on.P99Ms, off.P99Ms)
	}
	// Without admission the backlog is the cap on the arena population,
	// which under 2x overload is far larger than the concurrency limit.
	if off.ArenaPeakLive <= on.ArenaPeakLive {
		t.Errorf("shedding-off arena peak %d not above shedding-on peak %d — no backlog built",
			off.ArenaPeakLive, on.ArenaPeakLive)
	}

	if again := sweepInVirtualTime(t); !reflect.DeepEqual(rows, again) {
		t.Errorf("two virtual-time sweeps differ:\n first: %+v\nsecond: %+v", rows, again)
	}
	t.Logf("shed on: sent %d served %d shed %d p99 %.2f ms arena peak %d; shed off: p99 %.2f ms arena peak %d",
		on.Sent, on.Served, on.Shed, on.P99Ms, on.ArenaPeakLive, off.P99Ms, off.ArenaPeakLive)
}
