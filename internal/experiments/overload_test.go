package experiments

import (
	"strings"
	"testing"
	"time"
)

// overloadPhases picks the sweep's three phases out of its rows.
func overloadPhases(t *testing.T, rows []OverloadRow) (calib, on, off OverloadRow) {
	t.Helper()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (closed_loop, shed_on, shed_off)", len(rows))
	}
	byName := map[string]OverloadRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	calib, okC := byName["closed_loop"]
	on, okOn := byName["overload_shed_on"]
	off, okOff := byName["overload_shed_off"]
	if !okC || !okOn || !okOff {
		t.Fatalf("missing phases: %+v", rows)
	}
	return calib, on, off
}

// checkOverloadStructure asserts what holds of a sweep however fast or
// slow the host ran it: the accounting identities, no hard errors, and the
// arena's reuse discipline. Nothing here compares two wall-clock
// measurements.
func checkOverloadStructure(t *testing.T, rows []OverloadRow) {
	t.Helper()
	calib, on, off := overloadPhases(t, rows)
	if calib.GoodputRPS <= 0 || calib.Served == 0 {
		t.Fatalf("calibration measured no capacity: %+v", calib)
	}

	// Served + shed + errors accounts for every arrival, and the sheds
	// decompose into their reasons.
	if on.Shed != on.ShedQueueFull+on.ShedDeadline+on.ShedTenant {
		t.Errorf("shed %d != reason decomposition %d+%d+%d",
			on.Shed, on.ShedQueueFull, on.ShedDeadline, on.ShedTenant)
	}
	for _, r := range []OverloadRow{on, off} {
		if got := r.Served + r.Shed + r.Errors; got != r.Sent {
			t.Errorf("%s: outcomes %d != sent %d", r.Name, got, r.Sent)
		}
	}
	if off.Shed != 0 {
		t.Errorf("shedding-off phase shed %d requests", off.Shed)
	}
	if on.Errors > 0 || off.Errors > 0 {
		t.Errorf("hard errors under overload: on=%d off=%d", on.Errors, off.Errors)
	}

	// Allocation discipline: the arena population is bounded by peak
	// in-flight, never by request count.
	for _, r := range []OverloadRow{on, off} {
		if r.ArenaAllocated == 0 || r.ArenaReused == 0 {
			t.Errorf("%s: arena never engaged: %+v", r.Name, r)
		}
		if r.ArenaAllocated > r.ArenaPeakLive {
			t.Errorf("%s: arena allocated %d > peak in-flight %d — reuse broken",
				r.Name, r.ArenaAllocated, r.ArenaPeakLive)
		}
		if r.AllocsPerOp <= 0 {
			t.Errorf("%s: allocs/op = %g, telemetry missing", r.Name, r.AllocsPerOp)
		}
	}
	// With admission on, in-flight — and therefore the arena population
	// — is capped by the concurrency limit.
	if on.ArenaPeakLive > overloadConcurrent {
		t.Errorf("shedding-on arena peak %d exceeds the admission limit %d",
			on.ArenaPeakLive, overloadConcurrent)
	}

	var sb strings.Builder
	WriteOverloadTable(&sb, rows)
	out := sb.String()
	for _, want := range []string{"closed_loop", "overload_shed_on", "overload_shed_off", "p99(ms)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestOverloadSweep runs the sweep end to end on the wall clock, with
// 0.3 s phases and a tenth of the sweep's profile time scale (so each
// gateway's cold model load is short too), and checks its structure only.
// Whether overload built, whether anything was shed and which phase's tail
// came out longer depend on how fast the host ran the generator against
// the gateway; those outcomes are asserted in virtual time on the short
// sweep, where they are reproducible (overload_vt_test.go, `make vt-test`).
func TestOverloadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	if raceEnabled {
		// Real CPU forward passes slow tenfold under the race detector;
		// CI covers this path un-instrumented via the overload smoke
		// step.
		t.Skip("wall-clock benchmark is too slow under the race detector")
	}
	rows, err := overloadSweep(300*time.Millisecond, 300*time.Millisecond, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	checkOverloadStructure(t, rows)
}
