package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"gpufaas/internal/cache"
	"gpufaas/internal/core"
	"gpufaas/internal/models"
	"gpufaas/internal/stats"
)

func TestWorkloadConstruction(t *testing.T) {
	built, err := Workload(DefaultWorkload(35), models.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Requests) != 6*325 {
		t.Fatalf("requests = %d", len(built.Requests))
	}
	if built.Zoo.Len() != 35 {
		t.Fatalf("instances = %d", built.Zoo.Len())
	}
	if built.TopModel == "" || !strings.Contains(built.TopModel, "@f00") {
		t.Errorf("top model = %q", built.TopModel)
	}
	// Every request's model exists in the derived zoo.
	counts := map[string]int{}
	for _, r := range built.Requests {
		if _, ok := built.Zoo.Get(r.Model); !ok {
			t.Fatalf("request model %q missing from zoo", r.Model)
		}
		counts[r.Model]++
	}
	// The top-ranked instance is the busiest.
	for m, c := range counts {
		if m != built.TopModel && c > counts[built.TopModel] {
			t.Errorf("%s (%d) busier than top model %s (%d)", m, c, built.TopModel, counts[built.TopModel])
		}
	}
	// Instance naming: same architecture may appear twice with distinct
	// instance names (35 > 22 architectures).
	if _, ok := built.Zoo.Get("squeezenet1.1@f00"); !ok {
		t.Error("expected squeezenet1.1@f00 (smallest architecture on hottest rank)")
	}
	if _, ok := built.Zoo.Get("squeezenet1.1@f22"); !ok {
		t.Error("expected wrapped architecture instance @f22")
	}
}

func anyTail(counts map[string]int, top string) string {
	for m := range counts {
		if m != top {
			return m
		}
	}
	return top
}

func TestWorkloadDeterministic(t *testing.T) {
	a, err := Workload(DefaultWorkload(25), models.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Workload(DefaultWorkload(25), models.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("same params produced different workloads")
		}
	}
}

// TestWorkloadWorkingSetBounds: a working set is at least one function
// (zero used to build an empty workload without complaint, a negative one
// panicked inside TopN) and at most the whole trace.
func TestWorkloadWorkingSetBounds(t *testing.T) {
	functions := synthDefaults(1).Functions
	for _, tc := range []struct {
		workingSet int
		instances  int // 0: an error
	}{
		{-1, 0},
		{0, 0},
		{1, 1},
		{functions + 500, functions},
	} {
		p := DefaultWorkload(tc.workingSet)
		built, err := Workload(p, models.Default())
		stream, serr := StreamWorkload(p, models.Default(), 0)
		if tc.instances == 0 {
			if err == nil || serr == nil {
				t.Errorf("working set %d: Workload err %v, StreamWorkload err %v; want both to fail", tc.workingSet, err, serr)
			}
			continue
		}
		if err != nil || serr != nil {
			t.Fatalf("working set %d: Workload err %v, StreamWorkload err %v", tc.workingSet, err, serr)
		}
		want := p.Minutes * p.RequestsPerMinute
		if built.Zoo.Len() != tc.instances || len(built.Requests) != want {
			t.Errorf("working set %d: Workload built %d instances, %d requests; want %d, %d",
				tc.workingSet, built.Zoo.Len(), len(built.Requests), tc.instances, want)
		}
		if stream.Zoo.Len() != tc.instances || stream.Stream.Total() != int64(want) {
			t.Errorf("working set %d: StreamWorkload built %d instances, %d requests; want %d, %d",
				tc.workingSet, stream.Zoo.Len(), stream.Stream.Total(), tc.instances, want)
		}
	}
}

// TestWorkloadBuildAllocs pins what building one figure cell's workload
// costs: 85 allocations now that the working set is selected from
// per-function totals, requests are expanded straight into the result and
// instance names skip fmt — 152 when the 2,000-function trace was stored,
// copied and named, and 8,009 before the trace lived in slabs. What is
// left is per working-set function (instance names, the mapping, the zoo)
// plus the synthesizer's weights and totals and the result slice. The
// bound is the measurement plus 20 %.
func TestWorkloadBuildAllocs(t *testing.T) {
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Workload(DefaultWorkload(35), models.Default()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Workload(DefaultWorkload(35)) allocates %.0f times", avg)
	if avg > 102 {
		t.Errorf("Workload(DefaultWorkload(35)) allocates %.0f times, want <= 102", avg)
	}
}

// TestWorkloadBuildBytes pins the bytes one figure cell's workload build
// allocates, averaged over builds: 231 kB, of which the 1,950-request
// result slice is 144 KiB and the synthesizer's per-function weights,
// thresholds and totals 48 KiB — 734 kB when the whole 2,000-function
// trace was stored twice and named. The bound is the measurement plus
// 20 %.
func TestWorkloadBuildBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const builds = 10
	build := func() {
		if _, err := Workload(DefaultWorkload(35), models.Default()); err != nil {
			t.Fatal(err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("Workload(DefaultWorkload(35)) allocates %d B", per)
	if per > 276_700 {
		t.Errorf("Workload(DefaultWorkload(35)) allocates %d B, want <= 276700", per)
	}
}

// TestPaperClaims runs the full Fig. 4–6 matrix once and asserts the
// paper's qualitative results (§V-B/C/D): who wins, by roughly what
// factor, and where the crossovers fall. Exact values are recorded in
// EXPERIMENTS.md; these assertions only pin the shape.
func TestPaperClaims(t *testing.T) {
	rows, err := Fig4Matrix()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Policy+"/"+itoa(r.WorkingSet)] = r
	}
	get := func(pol string, ws int) Row {
		r, ok := byKey[pol+"/"+itoa(ws)]
		if !ok {
			t.Fatalf("missing row %s/%d", pol, ws)
		}
		return r
	}

	for _, ws := range PaperWorkingSets {
		lb, lalb, o3 := get("LB", ws), get("LALB", ws), get("LALBO3", ws)
		// Fig 4a: locality reduces average latency dramatically.
		if red := stats.Reduction(lb.AvgLatencySec, lalb.AvgLatencySec); red < 0.5 {
			t.Errorf("ws=%d LALB latency reduction = %.2f, want > 0.5", ws, red)
		}
		if red := stats.Reduction(lb.AvgLatencySec, o3.AvgLatencySec); red < 0.9 {
			t.Errorf("ws=%d LALBO3 latency reduction = %.2f, want > 0.9", ws, red)
		}
		// Fig 4b: locality reduces the miss ratio.
		if lalb.MissRatio >= lb.MissRatio || o3.MissRatio >= lb.MissRatio {
			t.Errorf("ws=%d miss ratios: LB=%.3f LALB=%.3f O3=%.3f", ws,
				lb.MissRatio, lalb.MissRatio, o3.MissRatio)
		}
		// Fig 4c: SM utilization anti-correlates with miss ratio; LALBO3
		// is the highest (§V-C).
		if o3.SMUtilization < lalb.SMUtilization-0.02 || o3.SMUtilization <= lb.SMUtilization {
			t.Errorf("ws=%d SM: LB=%.3f LALB=%.3f O3=%.3f", ws,
				lb.SMUtilization, lalb.SMUtilization, o3.SMUtilization)
		}
		// Fig 6: locality reduces duplicates of the hottest model.
		if lalb.TopModelDuplicates >= lb.TopModelDuplicates {
			t.Errorf("ws=%d duplicates: LB=%.2f LALB=%.2f", ws,
				lb.TopModelDuplicates, lalb.TopModelDuplicates)
		}
	}

	// Headline (abstract): ~48x speedup of locality-aware scheduling over
	// the baseline at the favorable working set; accept anything >= 10x.
	if sp := stats.Speedup(get("LB", 15).AvgLatencySec, get("LALBO3", 15).AvgLatencySec); sp < 10 {
		t.Errorf("headline speedup = %.1fx, want >= 10x", sp)
	}

	// §V-B: LALB degrades as the working set grows (the WS35 miss ratio
	// reduction is much weaker than at WS15), and O3 recovers most of it.
	red15 := stats.Reduction(get("LB", 15).MissRatio, get("LALB", 15).MissRatio)
	red35 := stats.Reduction(get("LB", 35).MissRatio, get("LALB", 35).MissRatio)
	if red35 >= red15 {
		t.Errorf("LALB miss reduction should degrade with WS: ws15=%.2f ws35=%.2f", red15, red35)
	}
	if get("LALBO3", 35).AvgLatencySec >= get("LALB", 35).AvgLatencySec {
		t.Error("O3 should beat plain LALB at ws=35")
	}

	// Fig 5: LB's false-miss ratio is very high (~96% in the paper).
	if fm := get("LB", 15).FalseMissRatio; fm < 0.85 {
		t.Errorf("LB false-miss ratio = %.3f, want > 0.85", fm)
	}
	if get("LALB", 15).FalseMissRatio >= get("LB", 15).FalseMissRatio {
		t.Error("LALB should reduce the false-miss ratio at ws=15")
	}
}

func itoa(n int) string {
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestFig7Sensitivity(t *testing.T) {
	pts, err := Fig7Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig7Limits) {
		t.Fatalf("points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	// §V-E: larger limits reduce latency, miss ratio and latency variance.
	if last.AvgLatencySec >= first.AvgLatencySec {
		t.Errorf("limit 45 latency %.2f !< limit 0 latency %.2f", last.AvgLatencySec, first.AvgLatencySec)
	}
	if last.MissRatio >= first.MissRatio {
		t.Errorf("limit 45 miss %.3f !< limit 0 miss %.3f", last.MissRatio, first.MissRatio)
	}
	if last.LatencyVarianceSec2 >= first.LatencyVarianceSec2 {
		t.Errorf("limit 45 variance %.2f !< limit 0 variance %.2f",
			last.LatencyVarianceSec2, first.LatencyVarianceSec2)
	}
}

func TestTableIRegeneration(t *testing.T) {
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Fatalf("rows = %d", len(rows))
	}
	zoo := models.Default()
	for _, r := range rows {
		m := zoo.MustGet(r.Model)
		if r.OccupancyMB != m.OccupancyMB {
			t.Errorf("%s occupancy %d != %d", r.Model, r.OccupancyMB, m.OccupancyMB)
		}
		if d := r.LoadTime - m.LoadTime; d > time.Millisecond || d < -time.Millisecond {
			t.Errorf("%s load %v != %v", r.Model, r.LoadTime, m.LoadTime)
		}
		if d := r.InferTime - m.InferTime; d > 5*time.Millisecond || d < -5*time.Millisecond {
			t.Errorf("%s infer %v != %v", r.Model, r.InferTime, m.InferTime)
		}
	}
}

func TestCachePolicyComparison(t *testing.T) {
	out, err := CachePolicyComparison(25)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU} {
		row, ok := out[pol]
		if !ok {
			t.Fatalf("missing %s", pol)
		}
		if row.Requests != 6*325 {
			t.Errorf("%s completed %d", pol, row.Requests)
		}
	}
}

func TestGPUScaling(t *testing.T) {
	rows, err := GPUScaling([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More GPUs must not increase average latency on the same workload.
	if rows[2].AvgLatencySec > rows[0].AvgLatencySec*1.5 {
		t.Errorf("scaling raised latency: %v", rows)
	}
}

func TestRunParamsOverrides(t *testing.T) {
	row, err := Run(RunParams{
		Policy: core.LALBO3, WorkingSet: 15,
		Nodes: 1, GPUsPerNode: 2, GPUMemory: 8 << 30,
		Workload: WorkloadParams{Minutes: 2, RequestsPerMinute: 50, WorkingSet: 15, Batch: 32, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Requests != 100 {
		t.Errorf("requests = %d", row.Requests)
	}
	if row.Policy != "LALBO3" || row.WorkingSet != 15 {
		t.Errorf("row = %+v", row)
	}
}

func TestWriters(t *testing.T) {
	var sb strings.Builder
	WriteFig4Table(&sb, []Row{{Policy: "LB", WorkingSet: 15}})
	if !strings.Contains(sb.String(), "LB") {
		t.Error("fig4 table missing row")
	}
	sb.Reset()
	WriteFig7Table(&sb, []Fig7Point{{Limit: 5}})
	if !strings.Contains(sb.String(), "5") {
		t.Error("fig7 table missing row")
	}
	sb.Reset()
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	WriteTableI(&sb, rows)
	if !strings.Contains(sb.String(), "vgg19") {
		t.Error("table I missing vgg19")
	}
}
