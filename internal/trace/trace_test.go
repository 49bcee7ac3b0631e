package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smallCfg is a 500-function, 6-minute trace with the paper's shape.
var smallCfg = SynthConfig{
	Functions:            500,
	Minutes:              6,
	InvocationsPerMinute: 5000,
	TopShare:             0.56,
	TopCount:             15,
	Seed:                 7,
}

func synthSmall(t *testing.T) *Trace {
	t.Helper()
	tr, err := Synthesize(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSynthesizeShape(t *testing.T) {
	tr := synthSmall(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	share := tr.TopShare(15)
	if math.Abs(share-0.56) > 0.05 {
		t.Errorf("top-15 share = %.3f, want ~0.56", share)
	}
	// Tail functions must each be small relative to the total.
	totals := tr.FunctionTotals()
	grand := tr.TotalInvocations()
	// identify the 15 largest
	hot := map[int]bool{}
	type kv struct {
		i int
		v int64
	}
	var rs []kv
	for i, v := range totals {
		rs = append(rs, kv{i, v})
	}
	for k := 0; k < 15; k++ {
		best := k
		for j := k + 1; j < len(rs); j++ {
			if rs[j].v > rs[best].v {
				best = j
			}
		}
		rs[k], rs[best] = rs[best], rs[k]
		hot[rs[k].i] = true
	}
	for i, v := range totals {
		if hot[i] {
			continue
		}
		if frac := float64(v) / float64(grand); frac > 0.01 {
			t.Errorf("tail function %d has share %.4f, want < 0.01", i, frac)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := synthSmall(t)
	b := synthSmall(t)
	if a.TotalInvocations() != b.TotalInvocations() {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Counts {
		for m := range a.Counts[i] {
			if a.Counts[i][m] != b.Counts[i][m] {
				t.Fatal("same seed produced different counts")
			}
		}
	}
}

func TestSynthesizeConfigErrors(t *testing.T) {
	bad := []SynthConfig{
		{Functions: 0, Minutes: 1, InvocationsPerMinute: 1, TopCount: 1, TopShare: 0.5},
		{Functions: 10, Minutes: 0, InvocationsPerMinute: 1, TopCount: 1, TopShare: 0.5},
		{Functions: 10, Minutes: 1, InvocationsPerMinute: 0, TopCount: 1, TopShare: 0.5},
		{Functions: 10, Minutes: 1, InvocationsPerMinute: 1, TopCount: 0, TopShare: 0.5},
		{Functions: 10, Minutes: 1, InvocationsPerMinute: 1, TopCount: 20, TopShare: 0.5},
		{Functions: 10, Minutes: 1, InvocationsPerMinute: 1, TopCount: 5, TopShare: 0},
		{Functions: 10, Minutes: 1, InvocationsPerMinute: 1, TopCount: 5, TopShare: 1},
	}
	for i, cfg := range bad {
		_, err := Synthesize(cfg)
		if err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
			continue
		}
		if _, wsErr := WorkingSet(cfg, 1, 1); wsErr == nil || wsErr.Error() != err.Error() {
			t.Errorf("config %d: WorkingSet error %v, want Synthesize's %v", i, wsErr, err)
		}
	}
}

func TestSynthesizeNoTail(t *testing.T) {
	tr, err := Synthesize(SynthConfig{Functions: 15, Minutes: 2, InvocationsPerMinute: 1000, TopCount: 15, TopShare: 0.56, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalInvocations() == 0 {
		t.Fatal("no invocations generated")
	}
}

// rowOf is the synthesizer row a "func-%05d" name was made for.
func rowOf(t *testing.T, name string) int {
	t.Helper()
	i, err := strconv.Atoi(strings.TrimPrefix(name, "func-"))
	if err != nil {
		t.Fatalf("%q is not a synthesizer name", name)
	}
	return i
}

// minuteTotals sums each row of tr over its first m minutes.
func minuteTotals(tr *Trace, m int) []int64 {
	out := make([]int64, len(tr.Counts))
	for i, row := range tr.Counts {
		for _, c := range row[:m] {
			out[i] += int64(c)
		}
	}
	return out
}

func TestTopN(t *testing.T) {
	totals := synthSmall(t).FunctionTotals()
	top, err := WorkingSet(smallCfg, 6, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 15 {
		t.Fatalf("WorkingSet kept %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if totals[rowOf(t, top[i])] > totals[rowOf(t, top[i-1])] {
			t.Fatal("WorkingSet not sorted by popularity")
		}
	}
	// Requesting more than available returns everything.
	if got, _ := WorkingSet(smallCfg, 6, 10_000); len(got) != 500 {
		t.Errorf("overlarge WorkingSet kept %d", len(got))
	}
}

// TestFirstMinutes pins that the working set ranks only the minutes it is
// asked for, and that a longer window is clamped to the trace.
func TestFirstMinutes(t *testing.T) {
	totals := minuteTotals(synthSmall(t), 2)
	all, err := WorkingSet(smallCfg, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(all); i++ {
		if totals[rowOf(t, all[i])] > totals[rowOf(t, all[i-1])] {
			t.Fatalf("rank %d: WorkingSet over 2 minutes not sorted by the 2-minute totals", i)
		}
	}
	clamped, _ := WorkingSet(smallCfg, 99, 35)
	whole, _ := WorkingSet(smallCfg, 6, 35)
	if !reflect.DeepEqual(clamped, whole) {
		t.Errorf("WorkingSet over 99 minutes = %v, want the 6-minute %v", clamped, whole)
	}
}

func TestBuildRequests(t *testing.T) {
	tr := &Trace{
		Functions: []string{"hot", "cold"},
		Counts:    [][]int{{3, 2}, {1, 0}},
		Minutes:   2,
	}
	mm := ModelMapping{"hot": "resnet18", "cold": "vgg19"}
	reqs, err := tr.BuildRequests(mm, 32, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 6 {
		t.Fatalf("got %d requests", len(reqs))
	}
	for i, r := range reqs {
		if r.ID != int64(i) {
			t.Errorf("IDs not sequential: %d at %d", r.ID, i)
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Error("arrivals not sorted")
		}
		if r.BatchSize != 32 {
			t.Error("batch size lost")
		}
		if r.Model != mm[r.Function] {
			t.Error("model mapping broken")
		}
	}
	// Minute boundaries respected: first 4 in minute 0, last 2 in minute 1.
	if reqs[3].Arrival >= time.Minute || reqs[4].Arrival < time.Minute {
		t.Errorf("minute bucketing wrong: %v %v", reqs[3].Arrival, reqs[4].Arrival)
	}
}

func TestBuildRequestsErrors(t *testing.T) {
	tr := &Trace{Functions: []string{"f"}, Counts: [][]int{{1}}, Minutes: 1}
	if _, err := tr.BuildRequests(ModelMapping{}, 32, rand.New(rand.NewSource(1))); err == nil {
		t.Error("want error for missing mapping")
	}
	if _, err := tr.BuildRequests(ModelMapping{"f": "m"}, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("want error for zero batch")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := refTopN(synthSmall(t), 20)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Functions) != 20 || back.Minutes != 6 {
		t.Fatalf("round trip lost shape: %d fns, %d minutes", len(back.Functions), back.Minutes)
	}
	for i := range tr.Counts {
		if back.Functions[i] != tr.Functions[i] {
			t.Fatal("function names lost")
		}
		for m := range tr.Counts[i] {
			if back.Counts[i][m] != tr.Counts[i][m] {
				t.Fatal("counts lost")
			}
		}
	}
}

func TestParseCSVWithExtraColumns(t *testing.T) {
	csv := "HashOwner,HashApp,HashFunction,Trigger,1,2\no1,a1,fX,http,5,7\no2,a2,fY,queue,0,1\n"
	tr, err := ParseCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Minutes != 2 || len(tr.Functions) != 2 {
		t.Fatalf("shape = %d fns %d minutes", len(tr.Functions), tr.Minutes)
	}
	if tr.Functions[0] != "fX" || tr.Counts[0][1] != 7 {
		t.Errorf("parse wrong: %+v", tr)
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"NoFunctionCol,foo\nx,y\n",
		"HashFunction\nf1\n",
		"HashFunction,1\nf1,notanumber\n",
		"HashFunction,1\nf1,-3\n",
		"HashFunction,1,2\nf1,5\n",
	}
	for i, c := range cases {
		if _, err := ParseCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail: %q", i, c)
		}
	}
}

// paperWorkload runs the §V-A1 construction as experiments does — working
// set, flat redistribution, expansion — over smallCfg, with functions
// dealt round-robin onto models.
func paperWorkload(t *testing.T, minutes, workingSet, rpm int, models []string, seed int64) []Request {
	t.Helper()
	fns, err := WorkingSet(smallCfg, minutes, workingSet)
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := (Shape{}).Budgets(minutes, rpm)
	if err != nil {
		t.Fatal(err)
	}
	w := Redistribute(fns, budgets, WorkloadZipfS)
	reqs, err := w.BuildRequests(roundRobinMapping(fns, models), 32, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestPaperWorkload(t *testing.T) {
	reqs := paperWorkload(t, 6, 25, 325, []string{"m0", "m1", "m2", "m3", "m4"}, 11)
	if len(reqs) != 6*325 {
		t.Fatalf("got %d requests, want %d", len(reqs), 6*325)
	}
	// Every minute has exactly 325 requests.
	perMinute := map[int]int{}
	for _, r := range reqs {
		perMinute[int(r.Arrival/time.Minute)]++
	}
	for m := 0; m < 6; m++ {
		if perMinute[m] != 325 {
			t.Errorf("minute %d has %d requests", m, perMinute[m])
		}
	}
	// Working set respected.
	fns := map[string]bool{}
	for _, r := range reqs {
		fns[r.Function] = true
	}
	if len(fns) > 25 {
		t.Errorf("working set = %d, want <= 25", len(fns))
	}
}

func TestPaperWorkloadDeterministic(t *testing.T) {
	names := []string{"m0", "m1"}
	a := paperWorkload(t, 3, 15, 100, names, 42)
	b := paperWorkload(t, 3, 15, 100, names, 42)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := &Trace{Functions: []string{"a"}, Counts: [][]int{{1}, {2}}, Minutes: 1}
	if bad.Validate() == nil {
		t.Error("row/function mismatch should fail")
	}
	bad2 := &Trace{Functions: []string{"a"}, Counts: [][]int{{1, 2}}, Minutes: 1}
	if bad2.Validate() == nil {
		t.Error("minute mismatch should fail")
	}
	bad3 := &Trace{Functions: []string{"a"}, Counts: [][]int{{-1}}, Minutes: 1}
	if bad3.Validate() == nil {
		t.Error("negative count should fail")
	}
}
