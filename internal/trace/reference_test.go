package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference stages below are the implementations the slab-backed ones
// replaced — a string per name from fmt.Sprintf, a []int per row, a stable
// reflection sort over every function's total, a fracs slice per minute —
// kept as the oracles the new ones must match value for value.

func refSynthesize(cfg SynthConfig) *Trace {
	shape, err := cfg.Shape.normalized(cfg.Minutes)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	weights := make([]float64, cfg.Functions)
	var hotRaw float64
	for i := 0; i < cfg.TopCount; i++ {
		w := 1 / float64(i+1)
		weights[i] = w
		hotRaw += w
	}
	for i := 0; i < cfg.TopCount; i++ {
		weights[i] = weights[i] / hotRaw * cfg.TopShare
	}
	tail := cfg.Functions - cfg.TopCount
	if tail > 0 {
		var tailRaw float64
		for i := 0; i < tail; i++ {
			w := 1.5 - float64(i)/float64(tail)
			weights[cfg.TopCount+i] = w
			tailRaw += w
		}
		for i := 0; i < tail; i++ {
			weights[cfg.TopCount+i] = weights[cfg.TopCount+i] / tailRaw * (1 - cfg.TopShare)
		}
	} else {
		for i := range weights {
			weights[i] /= cfg.TopShare
		}
	}
	t := &Trace{Minutes: cfg.Minutes}
	t.Functions = make([]string, cfg.Functions)
	t.Counts = make([][]int, cfg.Functions)
	for i := 0; i < cfg.Functions; i++ {
		t.Functions[i] = fmt.Sprintf("func-%05d", i)
		t.Counts[i] = make([]int, cfg.Minutes)
	}
	for m := 0; m < cfg.Minutes; m++ {
		factor := shape.Factor(m)
		for i := 0; i < cfg.Functions; i++ {
			mean := weights[i] * float64(cfg.InvocationsPerMinute) * factor
			t.Counts[i][m] = poisson(rng, mean)
		}
	}
	return t
}

func refTopN(t *Trace, n int) *Trace {
	type ranked struct {
		idx   int
		total int64
	}
	totals := t.FunctionTotals()
	rs := make([]ranked, len(totals))
	for i, v := range totals {
		rs[i] = ranked{i, v}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].total > rs[j].total })
	if n > len(rs) {
		n = len(rs)
	}
	out := &Trace{Minutes: t.Minutes}
	for _, r := range rs[:n] {
		out.Functions = append(out.Functions, t.Functions[r.idx])
		row := make([]int, t.Minutes)
		copy(row, t.Counts[r.idx])
		out.Counts = append(out.Counts, row)
	}
	return out
}

func refFirstMinutes(t *Trace, m int) *Trace {
	if m > t.Minutes {
		m = t.Minutes
	}
	out := &Trace{Functions: append([]string(nil), t.Functions...), Minutes: m}
	for _, row := range t.Counts {
		out.Counts = append(out.Counts, append([]int(nil), row[:m]...))
	}
	return out
}

// refApportion is the largest-remainder loop NormalizeMinutes and
// RedistributeMinutesBudgets each carried: exact(i, m) is row i's exact
// share of minute m's budget, ok(m) whether the minute is apportioned.
func refApportion(t *Trace, budget func(m int) int, ok func(m int) bool, exact func(i, m int) float64) *Trace {
	out := &Trace{Functions: append([]string(nil), t.Functions...), Minutes: t.Minutes}
	out.Counts = make([][]int, len(t.Counts))
	for i := range out.Counts {
		out.Counts[i] = make([]int, t.Minutes)
	}
	for m := 0; m < t.Minutes; m++ {
		if !ok(m) {
			continue
		}
		type frac struct {
			idx  int
			rem  float64
			base int
		}
		fracs := make([]frac, 0, len(t.Counts))
		assigned := 0
		for i := range t.Counts {
			e := exact(i, m)
			base := int(math.Floor(e))
			assigned += base
			fracs = append(fracs, frac{idx: i, rem: e - float64(base), base: base})
		}
		sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
		left := budget(m) - assigned
		for k := range fracs {
			n := fracs[k].base
			if k < left {
				n++
			}
			out.Counts[fracs[k].idx][m] = n
		}
	}
	return out
}

func refNormalizeMinutes(t *Trace, budget int) *Trace {
	colSum := make([]int64, t.Minutes)
	for _, row := range t.Counts {
		for m, c := range row {
			colSum[m] += int64(c)
		}
	}
	return refApportion(t,
		func(int) int { return budget },
		func(m int) bool { return colSum[m] != 0 },
		func(i, m int) float64 { return float64(t.Counts[i][m]) * float64(budget) / float64(colSum[m]) })
}

func refRedistributeMinutesBudgets(t *Trace, budgets []int, s float64) *Trace {
	weights := ZipfWeights(len(t.Counts), s)
	return refApportion(t,
		func(m int) int { return budgets[m] },
		func(int) bool { return true },
		func(i, m int) float64 { return weights[i] * float64(budgets[m]) })
}

// sameTrace holds got to want: the same value, and the same CSV bytes.
func sameTrace(t *testing.T, what string, got, want *Trace) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs from the reference:\n got functions %v\nwant functions %v", what, got.Functions, want.Functions)
		return
	}
	var g, w bytes.Buffer
	if err := got.WriteCSV(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Errorf("%s: CSV differs from the reference's", what)
	}
}

// rowsIndependent checks the slab layout's two promises on a built trace:
// appending to a row cannot reach the next row, and the trace shares no
// storage with the trace it was derived from.
func rowsIndependent(t *testing.T, what string, built, from *Trace) {
	t.Helper()
	for i, row := range built.Counts {
		if cap(row) != len(row) {
			t.Fatalf("%s: row %d has capacity %d beyond its %d minutes", what, i, cap(row), len(row))
		}
	}
	if len(built.Counts) >= 2 && built.Minutes > 0 {
		before := built.Counts[1][0]
		grown := append(built.Counts[0], before+1)
		if built.Counts[1][0] != before || len(grown) != built.Minutes+1 {
			t.Errorf("%s: append to row 0 reached row 1", what)
		}
	}
	if from == nil || len(built.Counts) == 0 || built.Minutes == 0 {
		return
	}
	snapshot := refFirstMinutes(from, from.Minutes)
	for i := range built.Counts {
		built.Functions[i] = "scribbled"
		for m := range built.Counts[i] {
			built.Counts[i][m] = -1
		}
	}
	if !reflect.DeepEqual(from, snapshot) {
		t.Errorf("%s aliases its input", what)
	}
}

// TestSlabStagesMatchReference drives every stage of the workload pipeline
// and its reference over traces with and without a long tail, and over an
// all-equal tail where every rank past the hot set is decided by a tie.
func TestSlabStagesMatchReference(t *testing.T) {
	for _, functions := range []int{15, 500, 2000} {
		cfg := SynthConfig{
			Functions:            functions,
			Minutes:              6,
			InvocationsPerMinute: 40000,
			TopShare:             0.56,
			TopCount:             15,
			Seed:                 int64(functions),
		}
		synth, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := refSynthesize(cfg)
		sameTrace(t, fmt.Sprintf("Synthesize(%d)", functions), synth, ref)
		rowsIndependent(t, "Synthesize", synth, nil)

		flat := refFirstMinutes(ref, ref.Minutes)
		for i := cfg.TopCount; i < functions; i++ {
			for m := range flat.Counts[i] {
				flat.Counts[i][m] = 7
			}
		}
		for name, src := range map[string]*Trace{"synth": ref, "flat-tail": flat} {
			for _, m := range []int{3, 6, 9} {
				what := fmt.Sprintf("%s/%d FirstMinutes(%d)", name, functions, m)
				sameTrace(t, what, src.FirstMinutes(m), refFirstMinutes(src, m))
				rowsIndependent(t, what, src.FirstMinutes(m), src)
			}
			for _, n := range []int{1, 15, 16, 25, 35, functions, functions + 10} {
				what := fmt.Sprintf("%s/%d TopN(%d)", name, functions, n)
				sameTrace(t, what, src.TopN(n), refTopN(src, n))
				rowsIndependent(t, what, src.TopN(n), src)
			}
			w := refTopN(src, 35)
			what := fmt.Sprintf("%s/%d NormalizeMinutes", name, functions)
			sameTrace(t, what, w.NormalizeMinutes(325), refNormalizeMinutes(w, 325))
			rowsIndependent(t, what, w.NormalizeMinutes(325), w)
			budgets := []int{325, 1, 130, 520, 325, 17}
			what = fmt.Sprintf("%s/%d RedistributeMinutesBudgets", name, functions)
			got, err := w.RedistributeMinutesBudgets(budgets, WorkloadZipfS)
			if err != nil {
				t.Fatal(err)
			}
			sameTrace(t, what, got, refRedistributeMinutesBudgets(w, budgets, WorkloadZipfS))
			rowsIndependent(t, what, got, w)
		}
	}
}

// TestTopNTiesAreCommon pins why the tie-break matters on the real shape,
// not only on a constructed one: over the figure grid's seeds and working
// sets, some working sets end on a function that shares its total with one
// left outside — and TopN still picks what the stable sort picked.
func TestTopNTiesAreCommon(t *testing.T) {
	tiedCuts := 0
	for seed := int64(1); seed <= 6; seed++ {
		cfg := SynthConfig{Functions: 2000, Minutes: 6, InvocationsPerMinute: 40000, TopShare: 0.56, TopCount: 15, Seed: seed}
		tr, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		totals := tr.FunctionTotals()
		sort.Slice(totals, func(i, j int) bool { return totals[i] > totals[j] })
		for _, ws := range []int{25, 35} {
			if totals[ws-1] == totals[ws] {
				tiedCuts++
			}
			sameTrace(t, fmt.Sprintf("seed %d TopN(%d)", seed, ws), tr.TopN(ws), refTopN(tr, ws))
		}
	}
	if tiedCuts == 0 {
		t.Error("no working set of the grid is cut across a tie; the premise of the tie-break has gone")
	}
	t.Logf("%d of 12 working sets are cut across a tie", tiedCuts)
}

// TestTopRankedMatchesSort drives the selection with the inputs the
// synthesizer never produces — ascending totals, where every function is a
// candidate and the buffer is cut again and again, descending, all equal,
// random with few distinct values — against a stable sort of everything.
func TestTopRankedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := map[string]func(i, n int) int64{
		"ascending":  func(i, n int) int64 { return int64(i) },
		"descending": func(i, n int) int64 { return int64(n - i) },
		"equal":      func(i, n int) int64 { return 3 },
		"random":     func(i, n int) int64 { return int64(rng.Intn(12)) },
	}
	for name, shape := range shapes {
		for _, size := range []int{1, 2, 7, 64, 1000} {
			totals := make([]int64, size)
			for i := range totals {
				totals[i] = shape(i, size)
			}
			want := make([]ranked, size)
			for i, v := range totals {
				want[i] = ranked{i, v}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].total > want[j].total })
			for _, n := range []int{1, 2, 3, size / 2, size - 1, size} {
				if n < 1 || n > size {
					continue
				}
				if got := topRanked(totals, n); !reflect.DeepEqual(got, want[:n]) {
					t.Fatalf("%s: topRanked(%d of %d) = %v, want %v", name, n, size, got, want[:n])
				}
			}
		}
	}
}

func TestTopNFirstMinutesClampNegative(t *testing.T) {
	tr := synthSmall(t)
	if got := tr.TopN(-1); len(got.Functions) != 0 || len(got.Counts) != 0 || got.Minutes != tr.Minutes {
		t.Errorf("TopN(-1) = %d functions x %d minutes, want an empty trace", len(got.Functions), got.Minutes)
	}
	got := tr.FirstMinutes(-1)
	if got.Minutes != 0 || len(got.Counts) != len(tr.Counts) {
		t.Fatalf("FirstMinutes(-1) = %d rows x %d minutes, want %d x 0", len(got.Counts), got.Minutes, len(tr.Counts))
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSynthNamesMatchSprintf covers the names past the width the buffer is
// sized for: six-digit indices make it grow mid-way.
func TestSynthNamesMatchSprintf(t *testing.T) {
	names := synthNames(100_003)
	for i, got := range names {
		if want := fmt.Sprintf("func-%05d", i); got != want {
			t.Fatalf("name %d = %q, want %q", i, got, want)
		}
	}
}
