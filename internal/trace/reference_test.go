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

// The reference stages below are the staged pipeline the workload path
// replaced — a string per name from fmt.Sprintf, a []int per row, a stored
// Functions × Minutes trace truncated by a copy, a stable reflection sort
// over every function's total, exp(-mean) on every draw, a fracs slice per
// minute — kept as the oracles the new code must match value for value.

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
			t.Counts[i][m] = poisson(rng, mean, math.Exp(-mean))
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

func refRedistributeMinutesBudgets(t *Trace, budgets []int, s float64) *Trace {
	weights := ZipfWeights(len(t.Counts), s)
	out := &Trace{Functions: append([]string(nil), t.Functions...), Minutes: len(budgets)}
	out.Counts = make([][]int, len(t.Counts))
	for i := range out.Counts {
		out.Counts[i] = make([]int, len(budgets))
	}
	for m, budget := range budgets {
		type frac struct {
			idx  int
			rem  float64
			base int
		}
		fracs := make([]frac, 0, len(t.Counts))
		assigned := 0
		for i := range t.Counts {
			e := weights[i] * float64(budget)
			base := int(math.Floor(e))
			assigned += base
			fracs = append(fracs, frac{idx: i, rem: e - float64(base), base: base})
		}
		sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
		left := budget - assigned
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

// rowsCapped checks the slab layout's promise on a built trace: appending
// to a row cannot reach the next row.
func rowsCapped(t *testing.T, what string, built *Trace) {
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
}

// shapes are the synthesizer's three load shapes, each left to its
// defaults.
var shapes = []Shape{{}, {Kind: ShapeDiurnal}, {Kind: ShapeBurst}}

// synthCfg is the figures' synthesizer config over the given tail, length,
// seed and shape.
func synthCfg(functions, minutes int, seed int64, shape Shape) SynthConfig {
	return SynthConfig{
		Functions:            functions,
		Minutes:              minutes,
		InvocationsPerMinute: 40000,
		TopShare:             0.56,
		TopCount:             15,
		Seed:                 seed,
		Shape:                shape,
	}
}

// TestSlabStagesMatchReference drives the slab-backed stages and their
// references over traces with and without a long tail. Synthesize runs
// under every load shape, at the figures' 6 minutes and at 180 (a diurnal
// curve over three hours, thirty bursts), so the shared draw loop's
// hoisted threshold provably leaves it — and tracegen's CSV — value for
// value what it was.
func TestSlabStagesMatchReference(t *testing.T) {
	for _, functions := range []int{15, 500, 2000} {
		for _, minutes := range []int{6, 180} {
			for _, shape := range shapes {
				cfg := synthCfg(functions, minutes, int64(functions+minutes), shape)
				synth, err := Synthesize(cfg)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("Synthesize(%d x %d, %q)", functions, minutes, shape.Kind)
				sameTrace(t, what, synth, refSynthesize(cfg))
				rowsCapped(t, what, synth)
			}
		}
		w := refTopN(refSynthesize(synthCfg(functions, 6, int64(functions), Shape{})), 35)
		budgets := []int{325, 1, 130, 520, 325, 17}
		what := fmt.Sprintf("Redistribute(%d)", len(w.Functions))
		got := Redistribute(append([]string(nil), w.Functions...), budgets, WorkloadZipfS)
		sameTrace(t, what, got, refRedistributeMinutesBudgets(w, budgets, WorkloadZipfS))
		rowsCapped(t, what, got)
	}
}

// TestWorkingSetMatchesReference holds WorkingSet to the staged pipeline it
// replaced — synthesize, truncate, rank by a stable sort, keep the top n —
// over seeds, tails, shapes, windows shorter than, equal to and longer than
// the trace, and working sets from empty to past the function count.
func TestWorkingSetMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, functions := range []int{15, 2000} {
				for _, shape := range shapes {
					cfg := synthCfg(functions, 6, seed, shape)
					ref := refSynthesize(cfg)
					for _, m := range []int{3, 6, 9} {
						// refTopN(window, n) is the first n rows of one stable
						// sort, so every n reads its answer off the full ranking.
						ranking := refTopN(refFirstMinutes(ref, m), functions).Functions
						for _, n := range []int{0, 1, 15, 16, 25, 35, 512, functions, functions + 1} {
							got, err := WorkingSet(cfg, m, n)
							if err != nil {
								t.Fatal(err)
							}
							var want []string // refTopN(window, 0) names nothing: nil
							if n > 0 {
								want = ranking[:min(n, functions)]
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%d functions, %q: WorkingSet(%d minutes, %d) = %v, want %v",
									functions, shape.Kind, m, n, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestTopNTiesAreCommon pins why the tie-break matters on the real shape,
// not only on a constructed one: over the figure grid's seeds and working
// sets, some working sets end on a function that shares its total with one
// left outside — and WorkingSet still picks what the stable sort picked.
func TestTopNTiesAreCommon(t *testing.T) {
	tiedCuts := 0
	for seed := int64(1); seed <= 6; seed++ {
		cfg := synthCfg(2000, 6, seed, Shape{})
		tr := refSynthesize(cfg)
		totals := tr.FunctionTotals()
		sort.Slice(totals, func(i, j int) bool { return totals[i] > totals[j] })
		for _, ws := range []int{25, 35} {
			if totals[ws-1] == totals[ws] {
				tiedCuts++
			}
			got, err := WorkingSet(cfg, 6, ws)
			if err != nil {
				t.Fatal(err)
			}
			if want := refTopN(tr, ws).Functions; !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d WorkingSet(%d) = %v, want %v", seed, ws, got, want)
			}
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

// TestTopNFirstMinutesClampNegative pins WorkingSet's clamps at their low
// ends: a negative working set is empty, and a negative window ranks
// all-zero totals, which leaves the first rows in row order.
func TestTopNFirstMinutesClampNegative(t *testing.T) {
	if got, err := WorkingSet(smallCfg, 6, -1); err != nil || got != nil {
		t.Errorf("WorkingSet(6 minutes, -1) = %v, %v, want an empty working set", got, err)
	}
	got, err := WorkingSet(smallCfg, -1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"func-00000", "func-00001", "func-00002"}; !reflect.DeepEqual(got, want) {
		t.Errorf("WorkingSet(-1 minutes, 3) = %v, want %v", got, want)
	}
}

// TestSynthNamesMatchSprintf covers the names past the width the buffer is
// sized for: six-digit indices make it grow mid-way.
func TestSynthNamesMatchSprintf(t *testing.T) {
	names := synthNames(100_003, func(k int) int { return k })
	for i, got := range names {
		if want := fmt.Sprintf("func-%05d", i); got != want {
			t.Fatalf("name %d = %q, want %q", i, got, want)
		}
	}
}
