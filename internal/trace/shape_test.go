package trace

import (
	"math"
	"testing"
)

func TestShapeBudgetsFlat(t *testing.T) {
	b, err := (Shape{}).Budgets(6, 325)
	if err != nil {
		t.Fatal(err)
	}
	for m, v := range b {
		if v != 325 {
			t.Errorf("minute %d budget = %d, want 325", m, v)
		}
	}
	if _, err := (Shape{Kind: "bogus"}).Budgets(6, 325); err == nil {
		t.Error("unknown shape should fail")
	}
	if _, err := (Shape{}).Budgets(0, 325); err == nil {
		t.Error("zero minutes should fail")
	}
}

func TestShapeBudgetsDiurnal(t *testing.T) {
	sh := Shape{Kind: ShapeDiurnal, Amplitude: 0.6}
	b, err := sh.Budgets(12, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Minute 0 is the trough (1-A), the half-period point the peak (1+A).
	if b[0] >= b[6] {
		t.Errorf("trough %d not below peak %d", b[0], b[6])
	}
	if want := int(math.Round(300 * 0.4)); b[0] != want {
		t.Errorf("trough = %d, want %d", b[0], want)
	}
	if want := int(math.Round(300 * 1.6)); b[6] != want {
		t.Errorf("peak = %d, want %d", b[6], want)
	}
	// Mean stays near rpm: the sine integrates to zero over a period.
	sum := 0
	for _, v := range b {
		sum += v
	}
	if mean := float64(sum) / 12; mean < 290 || mean > 310 {
		t.Errorf("mean budget = %g, want ~300", mean)
	}
	if _, err := (Shape{Kind: ShapeDiurnal, Amplitude: 1.5}).Budgets(6, 100); err == nil {
		t.Error("amplitude >= 1 should fail")
	}
}

func TestShapeBudgetsBurst(t *testing.T) {
	sh := Shape{Kind: ShapeBurst, BurstEvery: 4, BurstLen: 1, BurstFactor: 3}
	b, err := sh.Budgets(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	for m, v := range b {
		want := 100
		if m%4 == 0 {
			want = 300
		}
		if v != want {
			t.Errorf("minute %d budget = %d, want %d", m, v, want)
		}
	}
	if _, err := (Shape{Kind: ShapeBurst, BurstEvery: 2, BurstLen: 3}).Budgets(6, 100); err == nil {
		t.Error("burst longer than its period should fail")
	}
	if _, err := (Shape{Kind: ShapeBurst, BurstFactor: 0.5}).Budgets(6, 100); err == nil {
		t.Error("burst factor < 1 should fail")
	}
}

func TestSynthesizeShapedLoad(t *testing.T) {
	base := SynthConfig{
		Functions: 200, Minutes: 12, InvocationsPerMinute: 5000,
		TopShare: 0.56, TopCount: 15, Seed: 7,
	}
	colSums := func(tr *Trace) []int64 {
		out := make([]int64, tr.Minutes)
		for _, row := range tr.Counts {
			for m, c := range row {
				out[m] += int64(c)
			}
		}
		return out
	}

	diurnal := base
	diurnal.Shape = Shape{Kind: ShapeDiurnal, Amplitude: 0.7}
	tr, err := Synthesize(diurnal)
	if err != nil {
		t.Fatal(err)
	}
	s := colSums(tr)
	if float64(s[0]) > 0.6*float64(s[6]) {
		t.Errorf("diurnal trough %d vs peak %d: modulation too weak", s[0], s[6])
	}

	burst := base
	burst.Shape = Shape{Kind: ShapeBurst, BurstEvery: 6, BurstLen: 1, BurstFactor: 4}
	tr, err = Synthesize(burst)
	if err != nil {
		t.Fatal(err)
	}
	s = colSums(tr)
	if float64(s[0]) < 2*float64(s[1]) {
		t.Errorf("burst minute %d vs baseline %d: spike too weak", s[0], s[1])
	}
}

func TestRedistributeMinutesBudgets(t *testing.T) {
	budgets := []int{50, 200}
	out := Redistribute([]string{"a", "b", "c"}, budgets, WorkloadZipfS)
	if out.Minutes != len(budgets) {
		t.Fatalf("Minutes = %d, want one per budget", out.Minutes)
	}
	for m, want := range budgets {
		sum := 0
		for i := range out.Counts {
			sum += out.Counts[i][m]
		}
		if sum != want {
			t.Errorf("minute %d sums to %d, want %d", m, sum, want)
		}
	}
}
