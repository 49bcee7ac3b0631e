package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(10, 1)
	sum := 0.0
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Fatal("weights must be non-increasing")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum = %g", sum)
	}
	// s=0 is uniform.
	u := ZipfWeights(4, 0)
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("uniform weights = %v", u)
		}
	}
}

func TestWorkloadZipfSMatchesPaperStatistic(t *testing.T) {
	// With the calibrated exponent, the top 15 of a 35-function working
	// set must carry approximately the paper's 56% of invocations.
	w := ZipfWeights(35, WorkloadZipfS)
	top := 0.0
	for _, v := range w[:15] {
		top += v
	}
	if top < 0.53 || top > 0.61 {
		t.Errorf("top-15 share = %.3f, want ~0.56", top)
	}
}

func TestRedistributeMinutes(t *testing.T) {
	out := Redistribute([]string{"f0", "f1", "f2"}, []int{325, 325}, WorkloadZipfS)
	for m := 0; m < 2; m++ {
		sum := 0
		for i := range out.Counts {
			sum += out.Counts[i][m]
		}
		if sum != 325 {
			t.Errorf("minute %d sums to %d", m, sum)
		}
	}
	// Rank order respected: f0 >= f1 >= f2.
	if out.Counts[0][0] < out.Counts[1][0] || out.Counts[1][0] < out.Counts[2][0] {
		t.Errorf("rank order broken: %v %v %v", out.Counts[0][0], out.Counts[1][0], out.Counts[2][0])
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeEmptyTrace(t *testing.T) {
	out := Redistribute(nil, []int{100, 100, 100}, 0.4)
	if len(out.Counts) != 0 || out.Minutes != 3 {
		t.Errorf("empty redistribution = %+v", out)
	}
}

// Property: redistribution hits the budget exactly for any function count
// and budget, with any skew.
func TestRedistributeBudgetProperty(t *testing.T) {
	f := func(nFuncs, budget uint8, skew uint8) bool {
		fns := make([]string, int(nFuncs)%40+1)
		s := float64(skew) / 64.0 // 0..4
		out := Redistribute(fns, []int{int(budget)}, s)
		sum := 0
		for i := range out.Counts {
			sum += out.Counts[i][0]
		}
		return sum == int(budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
