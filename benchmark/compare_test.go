package main

import (
	"math"
	"testing"
)

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 3, 8, 2, 9, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "requests_per_s", Better: higher, Bound: 0.10}
	lat := metricDef{Name: "latency_p50_us", Better: lower, Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"rate within bound", rate, steady(100), steady(95), same},
		{"rate down 20%", rate, steady(100), steady(80), worse},
		{"rate up 20%", rate, steady(100), steady(120), better},
		{"latency up 20%", lat, steady(100), steady(120), worse},
		{"latency down 20%", lat, steady(100), steady(80), better},
		{"noisy side", lat, []float64{80, 100, 120, 90, 130}, steady(120), unresolved},
		{"single runs", lat, []float64{100}, []float64{104}, same},
	} {
		if got, _, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, change, _ := judge(rate, steady(100), steady(80)); math.Abs(change-0.2) > 1e-9 {
		t.Errorf("rate 100 -> 80: change %v, want +0.2 (worse)", change)
	}
}
