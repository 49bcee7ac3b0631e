package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is how one (workload, end-to-end metric) pairing moved from the
// first result file to the second.
type verdict string

const (
	same       verdict = "same"       // within the bound either way
	worse      verdict = "worse"      // worse by more than the bound
	better     verdict = "better"     // better by more than the bound
	unresolved verdict = "unresolved" // either side's run-to-run spread is wider than the bound
)

// judge compares two sets of runs of one metric. Spread is the distance
// between the quartiles as a share of the median, the larger of the two
// sides; change is b's median against a's, positive when worse.
func judge(d metricDef, a, b []float64) (v verdict, change, spread float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	spread = math.Max((a3-a1)/am, (b3-b1)/bm)
	change = (bm - am) / am
	if d.Better == higher {
		change = -change
	}
	switch {
	case spread > d.Bound:
		return unresolved, change, spread
	case change > d.Bound:
		return worse, change, spread
	case change < -d.Bound:
		return better, change, spread
	}
	return same, change, spread
}

func loadResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// untraced groups a file's end-to-end runs by workload.
func (f resultFile) untraced() map[string][]*result {
	out := map[string][]*result{}
	for _, r := range f.Results {
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

// compareFiles prints one row per (workload, untraced metric) and fails
// when an end-to-end pairing is worse, or a simulated result changed. A
// wall-clock row gets its verdict too, but gates nothing.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := loadResults(pathA)
	if err != nil {
		return err
	}
	fb, err := loadResults(pathB)
	if err != nil {
		return err
	}
	if fa.Meta.NumCPU != fb.Meta.NumCPU || fa.Meta.GOMAXPROCS != fb.Meta.GOMAXPROCS {
		fmt.Fprintf(w, "warning: core counts differ (nproc %d vs %d, GOMAXPROCS %d vs %d); the numbers do not compare\n",
			fa.Meta.NumCPU, fb.Meta.NumCPU, fa.Meta.GOMAXPROCS, fb.Meta.GOMAXPROCS)
	}
	a, b := fa.untraced(), fb.untraced()
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s missing from one file\n", wl.Name)
			bad++
			continue
		}
		for i, d := range untraced {
			va, vb := valuesOf(ra, d.Name), valuesOf(rb, d.Name)
			v, change, spread := judge(d, va, vb)
			if v == worse && i < len(endToEnd) {
				bad++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), 100*change, 100*spread, 100*d.Bound, v)
		}
		if da, db := ra[0].Digest, rb[0].Digest; da != db {
			// Seeds equal, so a differing digest is a changed simulation,
			// not noise.
			if fa.Meta.Seed == fb.Meta.Seed {
				bad++
			}
			fmt.Fprintf(w, "%-16s report_digest differs: %s vs %s\n", wl.Name, da, db)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons failed", bad)
	}
	return nil
}
