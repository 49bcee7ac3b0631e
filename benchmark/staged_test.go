package main

import "testing"

// TestStagedMatchesComposed holds the harness's staged replay — the stages
// called one at a time so they can be timed — to Reports byte-identical to
// experiments.Run / RunCells, on the short shape of every sim workload.
func TestStagedMatchesComposed(t *testing.T) {
	for _, wl := range workloads {
		w, ok := wl.runner.(simWorkload)
		if !ok {
			continue
		}
		t.Run(wl.Name, func(t *testing.T) {
			want, err := w.reference(3, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				it, err := w.iterate(3, true, tr, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(it.violations) > 0 {
					t.Errorf("traced=%v: %v", tr != nil, it.violations)
				}
				if it.digest != want {
					t.Errorf("traced=%v: staged digest %s, composed %s", tr != nil, it.digest, want)
				}
			}
		})
	}
}
