package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload's short shape through the whole pipeline —
// untraced, traced, correctness checks, result line, trace file — so a
// renamed internal API or a rotted harness fails `go test`.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := measure(w, runOpts{Seed: 1, Seconds: 0.1, Traced: traced, Short: true}, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("traced=%v: attempted %d, failed %d, violations %v", traced, res.Attempted, res.Failed, res.Violations)
				}
				checkResultLine(t, res)
			}
			b, err := os.ReadFile(filepath.Join(out, w.Name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Errorf("trace file is not JSON: %v", err)
			}
			if len(tf.TraceEvents) < 3 {
				t.Errorf("trace file holds %d events", len(tf.TraceEvents))
			}
		})
	}
}

// checkResultLine holds the driver's result line to its contract: exactly
// four keys, every metric of the run's kind with its unit, and no
// end-to-end metric reading 0.
func checkResultLine(t *testing.T, res *result) {
	t.Helper()
	b, err := json.Marshal(driverResult(res))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int64                 `json:"attempted"`
		Failed    *int64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: result line: %v", res.Workload, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("%s: result line lacks a key: %s", res.Workload, b)
	}
	defs := res.defs()
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s traced=%v: %d metrics, want %d", res.Workload, res.Traced, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or unit %q != %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
		if !res.Traced && !(m.Value > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.Workload, d.Name, m.Value)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads,
// in step with the tables this program measures by.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", file.PerLayer, perLayer)
	}
	// The driver gates on the workloads BENCHMARK.json lists: a subset of
	// the harness's, in its order, with its reasons.
	next := 0
	for _, jw := range file.Workloads {
		for next < len(workloads) && workloads[next].Name != jw.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("workload %s in BENCHMARK.json is not one of the harness's, or is out of order", jw.Name)
		}
		if jw.Why != workloads[next].Why {
			t.Errorf("workload %s: why differs:\n json %s\n code %s", jw.Name, jw.Why, workloads[next].Why)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", file.Paths)
	}
}
