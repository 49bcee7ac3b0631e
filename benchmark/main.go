// Command benchmark is the repository's one performance harness. It
// measures two products — the simulator (host seconds per simulated
// request) and the live gateway (wall-clock latency per invoke) — on seven
// named workloads, end to end with tracing off and layer by layer with
// tracing on. See README.md for the workloads, the metrics and their
// bounds, and the internal API the harness is pinned to.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run; last line is the result JSON
//	benchmark [-seed N] [-repeat R] [-json F]             every workload, untraced then traced
//	benchmark -compare a.json b.json                      apply the bounds to two -json files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	short    bool
	repeat   int
	jsonPath string
	outDir   string
	cpuProf  string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line (default: run all)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of one measured window")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures end to end, 1 measures per layer and writes a trace file")
	flag.BoolVar(&o.short, "short", false, "small shapes (what the tests run)")
	flag.IntVar(&o.repeat, "repeat", 1, "without -workload: untraced runs per workload; prints median and quartiles")
	flag.StringVar(&o.jsonPath, "json", "", "without -workload: also write every result to this file, for -compare")
	flag.StringVar(&o.outDir, "out", "out", "directory for trace files")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "workload=file: keep that workload's raw traced CPU profile")
	flag.BoolVar(&o.compare, "compare", false, "compare two -json files given as arguments against the bounds")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files, got %d", len(args))
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	profWorkload, profPath, _ := strings.Cut(o.cpuProf, "=")
	opts := func(w workload, traced bool) runOpts {
		ro := runOpts{Seed: o.seed, Seconds: o.seconds, Traced: traced, Short: o.short}
		if traced && w.Name == profWorkload {
			ro.CPUProfile = profPath
		}
		return ro
	}

	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := measure(w, opts(w, o.trace == 1), o.outDir)
		if err != nil {
			return err
		}
		printResult(res)
		line, err := json.Marshal(driverResult(res))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.correct() {
			return fmt.Errorf("%s: correctness checks failed", w.Name)
		}
		return nil
	}

	file := resultFile{Meta: stamp(o.seed, o.seconds, o.short)}
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		file.Meta.NumCPU, file.Meta.GOMAXPROCS, file.Meta.GoVersion, file.Meta.Commit, o.seed, o.seconds)
	failed := false
	for _, w := range workloads {
		var runs []*result
		for i := 0; i < max(o.repeat, 1); i++ {
			res, err := measure(w, opts(w, false), o.outDir)
			if err != nil {
				return err
			}
			runs = append(runs, res)
		}
		res, err := measure(w, opts(w, true), o.outDir)
		if err != nil {
			return err
		}
		if res.Digest != runs[0].Digest {
			res.Violations = append(res.Violations, fmt.Sprintf("traced run's digest %s differs from the untraced run's %s", res.Digest, runs[0].Digest))
		}
		for _, r := range append(runs, res) {
			printResult(r)
			failed = failed || !r.correct()
			file.Results = append(file.Results, r)
		}
		if o.repeat > 1 {
			printSpread(w.Name, runs)
		}
	}
	if o.jsonPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// measure runs one workload once and, for a traced run, writes its trace
// file. The heap is collected first so a run does not pay for its
// predecessor's garbage.
func measure(w workload, o runOpts, outDir string) (*result, error) {
	runtime.GC()
	debug.FreeOSMemory()
	res, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Workload, res.Traced, res.Seed = w.Name, o.Traced, o.Seed
	res.Metrics = res.Metrics.fill(res.measured())
	if res.tracer != nil {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := res.tracer.writeFile(filepath.Join(outDir, w.Name+".trace.json"), w.Name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// metricValue is a metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the one-line result the benchmark contract asks for.
func driverResult(r *result) map[string]any {
	ms := make(map[string]metricValue, len(r.defs()))
	for _, d := range r.defs() {
		ms[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return map[string]any{"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

// printResult prints a run's metrics by name with their units. Per-layer
// metrics that do not apply to the workload (reading 0) are left out.
func printResult(r *result) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("\n%s  %s  seed=%d attempted=%d failed=%d samples=%d\n", r.Workload, kind, r.Seed, r.Attempted, r.Failed, r.Samples)
	for i, d := range r.measured() {
		v := r.Metrics[d.Name]
		if r.Traced && v == 0 {
			continue
		}
		if !r.Traced && i == len(endToEnd) {
			fmt.Println("  wall clock (moves with the host; reported, gates nothing):")
		}
		fmt.Printf("  %-28s %16.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	if r.Digest != "" {
		fmt.Printf("  report_digest %s\n", r.Digest)
	}
	for _, v := range r.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// meta stamps a result file: numbers compare only at equal core counts.
type meta struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Short      bool    `json:"short,omitempty"`
	// Claim is the gain a change asserts; the benchmark itself claims none.
	Claim *string `json:"claim"`
}

type resultFile struct {
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
}

func stamp(seed int64, seconds float64, short bool) meta {
	m := meta{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds, Short: short}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// printSpread prints, per untraced metric, the median and quartiles over
// a workload's repeated untraced runs.
func printSpread(workload string, runs []*result) {
	fmt.Printf("\n%s  spread over %d untraced runs\n", workload, len(runs))
	for _, d := range untraced {
		q1, q2, q3 := quartiles(valuesOf(runs, d.Name))
		fmt.Printf("  %-28s median %14.6g  quartiles [%.6g, %.6g]  spread %.4f of median (bound %.3g)\n",
			d.Name, q2, q1, q3, (q3-q1)/q2, d.Bound)
	}
}

func valuesOf(runs []*result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method); one value is
// its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
