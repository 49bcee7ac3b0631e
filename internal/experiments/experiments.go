// Package experiments reproduces the paper's evaluation (§V): it builds
// the Azure-trace workload exactly as §V-A1 describes, runs it through the
// simulated 12-GPU cluster under each scheduler, and emits the data series
// behind Table I and Figures 4–7. The benchmark harness (bench_test.go)
// and cmd/faas-bench both drive this package.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"gpufaas/internal/cache"
	"gpufaas/internal/chaos"
	"gpufaas/internal/cluster"
	"gpufaas/internal/core"
	"gpufaas/internal/models"
	"gpufaas/internal/obs"
	"gpufaas/internal/trace"
)

// WorkloadParams selects the §V-A1 workload construction.
type WorkloadParams struct {
	// Minutes of trace to replay (paper: first 6 minutes).
	Minutes int
	// RequestsPerMinute after normalization (paper: 325 for 12 GPUs).
	RequestsPerMinute int
	// WorkingSet is the number of most-popular functions kept
	// (paper: 15, 25, 35).
	WorkingSet int
	// Batch is the inference batch size (paper: 32).
	Batch int
	// Seed drives both the trace synthesizer and the per-minute shuffle.
	Seed int64
	// Synth optionally overrides the Azure-shape synthesizer config;
	// zero value uses a scaled default.
	Synth trace.SynthConfig
	// Shape modulates the per-minute request budget (diurnal, burst);
	// the zero value is the paper's flat load.
	Shape trace.Shape
}

// DefaultWorkload returns the paper's workload for a working-set size.
func DefaultWorkload(workingSet int) WorkloadParams {
	return WorkloadParams{
		Minutes:           6,
		RequestsPerMinute: 325,
		WorkingSet:        workingSet,
		Batch:             models.EvalBatchSize,
		Seed:              1,
	}
}

// synthDefaults returns a synthesizer config that preserves the published
// trace statistics but keeps generation cheap: the tail only needs to be
// large enough that its working set behaves like the real trace's.
func synthDefaults(seed int64) trace.SynthConfig {
	return trace.SynthConfig{
		Functions:            2000,
		Minutes:              6,
		InvocationsPerMinute: 40000,
		TopShare:             0.56,
		TopCount:             15,
		Seed:                 seed,
	}
}

// BuiltWorkload is a materialized §V-A1 workload. Each trace function is
// mapped to its own model *instance* — same architecture and profile as a
// Table I model, but separately-trained weights, hence a distinct cache
// item. This is what the paper means by "map each unique function in the
// trace to a unique model": a working set of 35 functions is 35 distinct
// cache items even though only 22 architectures exist, and it is exactly
// this that overwhelms the 12 GPUs' aggregate memory at the larger working
// sets.
type BuiltWorkload struct {
	Requests []trace.Request
	// Zoo contains the per-function model instances (named
	// "<arch>@f<rank>") the cluster must be built with.
	Zoo *models.Zoo
	// TopModel is the instance used by the most popular function
	// (tracked for the Fig. 6 duplicates metric).
	TopModel string
}

// workloadTrace runs the §V-A1 construction up to (but excluding) the
// request expansion: the redistributed working-set trace, the
// function→instance mapping, the derived zoo and the tracked top model.
// Workload materializes the expansion; StreamWorkload wraps it in an
// ArrivalStream.
func workloadTrace(p WorkloadParams, base *models.Zoo) (*trace.Trace, trace.ModelMapping, *models.Zoo, string, error) {
	if p.WorkingSet <= 0 {
		return nil, nil, nil, "", fmt.Errorf("experiments: non-positive working set %d", p.WorkingSet)
	}
	synth := p.Synth
	if synth.Functions == 0 {
		synth = synthDefaults(p.Seed)
	}
	if synth.Minutes < p.Minutes {
		synth.Minutes = p.Minutes
	}
	fns, err := trace.WorkingSet(synth, p.Minutes, p.WorkingSet)
	if err != nil {
		return nil, nil, nil, "", err
	}
	budgets, err := p.Shape.Budgets(p.Minutes, p.RequestsPerMinute)
	if err != nil {
		return nil, nil, nil, "", err
	}
	w := trace.Redistribute(fns, budgets, trace.WorkloadZipfS)

	// One model instance per working-set function, architectures dealt
	// round-robin in size order so sizes spread evenly across popularity
	// ranks.
	bySize := base.BySize()
	if len(bySize) == 0 {
		return nil, nil, nil, "", fmt.Errorf("experiments: empty base zoo")
	}
	mapping := make(trace.ModelMapping, len(w.Functions))
	instances := make([]models.Model, 0, len(w.Functions))
	for i, fn := range w.Functions {
		inst := bySize[i%len(bySize)]
		// "%s@f%02d" without fmt, whose pooled printer state makes the
		// build's allocation count vary under the race detector.
		pad := ""
		if i < 10 {
			pad = "0"
		}
		inst.Name = inst.Name + "@f" + pad + strconv.Itoa(i)
		instances = append(instances, inst)
		mapping[fn] = inst.Name
	}
	zoo, err := models.NewZoo(instances)
	if err != nil {
		return nil, nil, nil, "", err
	}
	top := ""
	if len(w.Functions) > 0 {
		top = mapping[w.Functions[0]]
	}
	return w, mapping, zoo, top, nil
}

// Workload materializes the request stream and the derived model zoo.
func Workload(p WorkloadParams, base *models.Zoo) (BuiltWorkload, error) {
	w, mapping, zoo, top, err := workloadTrace(p, base)
	if err != nil {
		return BuiltWorkload{}, err
	}
	reqs, err := w.BuildRequests(mapping, p.Batch, newRand(p.Seed))
	if err != nil {
		return BuiltWorkload{}, err
	}
	return BuiltWorkload{Requests: reqs, Zoo: zoo, TopModel: top}, nil
}

// BuiltStream is BuiltWorkload's streaming form: the same workload as an
// arrival iterator, so peak memory is one trace minute plus the
// in-flight set instead of the whole invocation stream.
type BuiltStream struct {
	Stream   *trace.ArrivalStream
	Zoo      *models.Zoo
	TopModel string
}

// StreamWorkload builds the workload as an ArrivalStream. chunk caps
// requests per injected batch (<= 0: one trace minute).
func StreamWorkload(p WorkloadParams, base *models.Zoo, chunk int) (BuiltStream, error) {
	w, mapping, zoo, top, err := workloadTrace(p, base)
	if err != nil {
		return BuiltStream{}, err
	}
	s, err := w.Stream(mapping, p.Batch, newRand(p.Seed), chunk)
	if err != nil {
		return BuiltStream{}, err
	}
	return BuiltStream{Stream: s, Zoo: zoo, TopModel: top}, nil
}

// RunParams configures one experiment run.
type RunParams struct {
	Policy core.Policy
	// O3Limit overrides the LALBO3 starvation limit; nil uses the
	// paper's default of 25. An explicit 0 degenerates LALBO3 to LALB
	// (the Fig. 7 sweep's first point).
	O3Limit *int
	// DisableLocalQueue ablates Algorithm 2's busy-GPU parking.
	DisableLocalQueue bool
	WorkingSet        int
	CachePolicy       string
	// Cluster overrides; zero values use the paper's testbed.
	Nodes       int
	GPUsPerNode int
	GPUMemory   int64
	// Fleet declares a heterogeneous device-class mix; when set it
	// overrides Nodes/GPUsPerNode/GPUMemory and the run's Report gains
	// the Cost / ClassUsage columns.
	Fleet    cluster.FleetSpec
	Workload WorkloadParams // zero value -> DefaultWorkload(WorkingSet)
	// Autoscale attaches an autoscaler to the run's cluster. It is a
	// value spec (not a live autoscale.Config) so every run materializes
	// a fresh, stateless-by-construction policy — grid cells must not
	// share hysteresis counters across workers.
	Autoscale *AutoscaleSpec
	// Streaming replays the workload through an ArrivalStream and
	// cluster.RunWorkloadStream — peak memory O(in-flight), with the
	// Report carrying Streaming statistics — instead of materializing
	// the full request slice. The scale sweep runs this way.
	Streaming bool
	// ScanPlacement runs the scheduler's reference scan path (the
	// benchmark baseline; decisions are identical to the indexed path).
	ScanPlacement bool
	// StreamChunk caps arrivals per injected batch under Streaming
	// (<= 0: one trace minute per batch).
	StreamChunk int
	// Obs selects the run's observability features (lifecycle tracing,
	// latency decomposition, time-series telemetry); zero disables all.
	Obs obs.Options
	// MaxBatch / BatchWait enable coalesced same-model dispatch
	// (cluster.Config.MaxBatch / BatchWait). MaxBatch <= 1 keeps the
	// run byte-identical to the pre-batching build.
	MaxBatch  int
	BatchWait time.Duration
	// Chaos attaches the deterministic fault injector
	// (cluster.Config.Chaos); nil injects nothing and keeps the run
	// byte-identical to a fault-free build. The spec is deep-copied per
	// run so grid cells cannot share mutable state.
	Chaos *chaos.Config
	// Retry is the mid-flight failure retry policy
	// (cluster.Config.Retry); the zero value fails interrupted requests
	// outright.
	Retry core.RetryPolicy
}

// Row is one experiment result: a point in Figures 4a/4b/4c/5/6.
type Row struct {
	Policy     string
	WorkingSet int
	cluster.Report
}

// buildConfig resolves RunParams into the cluster configuration (sans
// zoo) and the effective workload. Run and the multi-cell runner share
// this construction so the single- and sharded-cell paths cannot drift.
func buildConfig(p RunParams) (cluster.Config, WorkloadParams, error) {
	cfg := cluster.DefaultConfig()
	cfg.Policy = p.Policy
	cfg.O3Limit = core.DefaultO3Limit
	if p.O3Limit != nil {
		cfg.O3Limit = *p.O3Limit
	}
	cfg.DisableLocalQueue = p.DisableLocalQueue
	cfg.ScanPlacement = p.ScanPlacement
	if p.CachePolicy != "" {
		cfg.CachePolicy = p.CachePolicy
	}
	if p.Nodes > 0 {
		cfg.Nodes = p.Nodes
	}
	if p.GPUsPerNode > 0 {
		cfg.GPUsPerNode = p.GPUsPerNode
	}
	if p.GPUMemory > 0 {
		cfg.GPUMemory = p.GPUMemory
	}
	if p.Fleet != nil {
		// Deep-copy: cluster.New normalizes the spec in place, and grid
		// cells must not share mutable state across Matrix workers.
		cfg.Fleet = append(cluster.FleetSpec(nil), p.Fleet...)
	}
	cfg.Obs = p.Obs
	cfg.MaxBatch = p.MaxBatch
	cfg.BatchWait = p.BatchWait
	if p.Chaos != nil {
		cc := *p.Chaos
		cc.Script = append([]chaos.Fault(nil), p.Chaos.Script...)
		cfg.Chaos = &cc
	}
	cfg.Retry = p.Retry
	wp := p.Workload
	if wp.Minutes == 0 {
		wp = DefaultWorkload(p.WorkingSet)
	}
	if p.Autoscale != nil {
		ac, err := p.Autoscale.Config(wp)
		if err != nil {
			return cluster.Config{}, WorkloadParams{}, err
		}
		cfg.Autoscale = ac
	}
	return cfg, wp, nil
}

// Run executes one experiment and returns its row.
func Run(p RunParams) (Row, error) {
	cfg, wp, err := buildConfig(p)
	if err != nil {
		return Row{}, err
	}
	// The two replay modes differ only in how the workload is built and
	// fed; everything around them (cluster construction, top-model
	// tracking, the row shape) is shared so the paths cannot drift.
	var topModel string
	var replay func(*cluster.Cluster) (cluster.Report, error)
	if p.Streaming {
		built, err := StreamWorkload(wp, models.Default(), p.StreamChunk)
		if err != nil {
			return Row{}, err
		}
		cfg.Zoo = built.Zoo
		topModel = built.TopModel
		replay = func(c *cluster.Cluster) (cluster.Report, error) {
			return c.RunWorkloadStream(built.Stream)
		}
	} else {
		built, err := Workload(wp, models.Default())
		if err != nil {
			return Row{}, err
		}
		cfg.Zoo = built.Zoo
		topModel = built.TopModel
		replay = func(c *cluster.Cluster) (cluster.Report, error) {
			return c.RunWorkload(built.Requests)
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return Row{}, err
	}
	if topModel != "" {
		c.TrackModel(topModel)
	}
	rep, err := replay(c)
	if err != nil {
		return Row{}, err
	}
	return Row{Policy: cfg.Policy.String(), WorkingSet: wp.WorkingSet, Report: rep}, nil
}

// PaperWorkingSets are the working-set sizes of Figures 4–6.
var PaperWorkingSets = []int{15, 25, 35}

// PaperPolicies are the schedulers compared in Figures 4–6.
var PaperPolicies = []core.Policy{core.LB, core.LALB, core.LALBO3}

// Fig4Specs returns the scheduler × working-set grid behind Figures 4a
// (average latency), 4b (cache miss ratio), 4c (SM utilization), 5
// (false-miss ratio) and 6 (top-model duplicates), in row order
// (working set outer, policy inner).
func Fig4Specs() []Spec {
	var specs []Spec
	for _, ws := range PaperWorkingSets {
		for _, pol := range PaperPolicies {
			specs = append(specs, Spec{
				Name:   fmt.Sprintf("fig4/%v/ws=%d", pol, ws),
				Params: RunParams{Policy: pol, WorkingSet: ws},
			})
		}
	}
	return specs
}

// Fig4Matrix runs the full scheduler × working-set matrix across the
// default worker pool.
func Fig4Matrix() ([]Row, error) { return Fig4MatrixWith(Matrix{}) }

// Fig4MatrixWith is Fig4Matrix under an explicit runner (worker count,
// streaming observer).
func Fig4MatrixWith(m Matrix) ([]Row, error) { return m.Run(Fig4Specs()) }

// Fig7Point is one x-value of the O3 sensitivity sweep (§V-E).
type Fig7Point struct {
	Limit               int
	AvgLatencySec       float64
	MissRatio           float64
	LatencyVarianceSec2 float64
}

// Fig7Limits are the paper's swept O3 limits ("from zero to 45").
var Fig7Limits = []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45}

// Fig7Specs returns the O3 starvation-limit sweep grid, one cell per
// entry of Fig7Limits in order.
func Fig7Specs() []Spec {
	specs := make([]Spec, 0, len(Fig7Limits))
	for _, limit := range Fig7Limits {
		limit := limit
		specs = append(specs, Spec{
			Name:   fmt.Sprintf("fig7/limit=%d", limit),
			Params: RunParams{Policy: core.LALBO3, O3Limit: &limit, WorkingSet: 35},
		})
	}
	return specs
}

// Fig7Sweep reproduces Fig. 7: the LALBO3 scheduler at working set 35 with
// the starvation limit swept from 0 to 45.
func Fig7Sweep() ([]Fig7Point, error) { return Fig7SweepWith(Matrix{}) }

// Fig7SweepWith is Fig7Sweep under an explicit runner.
func Fig7SweepWith(m Matrix) ([]Fig7Point, error) {
	rows, err := m.Run(Fig7Specs())
	if err != nil {
		return nil, err
	}
	pts := make([]Fig7Point, len(rows))
	for i, row := range rows {
		pts[i] = Fig7Point{
			Limit:               Fig7Limits[i],
			AvgLatencySec:       row.AvgLatencySec,
			MissRatio:           row.MissRatio,
			LatencyVarianceSec2: row.LatencyVarianceSec2,
		}
	}
	return pts, nil
}

// TableIRow is one profiled model (Table I).
type TableIRow struct {
	Model       string
	OccupancyMB int64
	LoadTime    time.Duration
	InferTime   time.Duration
}

// simRunner profiles models against the simulated GPU timing model; it is
// the paper's profiling procedure (§IV-A) executed on the simulator.
type simRunner struct {
	gpuType  string
	profiles *models.ProfileStore
}

func (r simRunner) GPUType() string { return r.gpuType }
func (r simRunner) MeasureLoad(m models.Model) time.Duration {
	p, ok := r.profiles.Get(r.gpuType, m.Name)
	if !ok {
		return 0
	}
	return p.LoadTime
}
func (r simRunner) MeasureInfer(m models.Model, batch int) time.Duration {
	p, ok := r.profiles.Get(r.gpuType, m.Name)
	if !ok {
		return 0
	}
	return p.InferTime(batch)
}

// TableI runs the profiling procedure over the full zoo and returns the
// regenerated table (occupancy, load time, inference time at batch 32).
func TableI() ([]TableIRow, error) {
	zoo := models.Default()
	store := models.TableProfiles("rtx2080", zoo)
	runner := simRunner{gpuType: "rtx2080", profiles: store}
	fitted := models.NewProfileStore()
	if err := models.ProfileZoo(runner, zoo, models.DefaultProfileBatches, fitted); err != nil {
		return nil, err
	}
	var rows []TableIRow
	for _, m := range zoo.BySize() {
		p, ok := fitted.Get("rtx2080", m.Name)
		if !ok {
			return nil, fmt.Errorf("experiments: missing fitted profile for %s", m.Name)
		}
		rows = append(rows, TableIRow{
			Model:       m.Name,
			OccupancyMB: m.OccupancyMB,
			LoadTime:    p.LoadTime,
			InferTime:   p.InferTime(models.EvalBatchSize),
		})
	}
	return rows, nil
}

// CachePolicies are the replacement policies compared by the §VI
// ablation, in presentation order.
var CachePolicies = []string{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyLFU}

// CachePolicySpecs returns the §VI replacement-policy ablation grid at
// the working-set size, one cell per CachePolicies entry in order.
func CachePolicySpecs(workingSet int) []Spec {
	specs := make([]Spec, len(CachePolicies))
	for i, pol := range CachePolicies {
		specs[i] = Spec{
			Name:   "cachepolicy/" + pol,
			Params: RunParams{Policy: core.LALBO3, WorkingSet: workingSet, CachePolicy: pol},
		}
	}
	return specs
}

// CachePolicyComparison is the §VI ablation: the same workload under LRU,
// FIFO and LFU replacement with the LALBO3 scheduler.
func CachePolicyComparison(workingSet int) (map[string]Row, error) {
	return CachePolicyComparisonWith(Matrix{}, workingSet)
}

// CachePolicyComparisonWith is CachePolicyComparison under an explicit
// runner.
func CachePolicyComparisonWith(m Matrix, workingSet int) (map[string]Row, error) {
	rows, err := m.Run(CachePolicySpecs(workingSet))
	if err != nil {
		return nil, err
	}
	out := make(map[string]Row, len(rows))
	for i, row := range rows {
		out[CachePolicies[i]] = row
	}
	return out, nil
}

// GPUScalingSpecs returns the cluster-growth ablation grid: LALBO3 at
// working set 25 with 4 GPUs per node and the given node counts.
func GPUScalingSpecs(nodes []int) []Spec {
	specs := make([]Spec, len(nodes))
	for i, n := range nodes {
		specs[i] = Spec{
			Name:   fmt.Sprintf("scaling/%dgpu", n*4),
			Params: RunParams{Policy: core.LALBO3, WorkingSet: 25, Nodes: n, GPUsPerNode: 4},
		}
	}
	return specs
}

// GPUScaling runs the LALBO3 scheduler at working set 25 while varying the
// GPU count (ablation: does the locality benefit persist as the cluster
// grows?). gpusPerNode stays 4; nodes varies.
func GPUScaling(nodes []int) ([]Row, error) {
	return GPUScalingWith(Matrix{}, nodes)
}

// GPUScalingWith is GPUScaling under an explicit runner.
func GPUScalingWith(m Matrix, nodes []int) ([]Row, error) {
	rows, err := m.Run(GPUScalingSpecs(nodes))
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Policy = fmt.Sprintf("LALBO3/%dgpu", nodes[i]*4)
	}
	return rows, nil
}

// WriteFig4Table renders the Figures 4–6 matrix as an aligned text table.
func WriteFig4Table(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-8s %4s %12s %10s %8s %11s %11s\n",
		"policy", "ws", "avg_lat(s)", "miss", "sm_util", "false_miss", "dup_top1")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4d %12.3f %10.4f %8.4f %11.4f %11.3f\n",
			r.Policy, r.WorkingSet, r.AvgLatencySec, r.MissRatio,
			r.SMUtilization, r.FalseMissRatio, r.TopModelDuplicates)
	}
}

// WriteFig7Table renders the O3 sensitivity sweep.
func WriteFig7Table(w io.Writer, pts []Fig7Point) {
	fmt.Fprintf(w, "%6s %12s %10s %14s\n", "limit", "avg_lat(s)", "miss", "lat_var(s^2)")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d %12.3f %10.4f %14.3f\n",
			p.Limit, p.AvgLatencySec, p.MissRatio, p.LatencyVarianceSec2)
	}
}

// WriteTableI renders the regenerated Table I.
func WriteTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintf(w, "%-18s %10s %10s %12s\n", "model", "size(MB)", "load(s)", "infer(s)@32")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10d %10.2f %12.2f\n",
			r.Model, r.OccupancyMB, r.LoadTime.Seconds(), r.InferTime.Seconds())
	}
}
