// Package trace models the Microsoft Azure Functions invocation trace used
// in the paper's evaluation (§V-A1, Shahrad et al., ATC'20). It provides:
//
//   - a parser and writer for the published CSV format (one row per
//     function, one column per minute, cell = invocations of that function
//     that minute);
//   - a synthesizer that reproduces the trace's published shape — a highly
//     skewed popularity distribution where the top-15 functions account
//     for 56% of per-minute invocations and every function outside the top
//     15 contributes less than 0.01% each;
//   - the paper's workload construction, the three stages experiments
//     runs: WorkingSet keeps the top-N most frequent functions of the
//     synthesized trace's first minutes (the "working set"), Redistribute
//     spreads each minute's request budget (325 requests for the 12-GPU
//     testbed, or a shape's per-minute budgets) over them by rank, and
//     BuildRequests / Stream expand that trace into requests, shuffled
//     within each minute.
//
// A figure run builds this from scratch, once per cell, over a
// 2,000-function long tail of which 15–35 functions survive. Since the
// working set is chosen by each function's total alone, the tail is drawn
// but never stored — WorkingSet keeps one total per function and names
// only the survivors — and the working set is selected from the totals,
// not sorted out of them.
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Trace holds per-function, per-minute invocation counts.
//
// In a trace built by Synthesize or Redistribute the rows of Counts are
// consecutive windows of one backing array, each with its capacity capped
// at its length: writing a cell is local to its row, and appending to a row
// reallocates that row instead of running into the next. ParseCSV, which
// learns the row count as it reads, allocates its rows one by one.
type Trace struct {
	// Functions[i] is the identifier of row i.
	Functions []string
	// Counts[i][m] is the number of invocations of function i during
	// minute m.
	Counts [][]int
	// Minutes is the number of per-minute columns.
	Minutes int
}

// newRows returns n zeroed rows of m counts each, cut from one slab. The
// three-index slice caps each row's capacity at m.
func newRows(n, m int) [][]int {
	slab := make([]int, n*m)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = slab[i*m : (i+1)*m : (i+1)*m]
	}
	return rows
}

// Validate checks internal consistency.
func (t *Trace) Validate() error {
	if len(t.Functions) != len(t.Counts) {
		return fmt.Errorf("trace: %d functions but %d count rows", len(t.Functions), len(t.Counts))
	}
	for i, row := range t.Counts {
		if len(row) != t.Minutes {
			return fmt.Errorf("trace: row %d has %d minutes, want %d", i, len(row), t.Minutes)
		}
		for m, c := range row {
			if c < 0 {
				return fmt.Errorf("trace: negative count at row %d minute %d", i, m)
			}
		}
	}
	return nil
}

// TotalInvocations returns the sum of all counts.
func (t *Trace) TotalInvocations() int64 {
	var total int64
	for _, row := range t.Counts {
		for _, c := range row {
			total += int64(c)
		}
	}
	return total
}

// FunctionTotals returns per-function invocation sums, index-aligned with
// Functions.
func (t *Trace) FunctionTotals() []int64 {
	out := make([]int64, len(t.Counts))
	for i, row := range t.Counts {
		for _, c := range row {
			out[i] += int64(c)
		}
	}
	return out
}

// TopShare returns the fraction of total invocations contributed by the n
// most-invoked functions. The paper reports TopShare(15) ≈ 0.56 for the
// Azure trace.
func (t *Trace) TopShare(n int) float64 {
	totals := t.FunctionTotals()
	sort.Slice(totals, func(i, j int) bool { return totals[i] > totals[j] })
	var top, all int64
	for i, v := range totals {
		all += v
		if i < n {
			top += v
		}
	}
	if all == 0 {
		return 0
	}
	return float64(top) / float64(all)
}

// ranked is one function's place in the popularity order.
type ranked struct {
	idx   int
	total int64
}

// byRank orders functions by descending total, equal totals by ascending
// original row — the order a stable sort by descending total gives.
func byRank(a, b ranked) int {
	if c := cmp.Compare(b.total, a.total); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// topRanked returns the n first-ranked entries of totals, best first
// (n <= len(totals)). It selects instead of sorting: candidates collect in a
// buffer of 2n that is sorted and cut back to n whenever it fills, and from
// the first cut on only an entry that beats the n-th kept is a candidate —
// on the long tail a working set is cut from, almost none, so the tail
// costs one comparison per function, and no input more than O(log n) each.
func topRanked(totals []int64, n int) []ranked {
	buf := make([]ranked, 0, min(2*n, len(totals)))
	cut := false // buf[n-1] is an entry to beat
	for i, v := range totals {
		r := ranked{i, v}
		if cut && byRank(r, buf[n-1]) > 0 {
			continue
		}
		buf = append(buf, r)
		if len(buf) == cap(buf) {
			slices.SortFunc(buf, byRank)
			buf, cut = buf[:n], true
		}
	}
	slices.SortFunc(buf, byRank)
	return buf[:n]
}

// ZipfWeights returns normalized rank weights w_r ∝ (r+1)^-s for r in
// [0, n). s = 0 is uniform; larger s is more skewed.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// WorkloadZipfS is the within-working-set skew used when redistributing
// the per-minute request budget across the working set. The paper states
// that the top-15 functions carry 56% of the per-minute invocations; with
// s = 0.4 the top 15 of a 35-function working set receive ≈57% of the
// budget, matching that statistic while leaving the remaining functions
// enough traffic to exert the memory pressure the evaluation observes at
// the larger working sets.
const WorkloadZipfS = 0.4

// frac is one row's share of a minute's budget while it is apportioned.
type frac struct {
	idx  int
	rem  float64
	base int
}

// Redistribute builds the working-set trace: it spreads each minute's
// budget across functions (ordered by descending popularity, as WorkingSet
// returns them) according to Zipf rank weights with exponent s, so minute
// m's column sums to budgets[m] exactly. This implements the paper's
// workload construction: "we randomly distribute the invocations of
// different functions while maintaining the normalized total invocations
// per minute" (§V-A1); a shape's Budgets is how diurnal and burst load
// reach it. The trace keeps functions as its Functions, uncopied.
//
// Each column is apportioned by largest remainder: row i gets the floor of
// its exact share weight(i)·budget, and the budget the floors leave over
// goes, one request each, to the largest fractional parts (ties to the
// lower row).
func Redistribute(functions []string, budgets []int, s float64) *Trace {
	t := &Trace{
		Functions: functions,
		Counts:    newRows(len(functions), len(budgets)),
		Minutes:   len(budgets),
	}
	weights := ZipfWeights(len(functions), s)
	fracs := make([]frac, 0, len(functions))
	for m, budget := range budgets {
		fracs = fracs[:0]
		assigned := 0
		for i, w := range weights {
			e := w * float64(budget)
			base := int(math.Floor(e))
			assigned += base
			fracs = append(fracs, frac{idx: i, rem: e - float64(base), base: base})
		}
		slices.SortStableFunc(fracs, func(a, b frac) int { return cmp.Compare(b.rem, a.rem) })
		left := budget - assigned
		for k, f := range fracs {
			n := f.base
			if k < left {
				n++
			}
			t.Counts[f.idx][m] = n
		}
	}
	return t
}

// Request is one function invocation materialized from the trace.
type Request struct {
	// ID is a unique sequence number in arrival order.
	ID int64
	// Function is the trace function identifier.
	Function string
	// Model is the inference model the function uses.
	Model string
	// Arrival is the offset from the start of the workload.
	Arrival time.Duration
	// BatchSize is the inference batch size (the evaluation fixes 32).
	BatchSize int
	// Tenant optionally identifies the owning tenant (multi-tenancy
	// extension, §VI); empty for the paper's single-tenant evaluation.
	Tenant string
}

// ModelMapping assigns models to trace functions. The paper maps "each
// unique function in the trace to a unique model in Table I and ensure[s]
// models with different sizes are distributed evenly in the workload".
type ModelMapping map[string]string

// BuildRequests expands a trace into a time-ordered request stream.
// Within each minute, invocations of the different functions are shuffled
// uniformly and assigned arrival offsets spread evenly across the minute,
// matching the paper's "randomly distribute the invocations of different
// functions while maintaining the normalized total invocations per minute".
// The rng makes the workload reproducible. It is the materialized form of
// Stream — workloads too large to hold in memory pull batches from an
// ArrivalStream instead — and expands each minute with the stream's own
// appendMinute, straight into the result slice
// (TestStreamMatchesBuildRequests pins that the sequences are identical).
func (t *Trace) BuildRequests(mapping ModelMapping, batch int, rng *rand.Rand) ([]Request, error) {
	s, err := t.Stream(mapping, batch, rng, 0)
	if err != nil {
		return nil, err
	}
	var reqs []Request
	if s.Total() > 0 {
		reqs = make([]Request, 0, s.Total())
	}
	for s.minute < t.Minutes {
		reqs = s.appendMinute(reqs)
	}
	return reqs, nil
}

// Shape kinds accepted by Shape.Kind.
const (
	// ShapeFlat is the paper's stationary load (the default).
	ShapeFlat = "flat"
	// ShapeDiurnal modulates per-minute load sinusoidally — the daily
	// traffic cycle the elasticity experiments scale against.
	ShapeDiurnal = "diurnal"
	// ShapeBurst overlays periodic load spikes on a flat baseline.
	ShapeBurst = "burst"
)

// Shape describes how aggregate load varies across minutes. The zero
// value is flat (every minute identical), which reproduces the paper's
// stationary workload; the diurnal and burst shapes drive the elasticity
// experiments, where a fixed fleet is provisioned for the peak and an
// autoscaled fleet tracks the curve.
type Shape struct {
	// Kind is ShapeFlat, ShapeDiurnal or ShapeBurst ("" = flat).
	Kind string
	// PeriodMinutes is the diurnal full-cycle length (default: the
	// trace length, one full day-cycle per trace).
	PeriodMinutes int
	// Amplitude is the diurnal modulation depth in [0, 1): minute load
	// swings between (1-Amplitude) and (1+Amplitude) of the mean
	// (default 0.6).
	Amplitude float64
	// PhaseMinutes shifts the diurnal curve; with the default phase the
	// trace starts at the trough, so an autoscaled fleet begins small.
	PhaseMinutes int
	// BurstEvery is the burst period in minutes (default 6).
	BurstEvery int
	// BurstLen is how many minutes each burst lasts (default 1).
	BurstLen int
	// BurstFactor multiplies the baseline during a burst (default 3).
	BurstFactor float64
}

// normalized fills in the documented defaults for a trace of the given
// length.
func (s Shape) normalized(minutes int) (Shape, error) {
	switch s.Kind {
	case "", ShapeFlat:
		s.Kind = ShapeFlat
	case ShapeDiurnal:
		if s.PeriodMinutes <= 0 {
			s.PeriodMinutes = minutes
		}
		if s.Amplitude == 0 {
			s.Amplitude = 0.6
		}
		if s.Amplitude < 0 || s.Amplitude >= 1 {
			return s, fmt.Errorf("trace: diurnal amplitude %g outside [0,1)", s.Amplitude)
		}
	case ShapeBurst:
		if s.BurstEvery <= 0 {
			s.BurstEvery = 6
		}
		if s.BurstLen <= 0 {
			s.BurstLen = 1
		}
		if s.BurstLen > s.BurstEvery {
			return s, fmt.Errorf("trace: burst length %d exceeds period %d", s.BurstLen, s.BurstEvery)
		}
		if s.BurstFactor == 0 {
			s.BurstFactor = 3
		}
		if s.BurstFactor < 1 {
			return s, fmt.Errorf("trace: burst factor %g < 1", s.BurstFactor)
		}
	default:
		return s, fmt.Errorf("trace: unknown shape %q", s.Kind)
	}
	return s, nil
}

// Factor returns minute m's load multiplier (flat = 1). Diurnal minutes
// follow 1 + A*sin(2π(m+phase)/period - π/2) so minute 0 sits at the
// trough; burst minutes m with (m mod BurstEvery) < BurstLen carry
// BurstFactor.
func (s Shape) Factor(m int) float64 {
	switch s.Kind {
	case ShapeDiurnal:
		if s.PeriodMinutes <= 0 {
			return 1
		}
		phase := 2*math.Pi*float64(m+s.PhaseMinutes)/float64(s.PeriodMinutes) - math.Pi/2
		return 1 + s.Amplitude*math.Sin(phase)
	case ShapeBurst:
		if s.BurstEvery > 0 && m%s.BurstEvery < s.BurstLen {
			return s.BurstFactor
		}
		return 1
	default:
		return 1
	}
}

// Budgets expands the shape into per-minute request budgets around the
// mean rpm, for Redistribute. Every minute gets at least
// one request so arrival streams never go fully silent.
func (s Shape) Budgets(minutes, rpm int) ([]int, error) {
	if minutes <= 0 || rpm <= 0 {
		return nil, fmt.Errorf("trace: invalid shape budget %d minutes x %d rpm", minutes, rpm)
	}
	ns, err := s.normalized(minutes)
	if err != nil {
		return nil, err
	}
	out := make([]int, minutes)
	for m := 0; m < minutes; m++ {
		b := int(math.Round(float64(rpm) * ns.Factor(m)))
		if b < 1 {
			b = 1
		}
		out[m] = b
	}
	return out, nil
}

// SynthConfig controls the Azure-shaped synthesizer.
type SynthConfig struct {
	// Functions is the total number of unique functions (the real trace
	// has 46,413).
	Functions int
	// Minutes is the number of per-minute columns to generate.
	Minutes int
	// InvocationsPerMinute is the mean column sum before normalization.
	InvocationsPerMinute int
	// TopShare is the fraction of invocations the TopCount hottest
	// functions receive (paper: 0.56 for the top 15).
	TopShare float64
	// TopCount is the size of the hot set (paper: 15).
	TopCount int
	// Seed makes generation reproducible.
	Seed int64
	// Shape modulates per-minute aggregate load (zero value = flat,
	// the paper's stationary workload).
	Shape Shape
}

// synthesizer is a validated SynthConfig ready to draw from: its
// normalized shape and one popularity weight per function.
type synthesizer struct {
	cfg     SynthConfig
	shape   Shape
	weights []float64
}

// newSynthesizer validates cfg and derives its popularity weights: a
// Zipf-like curve over the hot set scaled so it receives exactly TopShare
// of the mass, with the remainder spread across the long tail so that each
// tail function stays under 0.01% of per-minute invocations, as the paper
// describes.
func newSynthesizer(cfg SynthConfig) (*synthesizer, error) {
	if cfg.Functions <= 0 || cfg.Minutes <= 0 || cfg.InvocationsPerMinute <= 0 {
		return nil, fmt.Errorf("trace: invalid synth config %+v", cfg)
	}
	if cfg.TopCount <= 0 || cfg.TopCount > cfg.Functions {
		return nil, fmt.Errorf("trace: invalid TopCount %d", cfg.TopCount)
	}
	if cfg.TopShare <= 0 || cfg.TopShare >= 1 {
		return nil, fmt.Errorf("trace: TopShare must be in (0,1), got %g", cfg.TopShare)
	}
	// The shape is normalized over the whole trace, however few minutes
	// are drawn: a diurnal period defaults to cfg.Minutes.
	shape, err := cfg.Shape.normalized(cfg.Minutes)
	if err != nil {
		return nil, err
	}

	// Popularity weights: Zipf(s=1) within the hot set, scaled to
	// TopShare; uniform-ish tail with mild Zipf decay for the rest.
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
		// Near-uniform tail with a gentle linear decay (1.5x to 0.5x of
		// the mean): the paper reports every tail function individually
		// contributes <0.01% of invocations, i.e. the tail is flat.
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
		// No tail: renormalize the hot set to 1.
		for i := range weights {
			weights[i] /= cfg.TopShare
		}
	}
	return &synthesizer{cfg: cfg, shape: shape, weights: weights}, nil
}

// draw makes the synthesizer's Poisson draws for minutes [0, minutes) and
// hands each to put(i, m, count). The order is minute-major,
// function-minor: the draw order is part of the seed's meaning. A draw's
// threshold exp(-mean) is recomputed for every function only when a
// minute's shape factor differs from the previous minute's — once per
// trace for a flat shape, at each edge of a burst, every minute of a
// diurnal curve — and each draw sees the same float64 mean, so the same
// threshold, as if it computed its own.
func (s *synthesizer) draw(minutes int, put func(i, m, count int)) {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	rpm := float64(s.cfg.InvocationsPerMinute)
	limits := make([]float64, len(s.weights))
	factor := math.NaN() // equal to no factor: minute 0 fills limits
	for m := 0; m < minutes; m++ {
		if f := s.shape.Factor(m); f != factor {
			factor = f
			for i, w := range s.weights {
				mean := w * rpm * factor
				limits[i] = math.Exp(-mean)
			}
		}
		for i, w := range s.weights {
			mean := w * rpm * factor
			put(i, m, poisson(rng, mean, limits[i]))
		}
	}
}

// Synthesize builds a trace matching cfg: the popularity curve
// newSynthesizer describes, with counts varying Poisson-like across
// minutes.
func Synthesize(cfg SynthConfig) (*Trace, error) {
	s, err := newSynthesizer(cfg)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		Functions: synthNames(cfg.Functions, func(k int) int { return k }),
		Counts:    newRows(cfg.Functions, cfg.Minutes),
		Minutes:   cfg.Minutes,
	}
	s.draw(cfg.Minutes, func(i, m, count int) { t.Counts[i][m] = count })
	return t, nil
}

// WorkingSet returns the paper's working set: the n functions of
// Synthesize(cfg) with the most invocations over its first minutes
// minutes, hottest first, equal totals in row order. minutes is clamped to
// [0, cfg.Minutes] and n to [0, cfg.Functions], and an invalid cfg is
// Synthesize's error. The names are exactly those of the staged pipeline —
// truncate the synthesized trace to its first minutes, rank its rows by
// total with a stable sort, keep the first n — and the seed's draws are
// the same ones, but no count is stored: WorkingSet holds O(Functions)
// totals and formats only the n names it returns, out of one buffer.
func WorkingSet(cfg SynthConfig, minutes, n int) ([]string, error) {
	s, err := newSynthesizer(cfg)
	if err != nil {
		return nil, err
	}
	totals := make([]int64, cfg.Functions)
	s.draw(min(max(minutes, 0), cfg.Minutes), func(i, _, count int) { totals[i] += int64(count) })
	n = min(max(n, 0), cfg.Functions)
	if n == 0 {
		return nil, nil
	}
	top := topRanked(totals, n)
	return synthNames(n, func(k int) int { return top[k].idx }), nil
}

// synthNames returns n synthesizer names, the k-th being "func-%05d" of
// row(k), as substrings of one buffer: naming n functions costs the name
// slice and the buffer, not a string per name. (Any one name therefore
// keeps the whole buffer reachable — ten bytes per function.)
func synthNames(n int, row func(k int) int) []string {
	const prefix, width = "func-", 5
	var b strings.Builder
	b.Grow(n * (len(prefix) + width)) // exact below 100,000 functions
	names := make([]string, n)
	var digits [20]byte
	for k := range names {
		start := b.Len()
		d := strconv.AppendInt(digits[:0], int64(row(k)), 10)
		b.WriteString(prefix)
		for j := len(d); j < width; j++ {
			b.WriteByte('0')
		}
		b.Write(d)
		// String is a view of the bytes written so far, not a copy; should
		// the buffer grow past the estimate, names cut earlier keep the
		// old one alive and stay valid.
		names[k] = b.String()[start:]
	}
	return names
}

// poisson draws a Poisson variate of the given mean; l is exp(-mean),
// which the caller computes once per distinct mean. For large means it
// falls back to a normal approximation to stay O(1).
func poisson(rng *rand.Rand, mean, l float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// ParseCSV reads the Azure trace CSV format: a header row, then one row per
// function: "HashFunction,1,2,...,1440" where numbered columns hold
// per-minute invocation counts. Columns other than the function hash and
// minute counts (e.g. HashOwner, HashApp, Trigger in the published
// dataset) are skipped by name.
func ParseCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	header := strings.Split(sc.Text(), ",")
	fnCol := -1
	minuteCols := make([]int, 0, len(header))
	for i, h := range header {
		h = strings.TrimSpace(h)
		if _, err := strconv.Atoi(h); err == nil {
			minuteCols = append(minuteCols, i)
			continue
		}
		if strings.EqualFold(h, "HashFunction") || strings.EqualFold(h, "Function") {
			fnCol = i
		}
	}
	if fnCol < 0 {
		return nil, fmt.Errorf("trace: CSV header lacks a HashFunction column")
	}
	if len(minuteCols) == 0 {
		return nil, fmt.Errorf("trace: CSV header lacks minute columns")
	}
	t := &Trace{Minutes: len(minuteCols)}
	line := 1
	for sc.Scan() {
		line++
		row := strings.Split(sc.Text(), ",")
		if len(row) != len(header) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(row), len(header))
		}
		t.Functions = append(t.Functions, strings.TrimSpace(row[fnCol]))
		counts := make([]int, len(minuteCols))
		for k, col := range minuteCols {
			v, err := strconv.Atoi(strings.TrimSpace(row[col]))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d col %d: %v", line, col, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("trace: line %d col %d: negative count", line, col)
			}
			counts[k] = v
		}
		t.Counts = append(t.Counts, counts)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, t.Validate()
}

// WriteCSV emits the trace in the Azure CSV format.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("HashFunction"); err != nil {
		return err
	}
	for m := 1; m <= t.Minutes; m++ {
		fmt.Fprintf(bw, ",%d", m)
	}
	bw.WriteByte('\n')
	for i, fn := range t.Functions {
		bw.WriteString(fn)
		for _, c := range t.Counts[i] {
			fmt.Fprintf(bw, ",%d", c)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
