package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Config parameterizes the Litmus assessor. The zero value is usable:
// every field falls back to the documented default.
type Config struct {
	// Alpha is the two-sided significance level of the rank-order test
	// (default 0.05).
	Alpha float64
	// SampleFraction is the fraction of the control group drawn per
	// sampling iteration; the paper requires k > N/2 (default 2/3).
	// Values ≤ 0.5 are rejected by Validate.
	SampleFraction float64
	// Iterations is the number of uniform-sampling iterations whose
	// forecasts are median-aggregated (default 50).
	Iterations int
	// Seed drives the sampling; fixed for reproducible assessments
	// (default 1).
	Seed int64
	// MinControls is the smallest usable control group (default 2).
	MinControls int
	// EffectFloor is a practical-significance floor in KPI units: shifts
	// with |shift| below it are reported as NoImpact even when
	// statistically significant. Zero (default) disables the floor,
	// matching the paper's purely statistical decision.
	EffectFloor float64
	// Aggregation selects how per-iteration forecasts are combined
	// (default AggregateMedian, the paper's choice; AggregateMean exists
	// for ablation — it forfeits robustness to contaminated samples).
	Aggregation Aggregation
	// Test selects the two-sample test on the forecast differences
	// (default TestFlignerPolicello, the paper's robust rank-order test;
	// TestMannWhitney and TestWelch exist for ablation).
	Test TestKind
	// Workers bounds the goroutines of each factor group's two fan-outs
	// (factor_group.go): over its sampling iterations, then over its
	// elements' aggregation and rank tests (default
	// runtime.GOMAXPROCS(0); 1 forces sequential execution). Outputs are
	// bit-identical for every worker count: each iteration draws from a
	// private RNG derived from (Seed, iteration), and results are
	// gathered in iteration order.
	Workers int
}

// Aggregation selects the cross-iteration forecast combiner.
type Aggregation int

// Forecast aggregation choices.
const (
	// AggregateMedian is the paper's robust per-timepoint median (Eq. 4).
	AggregateMedian Aggregation = iota
	// AggregateMean is the non-robust ablation variant.
	AggregateMean
)

func (a Aggregation) String() string {
	if a == AggregateMean {
		return "mean"
	}
	return "median"
}

// TestKind selects the before/after two-sample test.
type TestKind int

// Two-sample test choices.
const (
	// TestFlignerPolicello is the paper's robust rank-order test.
	TestFlignerPolicello TestKind = iota
	// TestMannWhitney is the classic rank-sum test (assumes equal
	// variances under the null).
	TestMannWhitney
	// TestWelch is the parametric unequal-variance t-test.
	TestWelch
)

func (t TestKind) String() string {
	switch t {
	case TestMannWhitney:
		return "mann-whitney"
	case TestWelch:
		return "welch"
	default:
		return "fligner-policello"
	}
}

// Defaults for Config fields.
const (
	DefaultAlpha          = 0.05
	DefaultSampleFraction = 2.0 / 3.0
	DefaultIterations     = 50
	DefaultMinControls    = 2
)

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.SampleFraction == 0 {
		c.SampleFraction = DefaultSampleFraction
	}
	if c.Iterations == 0 {
		c.Iterations = DefaultIterations
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinControls == 0 {
		c.MinControls = DefaultMinControls
	}
	if c.Workers == 0 {
		c.Workers = DefaultWorkers()
	}
	return c
}

// Validate reports configuration errors: significance level outside
// (0,1), sample fraction not in (0.5, 1], or negative knobs.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("core: alpha %v outside (0,1)", c.Alpha)
	}
	if c.SampleFraction <= 0.5 || c.SampleFraction > 1 {
		return fmt.Errorf("core: sample fraction %v outside (0.5, 1] — the paper requires k > N/2", c.SampleFraction)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: iterations %d < 1", c.Iterations)
	}
	if c.EffectFloor < 0 {
		return fmt.Errorf("core: negative effect floor %v", c.EffectFloor)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	return nil
}

// Assessor runs the Litmus robust spatial regression.
type Assessor struct {
	cfg Config
	// obs is the optional observability scope; nil (the default) is the
	// zero-overhead fast path. See WithObserver.
	obs *obs.Scope
	// call holds the oversized sample shapes drawn so far in the call of
	// an assessor ForCall derived; nil otherwise. See samplesFor.
	call *callSamples
}

// NewAssessor returns an assessor with cfg (zero fields defaulted). It
// returns an error for invalid configurations.
func NewAssessor(cfg Config) (*Assessor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Assessor{cfg: cfg.withDefaults()}, nil
}

// MustNewAssessor is NewAssessor for known-good configurations.
func MustNewAssessor(cfg Config) *Assessor {
	a, err := NewAssessor(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the effective (defaulted) configuration.
func (a *Assessor) Config() Config { return a.cfg }

// WithObserver returns an assessor that records spans and metrics into
// scope; the receiver is unchanged, so one assessor can serve
// instrumented and uninstrumented callers concurrently. Instrumentation
// is observational only: assessments are bit-identical with any scope —
// the (Seed, iteration) RNG contract is untouched — and a nil scope
// returns the receiver itself, preserving the zero-overhead fast path.
func (a *Assessor) WithObserver(scope *obs.Scope) *Assessor {
	if scope == nil {
		return a
	}
	return &Assessor{cfg: a.cfg, obs: scope}
}

// ForCall returns an assessor for one call that assesses several factor
// groups (an AssessChange or AssessBatch of the pipeline). It records
// into scope as WithObserver does (into the receiver's scope when scope
// is nil), and it draws each sample shape too large for the process-wide
// sample cache at most once, keeping the draws until the caller drops
// it: callers drop it when the call returns, so nothing outlives the
// call.
func (a *Assessor) ForCall(scope *obs.Scope) *Assessor {
	if scope == nil {
		scope = a.obs
	}
	return &Assessor{cfg: a.cfg, obs: scope, call: &callSamples{}}
}

// Observer returns the scope the assessor records into (nil when
// uninstrumented).
func (a *Assessor) Observer() *obs.Scope { return a.obs }

// maxLeverage caps hat-matrix diagonals in the leave-one-out adjustment;
// a row with leverage near 1 would otherwise blow its residual up
// arbitrarily.
const maxLeverage = 0.9

// AssessElement assesses the impact of a change at time changeAt on one
// study element, given its KPI series and the control group panel on the
// same index. It implements §3.2 of the paper:
//
//  1. split study series Y and control panel X into before/after windows;
//  2. for each of Iterations uniform samples of k = ⌈f·N⌉ control
//     columns (the same sample used before and after), fit Y_b = βX_b by
//     least squares (with intercept) and forecast both windows;
//  3. aggregate forecasts by the per-timepoint median across iterations;
//  4. compute forecast differences Y − median(Y′) before and after;
//  5. compare them with the Fligner–Policello robust rank-order test.
//
// A significant increase of the forecast difference after the change is a
// relative increase of the KPI at the study element; KPI direction
// semantics translate it into improvement or degradation.
func (a *Assessor) AssessElement(elementID string, study timeseries.Series, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI) (ElementResult, error) {
	return a.AssessElementContext(context.Background(), elementID, study, controls, changeAt, metric)
}

// AssessElementContext is AssessElement honoring ctx: cancellation (or a
// deadline) is checked on entry and between sampling iterations, so a
// canceled assessment stops its workers promptly and returns ctx.Err().
// A background (non-cancelable) context takes the exact code path of
// AssessElement — the Done channel is nil, so the per-iteration check is
// skipped entirely and results stay bit-identical. The element runs as a
// one-element factor group (factor_group.go), so an instrumented call
// records an assess-group span over its sampling iterations and the
// element's assess-element span.
func (a *Assessor) AssessElementContext(ctx context.Context, elementID string, study timeseries.Series, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI) (ElementResult, error) {
	studies := timeseries.NewPanel(study.Index)
	studies.Add(elementID, study)
	g, results, _, err := a.assessGroup(ctx, controls, changeAt, []GroupMember{{Studies: studies, KPI: metric}})
	if err != nil {
		return ElementResult{}, err
	}
	err = g.elems[0].err
	g.release()
	return results[0], err
}

// iterFit is one sampling iteration's output: the before/after forecasts
// (backed by a listed fitArena; see scratch.go) and the fit quality.
type iterFit struct {
	fb, fa []float64
	r2     float64
	ok     bool
}

// adjustLOO replaces the fitted values at the fitted rows with
// leave-one-out forecasts y − e/(1−h), capping leverages at maxLeverage.
// hs is read-only, so one leverage vector can serve many elements.
func adjustLOO(fb, ybFit []float64, fitRows []int, hs []float64) {
	for fi, r := range fitRows {
		h := hs[fi]
		if h > maxLeverage {
			h = maxLeverage
		}
		fb[r] = ybFit[fi] - (ybFit[fi]-fb[r])/(1-h)
	}
}

// rSquaredAtRows is linalg.RSquared with the prediction read from the
// already-computed full-window forecast at the fitted rows — the same
// arithmetic in the same order, minus the extra matrix–vector product.
func rSquaredAtRows(fb []float64, rows []int, y []float64) float64 {
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssr, sst float64
	for i, v := range y {
		r := v - fb[rows[i]]
		ssr += r * r
		d := v - mean
		sst += d * d
	}
	if sst == 0 {
		return 0
	}
	return 1 - ssr/sst
}

// finishElement turns the element's per-iteration fits into its
// verdict: aggregate forecasts, forecast differences, the rank-order test
// with its autocorrelation correction, and the impact decision. It reads
// the ok slots of the fits of e's source (e itself, or its twin), in
// iteration order, in place in their arena and works in s, the finishing
// worker's unit working set, so it allocates nothing. The source's
// medians are computed once, by the first of it and its twins to finish,
// into the source's arena, where the others read them; the forecast
// differences go to s.diff, before window then after window.
func (a *Assessor) finishElement(sc *obs.Scope, s *unitScratch, e *groupElement) (ElementResult, error) {
	src := e.source()
	fits := src.fits.fits
	ok := 0
	for it := range fits {
		if fits[it].ok {
			ok++
		}
	}
	sc.Counter(obs.MetricIterationsFailed).Add(int64(len(fits) - ok))
	if ok == 0 {
		return ElementResult{}, fmt.Errorf("%w (%d attempted)", ErrAllIterationsFailed, len(fits))
	}

	agg := sc.Child(obs.SpanAggregate)
	yBefore, yAfter := e.yBefore, e.yAfter
	lenB := yBefore.Len()
	s.col = growFloats(s.col, ok)
	src.medOnce.Do(func() { a.medians(s, src.fits, ok) })
	med := src.fits.med
	s.diff = growFloats(s.diff, len(med))
	for i, y := range yBefore.Values {
		s.diff[i] = y - med[i]
	}
	for i, y := range yAfter.Values {
		s.diff[lenB+i] = y - med[lenB+i]
	}
	agg.End()

	s.cleanB, s.cleanA = finiteInto(s.cleanB, s.diff[:lenB]), finiteInto(s.cleanA, s.diff[lenB:])
	cleanB, cleanA := s.cleanB, s.cleanA
	rank := sc.Child(obs.SpanRankTest)
	s.rank = growFloats(s.rank, 2*(len(cleanB)+len(cleanA)))
	test, err := a.runTest(cleanB, cleanA, s.rank)
	if err != nil {
		rank.End()
		// %w keeps the stats sentinel (ErrSampleTooSmall/ErrDegenerate)
		// reachable for ReasonOf alongside the engine-level one.
		return ElementResult{}, fmt.Errorf("%w: %v test failed: %w", ErrDegenerateStatistics, a.cfg.Test, err)
	}
	// The forecast differences retain serial dependence (whatever share of
	// the regional process the regression did not capture). Rank tests
	// assume exchangeable observations, so positive autocorrelation
	// inflates the statistic; shrink it by the Bartlett effective-sample-
	// size factor √((1−ρ)/(1+ρ)) estimated from the pooled windows.
	if rho := pooledLag1(cleanB, cleanA); rho > 0 {
		test.Statistic *= math.Sqrt((1 - rho) / (1 + rho))
		test.P = stats.TwoSidedP(test.Statistic)
	}
	rank.End()
	sc.Histogram(obs.MetricPValue, obs.PValueBuckets).Observe(test.P)
	// cleanA and cleanB are dead after these medians, so the in-place
	// (quickselect) form is safe; s.diff keeps the original order.
	shift := stats.MedianInPlace(cleanA) - stats.MedianInPlace(cleanB)
	dir := test.Direction(a.cfg.Alpha)
	if a.cfg.EffectFloor > 0 && math.Abs(shift) < a.cfg.EffectFloor {
		dir = 0
	}
	// The ok fits' R² values, in iteration order, in the column buffer.
	r2s := s.col[:0]
	for it := range fits {
		if fits[it].ok {
			r2s = append(r2s, fits[it].r2)
		}
	}

	return ElementResult{
		Verdict: Verdict{
			Impact:    kpi.ImpactOfShift(e.metric, dir),
			Statistic: test.Statistic,
			P:         test.P,
			Shift:     shift,
		},
		ElementID: e.id,
		KPI:       e.metric,
		FitR2:     stats.MedianInPlace(r2s),
	}, nil
}

// AssessGroup assesses every study element against the shared control
// panel and summarizes by majority vote. Elements whose individual
// assessment fails (e.g. a series too short) are skipped; the error is
// returned only if every element fails.
func (a *Assessor) AssessGroup(studies *timeseries.Panel, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI) (GroupResult, error) {
	return a.AssessGroupContext(context.Background(), studies, controls, changeAt, metric)
}

// AssessGroupContext is AssessGroup honoring ctx: cancellation is
// checked between sampling iterations, and a canceled assessment
// returns ctx.Err(). A background context is the nil-cost path of
// AssessGroup.
func (a *Assessor) AssessGroupContext(ctx context.Context, studies *timeseries.Panel, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI) (GroupResult, error) {
	res, errs, _ := a.AssessFactorGroup(ctx, controls, changeAt, []GroupMember{{Studies: studies, KPI: metric}})
	return res[0], errs[0]
}

// runTest applies the configured two-sample test. The Fligner–Policello
// test works in buf, of 2·(len(before)+len(after)) values.
func (a *Assessor) runTest(before, after, buf []float64) (stats.TestResult, error) {
	switch a.cfg.Test {
	case TestMannWhitney:
		return stats.MannWhitney(before, after)
	case TestWelch:
		return stats.WelchT(before, after)
	default:
		return stats.FlignerPolicelloBuf(before, after, buf)
	}
}

// sampleSize returns k = ⌈f·N⌉ capped so the regression does not overfit
// the pre-change window: at least three observations per coefficient
// (including the intercept). Overfitting would deflate the before-change
// forecast differences and manufacture false positives. When the cap
// binds, the paper's k > N/2 rule is relaxed — operationally Litmus runs
// on hourly KPIs (1–2 week windows, hundreds of points) where it never
// binds.
func (a *Assessor) sampleSize(n, tBefore int) int {
	k := int(math.Ceil(a.cfg.SampleFraction * float64(n)))
	if k > n {
		k = n
	}
	if maxK := tBefore/3 - 1; k > maxK {
		k = maxK
	}
	return k
}

// sampleColumns draws k distinct column indexes uniformly from [0, n).
// It consumes exactly the draws rng.Perm(n) would (see permInto), so the
// cached samples of scratch.go reproduce it bit-for-bit.
func sampleColumns(rng *rand.Rand, n, k int) []int {
	perm := make([]int, n)
	permInto(rng, perm)
	cols := perm[:k]
	sort.Ints(cols)
	return cols
}

// medians writes into f.med the combined forecasts of f's ok fits (ok
// of them): the before window's, then the after window's. s.col must
// hold ok values.
func (a *Assessor) medians(s *unitScratch, f *fitArena, ok int) {
	// The ok fits' before-window forecasts, then their after-window ones.
	rows := s.rows[:0]
	for it := range f.fits {
		if f.fits[it].ok {
			rows = append(rows, f.fits[it].fb)
		}
	}
	for it := range f.fits {
		if f.fits[it].ok {
			rows = append(rows, f.fits[it].fa)
		}
	}
	s.rows = rows
	lenB := len(f.fits[0].fb)
	a.aggregate(f.med[:lenB], rows[:ok], s.col)
	a.aggregate(f.med[lenB:], rows[ok:], s.col)
	clear(rows) // the pooled scratch must not keep the arena reachable
}

// aggregate writes into out, per timepoint, the combination across
// forecasts (one window of every ok fit, in iteration order): the
// median, or the mean of the non-robust ablation. col is scratch of
// len(forecasts) values, refilled at every timepoint, so the quickselect
// permutation is harmless and the full sort is avoided.
func (a *Assessor) aggregate(out []float64, forecasts [][]float64, col []float64) {
	col = col[:len(forecasts)]
	for i := range out {
		for j, f := range forecasts {
			col[j] = f[i]
		}
		if a.cfg.Aggregation == AggregateMean {
			var s float64
			for _, v := range col {
				s += v
			}
			out[i] = s / float64(len(col))
			continue
		}
		out[i] = stats.MedianInPlace(col)
	}
}

// pooledLag1 estimates the lag-1 autocorrelation of the forecast
// differences as the sample-size-weighted average over the two windows
// (each centered separately, so the level shift under test does not
// masquerade as autocorrelation).
func pooledLag1(b, a []float64) float64 {
	wb, wa := float64(len(b)), float64(len(a))
	if wb+wa == 0 {
		return 0
	}
	return (stats.Lag1Autocorrelation(b)*wb + stats.Lag1Autocorrelation(a)*wa) / (wb + wa)
}

// finiteRows returns the indices of finite values.
func finiteRows(xs []float64) []int {
	out := make([]int, 0, len(xs))
	for i, v := range xs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, i)
		}
	}
	return out
}

// finiteInto copies the finite values of xs, in order, into buf's
// storage (grown to len(xs) when short) and returns them.
func finiteInto(buf, xs []float64) []float64 {
	out := growFloats(buf, len(xs))[:0]
	for _, v := range xs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}
