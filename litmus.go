// Package litmus is an open-source reproduction of "Robust Assessment of
// Changes in Cellular Networks" (Mahimkar et al., ACM CoNEXT 2013): a
// system for deciding whether a network change — a configuration change,
// software upgrade or feature activation trialed as a First Field
// Application (FFA) — improved, degraded or left unchanged the service
// performance of the elements it touched, in the presence of external
// factors (foliage seasonality, storms, holidays, unrelated network
// events) that move the KPIs of entire regions at once.
//
// The core method is a robust spatial regression: the study group
// (elements with the change) is compared against a control group
// (similar elements without it) by learning, before the change, how well
// the control group forecasts each study element; forecasting the
// post-change window; and testing the forecast differences before vs
// after with a robust rank-order test. Uniform sub-sampling of the
// control group with median aggregation makes the forecast robust to a
// small number of contaminated controls.
//
// # Quick start
//
//	assessor := litmus.MustNewAssessor(litmus.Config{})
//	res, err := assessor.AssessElement("tower-1", studySeries, controlPanel,
//	    changeTime, kpi.VoiceRetainability)
//	if err != nil { ... }
//	fmt.Println(res.Impact) // improvement | degradation | no-impact
//
// The subpackages provide the full system: internal/netsim (topology),
// internal/gen (KPI synthesis), internal/control (control-group
// selection), internal/changelog (change management log), internal/eval
// (the paper's evaluation harness) and internal/figures (every figure's
// data). This root package re-exports the surface a downstream user
// needs.
package litmus

import (
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// Re-exported core types: the assessor and its configuration.
type (
	// Config parameterizes the Litmus assessor; the zero value uses the
	// paper's defaults (α = 0.05, sample fraction 2/3, 50 iterations)
	// and a worker pool sized to runtime.GOMAXPROCS(0). Config.Workers
	// bounds the concurrency of each factor group's sampling iterations
	// and of its per-element aggregation and rank tests; every worker
	// count produces bit-identical results, because each sampling
	// iteration draws from a private RNG derived from (Seed, iteration).
	Config = core.Config
	// Assessor runs the robust spatial regression assessment.
	Assessor = core.Assessor
	// Verdict is an assessment outcome with its statistical evidence.
	Verdict = core.Verdict
	// ElementResult is the per-study-element assessment.
	ElementResult = core.ElementResult
	// GroupResult is a voted assessment across a study group.
	GroupResult = core.GroupResult
	// DiDStat is one control pair's Difference-in-Differences evidence.
	DiDStat = core.DiDStat
)

// Degradation taxonomy (see internal/core/errors.go): machine-readable
// reasons for the parts of an assessment that could not be computed.
type (
	// Reason is the machine-readable degradation code carried by
	// failures in partial results.
	Reason = core.Reason
	// Failure is one element-scoped degradation inside a GroupResult.
	Failure = core.Failure
)

// Typed assessment errors, re-exported for errors.Is matching.
var (
	// ErrInsufficientControls: control group below MinControls, or a
	// control selection that matched too few candidates.
	ErrInsufficientControls = core.ErrInsufficientControls
	// ErrShortWindow: too few observations in a before/after window.
	ErrShortWindow = core.ErrShortWindow
	// ErrRankDeficient: design rank deficient through every fallback.
	ErrRankDeficient = core.ErrRankDeficient
	// ErrNoData: the series provider had no data for an element.
	ErrNoData = core.ErrNoData
)

// ReasonOf classifies an assessment error into its degradation Reason
// (see core.ReasonOf).
func ReasonOf(err error) Reason { return core.ReasonOf(err) }

// IsDegradation reports whether err is an expected data-caused failure
// the engine degrades through, as opposed to a bug or cancellation.
func IsDegradation(err error) bool { return core.IsDegradation(err) }

// Re-exported KPI vocabulary.
type (
	// KPI identifies a service-quality metric.
	KPI = kpi.KPI
	// Impact is the three-way assessment outcome.
	Impact = kpi.Impact
)

// Impact values.
const (
	NoImpact    = kpi.NoImpact
	Improvement = kpi.Improvement
	Degradation = kpi.Degradation
)

// Re-exported time-series types.
type (
	// Series is a regularly sampled KPI time-series.
	Series = timeseries.Series
	// Panel is a set of element series on a shared time grid.
	Panel = timeseries.Panel
	// Index is the time grid of a Series or Panel.
	Index = timeseries.Index
)

// NewIndex builds a regular time grid (see timeseries.NewIndex).
func NewIndex(start time.Time, step time.Duration, n int) Index {
	return timeseries.NewIndex(start, step, n)
}

// NewSeries wraps values in a Series on the given index.
func NewSeries(ix Index, values []float64) Series {
	return timeseries.NewSeries(ix, values)
}

// NewPanel returns an empty panel on the given index.
func NewPanel(ix Index) *Panel { return timeseries.NewPanel(ix) }

// NewAssessor returns a Litmus assessor (see core.NewAssessor).
func NewAssessor(cfg Config) (*Assessor, error) { return core.NewAssessor(cfg) }

// MustNewAssessor is NewAssessor for known-good configurations.
func MustNewAssessor(cfg Config) *Assessor { return core.MustNewAssessor(cfg) }

// DefaultWorkers returns the default assessment worker-pool size:
// runtime.GOMAXPROCS(0). Set Config.Workers to 1 to force sequential
// execution — the results are bit-identical either way.
func DefaultWorkers() int { return core.DefaultWorkers() }

// Control-group quality diagnostics (see core.DiagnoseControls).
type (
	// GroupDiagnostics summarizes control-group quality for one study
	// element.
	GroupDiagnostics = core.GroupDiagnostics
	// ControlDiagnostic is one control element's quality report.
	ControlDiagnostic = core.ControlDiagnostic
)

// DiagnoseControls evaluates control-group quality on the pre-change
// window — run it before trusting an assessment with an ad-hoc control
// group.
func DiagnoseControls(study Series, controls *Panel, changeAt time.Time) (GroupDiagnostics, error) {
	return core.DiagnoseControls(study, controls, changeAt)
}

// DiagnoseControlsObserved is DiagnoseControls recording a
// control-diagnostics span and flagged-control counters into scope (nil
// scope: identical to DiagnoseControls).
func DiagnoseControlsObserved(scope *Scope, study Series, controls *Panel, changeAt time.Time) (GroupDiagnostics, error) {
	return core.DiagnoseControlsObserved(scope, study, controls, changeAt)
}

// StudyOnly runs the study-group-only baseline analysis (see
// core.StudyOnly).
func StudyOnly(study Series, changeAt time.Time, metric KPI, alpha float64) (Verdict, error) {
	return core.StudyOnly(study, changeAt, metric, alpha)
}

// DiD runs the Difference-in-Differences baseline (see core.DiD).
func DiD(study Series, controls *Panel, changeAt time.Time, metric KPI, alpha float64) (Verdict, []DiDStat, error) {
	return core.DiD(study, controls, changeAt, metric, alpha)
}

// Predicate re-exports the control-group selection predicate interface;
// combine the constructors in internal/control (SameZip, SameParent,
// WithinKm, And, Or, ...).
type Predicate = control.Predicate

// Selector re-exports the domain-knowledge-guided control group selector.
type Selector = control.Selector

// Observability surface (see internal/obs). A Scope threads structured
// tracing and metrics through the assessment path: attach one to
// Pipeline.Obs, Selector.Obs or Assessor.WithObserver and every stage —
// control selection, panel assembly, per-element regression, sampling
// batches, the rank test — records a span plus counters/histograms. A
// nil Scope is the zero-overhead fast path, and instrumented
// assessments are bit-identical to uninstrumented ones.
type (
	// Scope is a position in a trace tree plus a metrics registry handle.
	Scope = obs.Scope
	// Span is one timed node of an exported trace tree.
	Span = obs.Span
	// MetricsRegistry is the concurrency-safe counter/gauge/histogram
	// registry with Prometheus-text and expvar publication.
	MetricsRegistry = obs.Registry
)

// NewScope returns a live observability scope rooted at a span named
// name, recording metrics into reg (nil reg: tracing only).
func NewScope(name string, reg *MetricsRegistry) *Scope { return obs.New(name, reg) }

// NewMetricsRegistry returns an empty metrics registry (see
// MetricsRegistry).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
