package litmus

import (
	"context"
	"fmt"
	"time"
	"unsafe"

	"repro/internal/changelog"
	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// SeriesProvider supplies KPI time-series per network element — the
// interface between Litmus and whatever performance-measurement pipeline
// feeds it. Without a live feed, a synthetic internal/gen Generator
// serves through ProviderFunc, as the assessment service's worlds do
// (internal/serve/world.go).
type SeriesProvider interface {
	// Series returns the KPI series for the element, or false if the
	// element has no data for that KPI.
	Series(elementID string, metric KPI) (Series, bool)
}

// Decision is the go / no-go outcome for the wide-scale rollout of a
// change (paper §1: the FFA "go or no-go" decision).
type Decision int

// Rollout decisions.
const (
	// NoGo means at least one KPI showed a relative degradation; the
	// change should be rolled back or re-tested.
	NoGo Decision = iota
	// Hold means no degradation was seen but no improvement either; more
	// evidence is needed before a network-wide rollout.
	Hold
	// Go means at least one KPI improved and none degraded.
	Go
)

func (d Decision) String() string {
	switch d {
	case NoGo:
		return "no-go"
	case Hold:
		return "hold"
	case Go:
		return "go"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// ParseDecision is the inverse of Decision.String, so reports and JSON
// documents that render decisions as text round-trip back into typed
// values.
func ParseDecision(s string) (Decision, error) {
	switch s {
	case "no-go":
		return NoGo, nil
	case "hold":
		return Hold, nil
	case "go":
		return Go, nil
	default:
		return 0, fmt.Errorf("litmus: unknown decision %q (want no-go, hold or go)", s)
	}
}

// ChangeAssessment is the full Litmus report for one change.
type ChangeAssessment struct {
	// Change is the assessed change record.
	Change *changelog.Change
	// ControlGroup lists the selected control element IDs.
	ControlGroup []string
	// PerKPI holds the voted group result per assessed KPI. KPIs that
	// could not be assessed at all are absent here and explained in
	// Failures.
	PerKPI map[KPI]GroupResult
	// Decision is the derived go/no-go recommendation, computed over the
	// KPIs that assessed.
	Decision Decision
	// Degraded reports a partial assessment: some element or KPI could
	// not be assessed and Failures explains why. The decision stands on
	// the evidence that survived.
	Degraded bool
	// Failures lists the isolated degradations in deterministic order
	// (KPI input order, elements within a KPI in input order).
	Failures []AssessmentFailure
}

// AssessmentFailure records one isolated degradation in a change
// assessment: the KPI it occurred under and, when the failure is
// element-scoped, the element (empty for a KPI-level failure such as a
// control group with no usable data).
type AssessmentFailure struct {
	KPI     KPI
	Element string
	Reason  core.Reason
	Detail  string
}

// Pipeline wires the full assessment flow of the paper: change record →
// control-group selection (domain-knowledge-guided, excluding the
// change's causal impact scope) → per-element robust spatial regression →
// per-KPI voting → go/no-go recommendation.
type Pipeline struct {
	// Network is the element topology.
	Network *netsim.Network
	// Provider supplies KPI series.
	Provider SeriesProvider
	// Assessor runs the core algorithm; nil uses defaults.
	Assessor *Assessor
	// ControlPredicate selects control candidates; nil uses
	// same-kind-same-region.
	ControlPredicate Predicate
	// MaxControls caps the control group size (default 100, §3.3).
	MaxControls int
	// Obs is the optional observability scope (see internal/obs and the
	// root NewScope/NewMetricsRegistry helpers): AssessChange records an
	// assess-change span with control-select, panel-assembly and per-KPI
	// assessment stages beneath it, plus decision counters. Nil (the
	// default) is the documented zero-overhead fast path; assessments are
	// bit-identical either way.
	Obs *obs.Scope
}

// AssessChange assesses a change over the given KPIs using windows of
// windowDays before and after the change time.
func (p *Pipeline) AssessChange(change *changelog.Change, kpis []KPI, windowDays int) (*ChangeAssessment, error) {
	return p.AssessChangeContext(context.Background(), change, kpis, windowDays)
}

// AssessChangeContext is AssessChange honoring ctx: cancellation (or a
// deadline) propagates into every per-KPI group assessment and from
// there between sampling iterations, so a canceled assessment stops its
// workers promptly and returns ctx.Err(). A background context takes
// the exact AssessChange path and produces bit-identical results.
//
// A single change is the one-entry case of AssessBatch: the same phases
// run with the entry recording straight into the assess-change span
// (control-select, panel-assembly and one assess-group per KPI beneath
// it) and each KPI a factor group of its own, so no batch span or
// counter appears.
func (p *Pipeline) AssessChangeContext(ctx context.Context, change *changelog.Change, kpis []KPI, windowDays int) (*ChangeAssessment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := p.Obs.Child(obs.SpanAssessChange)
	defer sc.End()
	sc.SetAttr("kpis", len(kpis))
	out, err := p.assess(ctx, sc, false, []BatchEntry{{Change: change}}, kpis, windowDays)
	if err != nil {
		return nil, err
	}
	return out.Results[0], out.Errors[0]
}

// panelListBytes bounds the list of assembled panels. A call lists its
// panels only once its factor groups are assessed, so a batch needs room
// for all of them: measured peaks (seed 1, 8 s runs) 179,200 B (400
// panels, a 100-entry batch's four per entry) on changelog-batch and
// 3,584 B (8) on fresh-world, shared-world and routed-mixed. A
// 1,000-entry batch's panels do not fit, and most are allocated as before.
const panelListBytes = 256 << 10

// panelList is the process-wide list of the panels pipeline calls
// assemble: a call takes its study and control panels from it and lists
// them again once its factor groups are assessed (assess). Only panels
// the pipeline assembled go on it, never a caller's.
var panelList = freelist.New(panelListBytes, func(p *Panel) int {
	return int(unsafe.Sizeof(*p)) + 40*p.Cap() // an ID and a column slice per column
})

// takePanel returns an empty panel on ix with room for n columns.
func takePanel(ix Index, n int) *Panel {
	pan, ok := panelList.Take()
	if !ok {
		pan = NewPanel(ix)
	}
	pan.Reset(ix)
	pan.Grow(n)
	return pan
}

// releasePanel lists pan again. Reset drops its IDs and series, so the
// list pins no world memo or study buffer.
func releasePanel(pan *Panel) {
	pan.Reset(Index{})
	panelList.Put(pan)
}

// panels assembles the study and control panels for one KPI, windowed to
// ±windowDays around the change, on panels from the panel list, which
// the caller releases once it has assessed them. Elements the provider
// has no data for, or whose windowed series disagrees with the panel's
// time grid (e.g. dropped timepoints in broken telemetry), are skipped
// and reported in fails. The panel panics of a naive Add are never
// reachable from data: Validate rejects a change that lists a study
// element twice, and the selector never picks a study element or a
// control twice. Each panel is sized once, for every column it may
// take. The returned error is KPI-level: no usable study element, or no
// usable control; its panels are already released.
func (p *Pipeline) panels(change *changelog.Change, controls []string, metric KPI, windowDays int) (*Panel, *Panel, []AssessmentFailure, error) {
	window := time.Duration(windowDays) * 24 * time.Hour
	from := change.At.Add(-window)
	to := change.At.Add(window)

	var fails []AssessmentFailure
	fail := func(id string, err error) {
		fails = append(fails, AssessmentFailure{KPI: metric, Element: id, Reason: core.ReasonOf(err), Detail: err.Error()})
	}
	fetch := func(id string) (Series, error) {
		s, ok := p.Provider.Series(id, metric)
		if !ok {
			return Series{}, fmt.Errorf("%w: no %v data for element %s", core.ErrNoData, metric, id)
		}
		return s.Window(from, to), nil
	}
	var studies *Panel
	for _, id := range change.Elements {
		w, err := fetch(id)
		if err == nil && studies != nil && !w.Index.Equal(studies.Index()) {
			err = fmt.Errorf("%w: element %s window disagrees with the study panel's time grid", core.ErrIndexMismatch, id)
		}
		if err != nil {
			fail(id, err)
			continue
		}
		if studies == nil {
			studies = takePanel(w.Index, len(change.Elements))
		}
		studies.Add(id, w)
	}
	if studies == nil {
		return nil, nil, fails, fmt.Errorf("%w: no study element has usable %v data", core.ErrNoData, metric)
	}
	panel := takePanel(studies.Index(), len(controls))
	for _, id := range controls {
		w, err := fetch(id)
		if err == nil && !w.Index.Equal(studies.Index()) {
			err = fmt.Errorf("%w: control %s window disagrees with the study panel's time grid", core.ErrIndexMismatch, id)
		}
		if err != nil {
			fail(id, err)
			continue
		}
		panel.Add(id, w)
	}
	if panel.Len() == 0 {
		releasePanel(studies)
		releasePanel(panel)
		return nil, nil, fails, fmt.Errorf("%w: no control element has usable %v data", core.ErrInsufficientControls, metric)
	}
	return studies, panel, fails, nil
}

// decide derives the rollout recommendation: any degradation → NoGo; at
// least one improvement and no degradation → Go; otherwise Hold.
func decide(perKPI map[KPI]GroupResult) Decision {
	improved := false
	for _, res := range perKPI {
		switch res.Overall {
		case kpi.Degradation:
			return NoGo
		case kpi.Improvement:
			improved = true
		}
	}
	if improved {
		return Go
	}
	return Hold
}

// providerFunc adapts a function to SeriesProvider.
type providerFunc func(string, KPI) (Series, bool)

func (f providerFunc) Series(id string, metric KPI) (Series, bool) { return f(id, metric) }

// ProviderFunc wraps a function as a SeriesProvider.
func ProviderFunc(f func(elementID string, metric KPI) (Series, bool)) SeriesProvider {
	return providerFunc(f)
}
