// Package core implements the paper's primary contribution: the Litmus
// robust spatial regression algorithm for assessing the service
// performance impact of a network change by comparing the study group
// (elements with the change) against a control group (elements without),
// plus the two baselines it is evaluated against — study-group-only
// analysis and Difference in Differences (CoNEXT'13 §3.2, §4.1).
package core

import (
	"fmt"

	"repro/internal/kpi"
)

// Verdict is the outcome of one assessment: the assessed impact with its
// statistical evidence.
type Verdict struct {
	// Impact is the assessed service-performance impact.
	Impact kpi.Impact
	// Statistic is the test statistic of the underlying rank-order test;
	// positive means the KPI value increased relative to expectation.
	Statistic float64
	// P is the two-sided p-value.
	P float64
	// Shift is the estimated relative KPI shift in KPI units (median of
	// the after-change forecast difference minus the before-change one, or
	// the analogous quantity for the baselines).
	Shift float64
}

func (v Verdict) String() string {
	return fmt.Sprintf("%s (z=%.2f p=%.4f shift=%+.4g)", v.Impact, v.Statistic, v.P, v.Shift)
}

// ElementResult is the assessment of one study-group element. The
// forecast medians and differences behind its verdict stay in the
// engine's pooled memory and end with the assessment.
type ElementResult struct {
	Verdict
	// ElementID identifies the study element.
	ElementID string
	// KPI is the metric assessed.
	KPI kpi.KPI
	// FitR2 is the pre-change regression fit quality (median across
	// sampling iterations) — a diagnostic for poor control groups.
	FitR2 float64
}

// GroupResult summarizes an assessment across a study group (paper §3.2:
// "we also use voting to summarize across multiple elements").
type GroupResult struct {
	// KPI is the metric assessed.
	KPI kpi.KPI
	// PerElement holds each study element's result, in input order.
	PerElement []ElementResult
	// Overall is the majority-vote impact across elements.
	Overall kpi.Impact
	// Votes counts elements per impact.
	Votes map[kpi.Impact]int
	// Failures records study elements that could not be assessed, in
	// input order. A non-empty list marks the result as degraded: the
	// vote stands on the elements that did assess.
	Failures []Failure
}

// Degraded reports whether some study elements failed to assess.
func (g GroupResult) Degraded() bool { return len(g.Failures) > 0 }

// vote tallies per-element impacts into an overall verdict: the strict
// majority wins; without a strict majority the verdict is NoImpact (an
// ambiguous field trial is not evidence of improvement or degradation).
func vote(results []ElementResult) (kpi.Impact, map[kpi.Impact]int) {
	votes := map[kpi.Impact]int{}
	for _, r := range results {
		votes[r.Impact]++
	}
	best, bestN := kpi.NoImpact, 0
	for _, imp := range []kpi.Impact{kpi.Improvement, kpi.Degradation, kpi.NoImpact} {
		if votes[imp] > bestN {
			best, bestN = imp, votes[imp]
		}
	}
	if bestN*2 <= len(results) {
		return kpi.NoImpact, votes
	}
	return best, votes
}
