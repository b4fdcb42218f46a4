package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/kpi"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// StudyOnly performs the study-group-only baseline (paper §4.1): a direct
// robust rank-order comparison of the study element's series before vs
// after the change, blind to the control group and hence to external
// factors.
func StudyOnly(study timeseries.Series, changeAt time.Time, metric kpi.KPI, alpha float64) (Verdict, error) {
	if alpha <= 0 || alpha >= 1 {
		return Verdict{}, fmt.Errorf("core: alpha %v outside (0,1)", alpha)
	}
	before, after := study.SplitAt(changeAt)
	b := before.CleanValues()
	a := after.CleanValues()
	if len(b) < 3 || len(a) < 3 {
		return Verdict{}, fmt.Errorf("%w: need >= 3 observations on each side, got %d and %d", ErrWindowTooShort, len(b), len(a))
	}
	test, err := stats.FlignerPolicello(b, a)
	if err != nil {
		return Verdict{}, fmt.Errorf("%w: rank-order test failed: %w", ErrDegenerateStatistics, err)
	}
	return Verdict{
		Impact:    kpi.ImpactOfShift(metric, test.Direction(alpha)),
		Statistic: test.Statistic,
		P:         test.P,
		Shift:     stats.Median(a) - stats.Median(b),
	}, nil
}

// StudyOnlyGroup applies StudyOnly to every element of a study panel and
// majority-votes the outcome.
func StudyOnlyGroup(studies *timeseries.Panel, changeAt time.Time, metric kpi.KPI, alpha float64) (GroupResult, error) {
	if studies.Len() == 0 {
		return GroupResult{}, fmt.Errorf("core: empty study group")
	}
	results := make([]ElementResult, 0, studies.Len())
	var firstErr error
	for j := 0; j < studies.Len(); j++ {
		id, s := studies.Column(j)
		v, err := StudyOnly(s, changeAt, metric, alpha)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: element %s: %w", id, err)
			}
			continue
		}
		results = append(results, ElementResult{Verdict: v, ElementID: id, KPI: metric})
	}
	if len(results) == 0 {
		return GroupResult{}, firstErr
	}
	overall, votes := vote(results)
	return GroupResult{KPI: metric, PerElement: results, Overall: overall, Votes: votes}, nil
}

// DiDStat is one pair's Difference-in-Differences evidence.
type DiDStat struct {
	ControlID string
	// D is the DiD point estimate d(i,j) of Eq. 1 with h = median.
	D float64
	// Test is the rank-order test on the pairwise difference series
	// before vs after, providing the significance decision for the pair.
	Test stats.TestResult
}

// DiD performs the Difference-in-Differences baseline (paper Eq. 1,
// refs [21, 26]) for one study element: for every control element i the
// estimate d(i,j) = (h(Y_a)−h(Y_b)) − (h(X_a,i)−h(X_b,i)) is computed
// with h = mean, and the cross-sectional set {d(i,j)} is tested against
// zero with a one-sample Student t-test — the standard econometric DiD
// inference with control elements as the comparison units. Per-pair
// rank tests are returned for diagnostics.
//
// This inherits DiD's documented non-robustness (§3.2, ref [3]): a
// contaminated control contributes a fully biased d(i,j) that shifts
// the mean and inflates the cross-sectional standard error (missed
// detections), and an element responding to an external factor more
// strongly than its controls biases every pair (false alarms). Litmus'
// robust regression exists to fix exactly these failure modes.
func DiD(study timeseries.Series, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI, alpha float64) (Verdict, []DiDStat, error) {
	if alpha <= 0 || alpha >= 1 {
		return Verdict{}, nil, fmt.Errorf("core: alpha %v outside (0,1)", alpha)
	}
	if !study.Index.Equal(controls.Index()) {
		return Verdict{}, nil, ErrIndexMismatch
	}
	if controls.Len() == 0 {
		return Verdict{}, nil, fmt.Errorf("%w: no controls", ErrControlTooSmall)
	}

	pairs := make([]DiDStat, 0, controls.Len())
	ds := make([]float64, 0, controls.Len())
	for j := 0; j < controls.Len(); j++ {
		cid, cs := controls.Column(j)
		diff := study.Sub(cs)
		before, after := diff.SplitAt(changeAt)
		b := before.CleanValues()
		a := after.CleanValues()
		if len(b) < 3 || len(a) < 3 {
			continue
		}
		test, err := stats.FlignerPolicello(b, a)
		if err != nil {
			continue
		}
		// The pair difference series keeps the autocorrelated share of the
		// regional process that the two sensitivities do not cancel; damp
		// the statistic by the same Bartlett factor the Litmus test uses.
		if rho := pooledLag1(b, a); rho > 0 {
			test.Statistic *= math.Sqrt((1 - rho) / (1 + rho))
			test.P = stats.TwoSidedP(test.Statistic)
		}
		d := stats.Mean(a) - stats.Mean(b)
		pairs = append(pairs, DiDStat{ControlID: cid, D: d, Test: test})
		ds = append(ds, d)
	}
	if len(ds) < 3 {
		return Verdict{}, nil, fmt.Errorf("%w: only %d usable control pairs", ErrWindowTooShort, len(ds))
	}
	test, err := stats.OneSampleT(ds, 0)
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("%w: DiD t-test failed: %w", ErrDegenerateStatistics, err)
	}
	return Verdict{
		Impact:    kpi.ImpactOfShift(metric, test.Direction(alpha)),
		Statistic: test.Statistic,
		P:         test.P,
		Shift:     stats.Mean(ds),
	}, pairs, nil
}

// DiDGroup applies DiD to every study element and majority-votes the
// outcome across elements.
func DiDGroup(studies *timeseries.Panel, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI, alpha float64) (GroupResult, error) {
	if studies.Len() == 0 {
		return GroupResult{}, fmt.Errorf("core: empty study group")
	}
	results := make([]ElementResult, 0, studies.Len())
	var firstErr error
	for j := 0; j < studies.Len(); j++ {
		id, s := studies.Column(j)
		v, _, err := DiD(s, controls, changeAt, metric, alpha)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: element %s: %w", id, err)
			}
			continue
		}
		results = append(results, ElementResult{Verdict: v, ElementID: id, KPI: metric})
	}
	if len(results) == 0 {
		return GroupResult{}, firstErr
	}
	overall, votes := vote(results)
	return GroupResult{KPI: metric, PerElement: results, Overall: overall, Votes: votes}, nil
}
