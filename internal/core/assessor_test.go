package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

var epoch = time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)

// synthWorld builds a study series plus control panel that share a latent
// AR(1) factor with per-element sensitivities — the §3.1 structure.
type synthWorld struct {
	ix       timeseries.Index
	latent   []float64
	rng      *rand.Rand
	noiseSD  float64
	changeAt time.Time
	changeI  int
}

func newSynthWorld(seed int64, days int, changeDay int) *synthWorld {
	ix := timeseries.NewIndex(epoch, 24*time.Hour, days)
	rng := rand.New(rand.NewSource(seed))
	latent := make([]float64, days)
	latent[0] = rng.NormFloat64() * 0.5
	for i := 1; i < days; i++ {
		latent[i] = 0.7*latent[i-1] + 0.3*rng.NormFloat64()
	}
	return &synthWorld{
		ix: ix, latent: latent, rng: rng, noiseSD: 0.05,
		changeAt: epoch.Add(time.Duration(changeDay) * 24 * time.Hour),
		changeI:  changeDay,
	}
}

// series builds one element series: base + sens·latent + noise, plus
// shiftAfter added from the change point on.
func (w *synthWorld) series(base, sens, shiftAfter float64) timeseries.Series {
	vals := make([]float64, w.ix.N)
	for i := range vals {
		vals[i] = base + sens*w.latent[i] + w.noiseSD*w.rng.NormFloat64()
		if i >= w.changeI {
			vals[i] += shiftAfter
		}
	}
	return timeseries.NewSeries(w.ix, vals)
}

// latentShift adds a common-mode level change to the latent factor from
// the change point on — an external factor hitting every element.
func (w *synthWorld) latentShift(delta float64) {
	for i := w.changeI; i < len(w.latent); i++ {
		w.latent[i] += delta
	}
}

func (w *synthWorld) controls(n int, sensLo, sensHi float64) *timeseries.Panel {
	p := timeseries.NewPanel(w.ix)
	for i := 0; i < n; i++ {
		sens := sensLo + (sensHi-sensLo)*float64(i)/float64(max(n-1, 1))
		p.Add(controlID(i), w.series(10, sens, 0))
	}
	return p
}

func controlID(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func defaultAssessor(t *testing.T) *Assessor {
	t.Helper()
	a, err := NewAssessor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	good := []Config{{}, {Alpha: 0.01, SampleFraction: 0.7, Iterations: 10}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Alpha: 1.5},
		{SampleFraction: 0.4}, // violates k > N/2
		{SampleFraction: 1.2},
		{Iterations: -1},
		{EffectFloor: -0.1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestAssessDetectsStudyChange(t *testing.T) {
	// Scenario: real degradation injected at the study element only.
	w := newSynthWorld(1, 28, 14)
	controls := w.controls(9, 0.5, 1.5)
	study := w.series(10, 1.0, -0.4)
	a := defaultAssessor(t)
	res, err := a.AssessElement("study", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impact != kpi.Degradation {
		t.Errorf("impact = %v, want degradation: %v", res.Impact, res.Verdict)
	}
	if math.Abs(res.Shift+0.4) > 0.15 {
		t.Errorf("estimated shift = %v, want ≈ -0.4", res.Shift)
	}
	if res.FitR2 < 0.5 {
		t.Errorf("fit R² = %v, want decent on forecastable world", res.FitR2)
	}
}

func TestAssessNoImpactOnCleanWorld(t *testing.T) {
	// No injected change anywhere: verdict must be no-impact for most
	// seeds.
	noImpact := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		w := newSynthWorld(100+seed, 28, 14)
		controls := w.controls(9, 0.5, 1.5)
		study := w.series(10, 1.0, 0)
		a := defaultAssessor(t)
		res, err := a.AssessElement("study", study, controls, w.changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatal(err)
		}
		if res.Impact == kpi.NoImpact {
			noImpact++
		}
	}
	if noImpact < trials*8/10 {
		t.Errorf("no-impact verdicts = %d/%d, want >= 80%%", noImpact, trials)
	}
}

func TestAssessIgnoresCommonModeFactor(t *testing.T) {
	// Fig. 7(b): an external factor degrades study AND controls; Litmus
	// must say no relative change while study-only sees a degradation.
	w := newSynthWorld(3, 28, 14)
	w.latentShift(1.2) // common-mode degradation post-change
	controls := w.controls(9, 0.8, 1.2)
	study := w.series(10, 1.0, 0)

	a := defaultAssessor(t)
	res, err := a.AssessElement("study", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impact != kpi.NoImpact {
		t.Errorf("Litmus impact = %v, want no-impact under common-mode factor", res.Impact)
	}

	so, err := StudyOnly(study, w.changeAt, kpi.VoiceRetainability, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if so.Impact == kpi.NoImpact {
		t.Error("study-only failed to (incorrectly) flag the common-mode shift — scenario too weak")
	}
}

func TestAssessRelativeImprovementUnderSharedDegradation(t *testing.T) {
	// Fig. 7(a): weather degrades everyone, but the change at the study
	// element offsets part of it → relative improvement.
	w := newSynthWorld(4, 28, 14)
	w.latentShift(1.0)
	controls := w.controls(9, 0.9, 1.1)
	study := w.series(10, 1.0, +0.5) // change recovers half the hit
	a := defaultAssessor(t)
	res, err := a.AssessElement("study", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impact != kpi.Improvement {
		t.Errorf("impact = %v, want relative improvement: %v", res.Impact, res.Verdict)
	}
}

func TestAssessRobustToContaminatedControls(t *testing.T) {
	// §3.2: unrelated changes in a small number of control elements must
	// not significantly influence the outcome. A real degradation at the
	// study element must still be detected, with the shift estimate only
	// mildly attenuated, when 2 of 12 controls suffer their own unrelated
	// post-change shifts. (Full immunity is not claimed by the paper
	// either — its Table 4 shows Litmus trading a few false positives for
	// far fewer misses under contamination.)
	w := newSynthWorld(5, 28, 14)
	controls := timeseries.NewPanel(w.ix)
	for i := 0; i < 12; i++ {
		shift := 0.0
		if i < 2 {
			shift = -0.8 // unrelated outage at two controls
		}
		sens := 0.5 + float64(i)/11.0
		controls.Add(controlID(i), w.series(10, sens, shift))
	}
	study := w.series(10, 1.0, -0.4)
	a := defaultAssessor(t)
	res, err := a.AssessElement("study", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impact != kpi.Degradation {
		t.Errorf("impact = %v, want degradation despite contaminated controls: %v", res.Impact, res.Verdict)
	}
	// The contamination pushes the forecast down, shrinking the apparent
	// study shift; robustness means the leak stays well below the full
	// contamination magnitude.
	if res.Shift > -0.2 || res.Shift < -0.6 {
		t.Errorf("shift = %v, want ≈ -0.4 with bounded contamination leak", res.Shift)
	}
}

func TestDiDBiasedByHeterogeneousSensitivity(t *testing.T) {
	// The scenario of §3.2 where DiD fails but robust regression works:
	// the study element responds to the regional factor twice as strongly
	// as any control, and the factor level-shifts after the change. Every
	// DiD pair shifts by (sens_y − sens_i)·Δ > 0 → false positive; the
	// regression reconstructs the sensitivity and stays quiet.
	w := newSynthWorld(6, 28, 14)
	w.latentShift(1.0)
	controls := w.controls(10, 0.4, 1.0)
	study := w.series(10, 2.0, 0) // extreme sensitivity, no real change

	did, _, err := DiD(study, controls, w.changeAt, kpi.VoiceRetainability, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a := defaultAssessor(t)
	lit, err := a.AssessElement("study", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if did.Impact == kpi.NoImpact {
		t.Error("DiD unexpectedly robust — scenario no longer discriminates")
	}
	if lit.Impact != kpi.NoImpact {
		t.Errorf("Litmus impact = %v, want no-impact on heterogeneous sensitivities", lit.Impact)
	}
}

func TestAssessDirectionSemantics(t *testing.T) {
	// An upward shift on a lower-is-better KPI is a degradation.
	w := newSynthWorld(7, 28, 14)
	controls := w.controls(9, 0.8, 1.2)
	study := w.series(1, 1.0, +0.5)
	a := defaultAssessor(t)
	res, err := a.AssessElement("study", study, controls, w.changeAt, kpi.DroppedCallRatio)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impact != kpi.Degradation {
		t.Errorf("rising dropped-call ratio = %v, want degradation", res.Impact)
	}
}

func TestAssessErrors(t *testing.T) {
	w := newSynthWorld(8, 28, 14)
	a := defaultAssessor(t)

	// Too few controls.
	one := timeseries.NewPanel(w.ix)
	one.Add("only", w.series(10, 1, 0))
	study := w.series(10, 1, 0)
	if _, err := a.AssessElement("s", study, one, w.changeAt, kpi.VoiceRetainability); !errors.Is(err, ErrControlTooSmall) {
		t.Errorf("error = %v, want ErrControlTooSmall", err)
	}

	// Change time before the series start: empty before-window.
	controls := w.controls(6, 0.8, 1.2)
	if _, err := a.AssessElement("s", study, controls, epoch, kpi.VoiceRetainability); !errors.Is(err, ErrWindowTooShort) {
		t.Errorf("error = %v, want ErrWindowTooShort", err)
	}

	// Mismatched indexes.
	otherIx := timeseries.NewIndex(epoch, time.Hour, 28)
	badStudy := timeseries.NewZeroSeries(otherIx)
	if _, err := a.AssessElement("s", badStudy, controls, w.changeAt, kpi.VoiceRetainability); err == nil {
		t.Error("mismatched index accepted")
	}
}

func TestAssessHandlesMissingStudyValues(t *testing.T) {
	w := newSynthWorld(9, 28, 14)
	controls := w.controls(9, 0.8, 1.2)
	study := w.series(10, 1.0, -0.4)
	study.Values[3] = math.NaN()
	study.Values[20] = math.NaN()
	a := defaultAssessor(t)
	res, err := a.AssessElement("study", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impact != kpi.Degradation {
		t.Errorf("impact with missing values = %v, want degradation", res.Impact)
	}
}

func TestAssessDeterministicAcrossRuns(t *testing.T) {
	w1 := newSynthWorld(10, 28, 14)
	controls1 := w1.controls(9, 0.8, 1.2)
	study1 := w1.series(10, 1.0, -0.3)
	w2 := newSynthWorld(10, 28, 14)
	controls2 := w2.controls(9, 0.8, 1.2)
	study2 := w2.series(10, 1.0, -0.3)

	a1 := defaultAssessor(t)
	a2 := defaultAssessor(t)
	r1, err1 := a1.AssessElement("s", study1, controls1, w1.changeAt, kpi.VoiceRetainability)
	r2, err2 := a2.AssessElement("s", study2, controls2, w2.changeAt, kpi.VoiceRetainability)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Statistic != r2.Statistic || r1.P != r2.P || r1.Shift != r2.Shift {
		t.Errorf("non-deterministic assessment: %v vs %v", r1.Verdict, r2.Verdict)
	}
}

func TestEffectFloorSuppressesTinyShifts(t *testing.T) {
	// A statistically significant but practically tiny shift is reported
	// as no-impact when the floor is set.
	w := newSynthWorld(11, 60, 30)
	w.noiseSD = 0.001
	controls := w.controls(9, 0.8, 1.2)
	study := w.series(10, 1.0, -0.01)
	floored := MustNewAssessor(Config{EffectFloor: 0.05})
	res, err := floored.AssessElement("s", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impact != kpi.NoImpact {
		t.Errorf("floored impact = %v, want no-impact", res.Impact)
	}
	plain := defaultAssessor(t)
	res2, err := plain.AssessElement("s", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Impact != kpi.Degradation {
		t.Errorf("unfloored impact = %v, want degradation (floor test needs a detectable shift)", res2.Impact)
	}
}

func TestAssessGroupVoting(t *testing.T) {
	w := newSynthWorld(12, 28, 14)
	controls := w.controls(9, 0.8, 1.2)
	studies := timeseries.NewPanel(w.ix)
	// Three degraded elements, one unchanged → majority degradation.
	studies.Add("s1", w.series(10, 1.0, -0.5))
	studies.Add("s2", w.series(10, 0.9, -0.5))
	studies.Add("s3", w.series(10, 1.1, -0.5))
	studies.Add("s4", w.series(10, 1.0, 0))
	a := defaultAssessor(t)
	g, err := a.AssessGroup(studies, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if g.Overall != kpi.Degradation {
		t.Errorf("group verdict = %v (votes %v), want degradation", g.Overall, g.Votes)
	}
	if len(g.PerElement) != 4 {
		t.Errorf("per-element results = %d, want 4", len(g.PerElement))
	}
}

func TestVoteNoStrictMajority(t *testing.T) {
	results := []ElementResult{
		{Verdict: Verdict{Impact: kpi.Improvement}},
		{Verdict: Verdict{Impact: kpi.Degradation}},
	}
	overall, _ := vote(results)
	if overall != kpi.NoImpact {
		t.Errorf("split vote = %v, want no-impact", overall)
	}
}

func TestSampleSizeRules(t *testing.T) {
	a := defaultAssessor(t)
	// 2/3 of 12 = 8.
	if k := a.sampleSize(12, 100); k != 8 {
		t.Errorf("sampleSize(12, 100) = %d, want 8", k)
	}
	// Capped by window: tBefore=12 → at most 12/3 − 1 = 3 regressors.
	if k := a.sampleSize(30, 12); k != 3 {
		t.Errorf("sampleSize(30, 12) = %d, want 3", k)
	}
	// Never exceeds N.
	if k := a.sampleSize(2, 100); k != 2 {
		t.Errorf("sampleSize(2, 100) = %d, want 2", k)
	}
}

func TestSampleColumnsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(20)
		k := 1 + rng.Intn(n)
		cols := sampleColumns(rng, n, k)
		if len(cols) != k {
			t.Fatalf("sample size %d, want %d", len(cols), k)
		}
		seen := map[int]bool{}
		for _, c := range cols {
			if c < 0 || c >= n || seen[c] {
				t.Fatalf("invalid or duplicate column %d in %v", c, cols)
			}
			seen[c] = true
		}
	}
}

// TestPointwiseMedian checks the per-timepoint aggregation, median and
// mean, and that it leaves the forecasts as they were.
func TestPointwiseMedian(t *testing.T) {
	forecasts := [][]float64{
		{1, 10},
		{2, 20},
		{300, 30},
	}
	col := make([]float64, len(forecasts))
	for _, c := range []struct {
		agg  Aggregation
		want []float64
	}{{AggregateMedian, []float64{2, 20}}, {AggregateMean, []float64{101, 20}}} {
		got := make([]float64, 2)
		MustNewAssessor(Config{Aggregation: c.agg}).aggregate(got, forecasts, col)
		if got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("%v aggregate = %v, want %v", c.agg, got, c.want)
		}
	}
	if forecasts[2][0] != 300 || forecasts[0][1] != 10 {
		t.Errorf("aggregate rewrote its forecasts: %v", forecasts)
	}
}
