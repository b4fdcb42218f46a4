package core

// Tests for the zero-allocation kernel plumbing: the permutation-buffer
// contract, the scratch-arena allocation budget, the cross-element
// factorization sharing of AssessGroup, and the small boundary cases
// (empty autocorrelation windows, sample-size cap) the hot-path rewrite
// leans on.

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// TestPermIntoMatchesRandPerm pins the draw-for-draw equivalence the
// sample cache depends on: permInto must consume rng's stream exactly as
// rand.Perm does, so cached samples reproduce the historical draws.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	buf := make([]int, 0, 64)
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 2, 3, 7, 15, 40, 64} {
			want := rand.New(rand.NewSource(seed)).Perm(n)
			p := buf[:n]
			permInto(rand.New(rand.NewSource(seed)), p)
			for i := range want {
				if p[i] != want[i] {
					t.Fatalf("seed %d n %d: permInto = %v, rand.Perm = %v", seed, n, p, want)
				}
			}
		}
	}
}

// TestSamplesForMatchesSampleColumns checks the cached per-iteration
// samples are exactly what the per-iteration RNG contract specifies.
func TestSamplesForMatchesSampleColumns(t *testing.T) {
	a := MustNewAssessor(Config{Seed: 42, Iterations: 25})
	n, k := 13, 8
	samples := a.samplesFor(n, k)
	if len(samples) != 25 {
		t.Fatalf("got %d cached samples, want 25", len(samples))
	}
	for it, got := range samples {
		want := sampleColumns(iterRNG(a.cfg.Seed, it), n, k)
		if len(got) != len(want) {
			t.Fatalf("iteration %d: %v, want %v", it, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iteration %d: %v, want %v", it, got, want)
			}
		}
	}
	// Second call must hand back the identical cached slices.
	again := a.samplesFor(n, k)
	if &again[0][0] != &samples[0][0] {
		t.Error("samplesFor recomputed instead of returning the cache")
	}
	// Computing a shape reseeds one generator rather than allocating a
	// source per iteration, so its allocations do not grow with
	// Iterations.
	allocs := func(iters int) float64 {
		b := MustNewAssessor(Config{Seed: 42, Iterations: iters})
		return testing.AllocsPerRun(10, func() {
			forgetSamples() // force a recomputation
			b.samplesFor(n, k)
		})
	}
	if few, many := allocs(25), allocs(400); many > few {
		t.Errorf("samplesFor allocates %v blocks at 400 iterations, %v at 25: want no growth", many, few)
	}
}

func TestPooledLag1EmptyWindows(t *testing.T) {
	xs := []float64{1, 2, 1, 3, 1, 4, 1, 5}
	if got := pooledLag1(nil, nil); got != 0 {
		t.Errorf("pooledLag1(nil, nil) = %v, want 0", got)
	}
	if got := pooledLag1(xs, nil); got != stats.Lag1Autocorrelation(xs) {
		t.Errorf("pooledLag1(xs, nil) = %v, want unweighted lag-1 %v", got, stats.Lag1Autocorrelation(xs))
	}
	if got := pooledLag1(nil, xs); got != stats.Lag1Autocorrelation(xs) {
		t.Errorf("pooledLag1(nil, xs) = %v, want unweighted lag-1 %v", got, stats.Lag1Autocorrelation(xs))
	}
	if got := pooledLag1([]float64{}, []float64{}); got != 0 {
		t.Errorf("pooledLag1 of two empty windows = %v, want 0", got)
	}
}

// TestSampleSizeMaxKBoundary exercises the overfitting cap right where it
// collapses: tBefore/3 − 1 < 1 leaves no admissible regressor.
func TestSampleSizeMaxKBoundary(t *testing.T) {
	a := defaultAssessor(t)
	// tBefore = 6 is the smallest window with an admissible sample.
	if k := a.sampleSize(10, 6); k != 1 {
		t.Errorf("sampleSize(10, 6) = %d, want 1", k)
	}
	// tBefore = 5 → 5/3 − 1 = 0: no regressor fits the cap.
	if k := a.sampleSize(10, 5); k != 0 {
		t.Errorf("sampleSize(10, 5) = %d, want 0", k)
	}
	// tBefore = 3 → 3/3 − 1 = 0 as well.
	if k := a.sampleSize(10, 3); k != 0 {
		t.Errorf("sampleSize(10, 3) = %d, want 0", k)
	}

	// End to end: a before window of 5 observations passes the ≥3 check
	// but cannot support any regressor.
	w := newSynthWorld(3, 12, 5)
	controls := w.controls(6, 0.8, 1.2)
	study := w.series(10, 1, -0.5)
	if _, err := a.AssessElement("s", study, controls, w.changeAt, kpi.VoiceRetainability); !errors.Is(err, ErrWindowTooShort) {
		t.Errorf("error = %v, want ErrWindowTooShort", err)
	}
}

// TestLeverageSkippedCounter pins the observability of the previously
// silent branch: a control group with duplicated series makes every draw
// rank deficient, so the leave-one-out adjustment is skipped — and now
// counted — on every iteration.
func TestLeverageSkippedCounter(t *testing.T) {
	w := newSynthWorld(5, 28, 14)
	twin := w.series(10, 1.0, 0)
	controls := timeseries.NewPanel(w.ix)
	controls.Add("c1", twin)
	controls.Add("c2", twin.Clone())
	study := w.series(10, 1.0, -0.5)

	reg := obs.NewRegistry()
	scope := obs.New("test", reg)
	a := MustNewAssessor(Config{Workers: 1})
	if _, err := a.WithObserver(scope).AssessElement("s", study, controls, w.changeAt, kpi.VoiceRetainability); err != nil {
		t.Fatal(err)
	}
	want := int64(a.Config().Iterations)
	if got := reg.Counter(obs.MetricLeverageSkipped).Value(); got != want {
		t.Errorf("leverage-skipped counter = %d, want %d (every draw is rank deficient)", got, want)
	}
}

// TestAssessElementAllocs pins the scratch-arena allocation budget. The
// fixed per-call overhead (result series, forecasts, diffs) is allowed;
// the marginal cost per extra sampling iteration must be (amortized)
// zero — the whole point of the per-worker arenas and the sample cache.
func TestAssessElementAllocs(t *testing.T) {
	w := newSynthWorld(6, 28, 14)
	controls := w.controls(15, 0.8, 1.2)
	study := w.series(10, 1.0, -0.5)

	measure := func(iters int) float64 {
		a := MustNewAssessor(Config{Workers: 1, Iterations: iters})
		// Warm the sample cache and the scratch pool.
		if _, err := a.AssessElement("s", study, controls, w.changeAt, kpi.VoiceRetainability); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := a.AssessElement("s", study, controls, w.changeAt, kpi.VoiceRetainability); err != nil {
				t.Fatal(err)
			}
		})
	}

	a50, a200 := measure(50), measure(200)
	perIter := (a200 - a50) / 150
	// Amortized-zero, with slack.
	if perIter > 0.5 {
		t.Errorf("marginal allocations per sampling iteration = %.2f (50 iters: %.0f, 200 iters: %.0f), want ~0", perIter, a50, a200)
	}
	// The fixed overhead must stay bounded too: the seed implementation
	// spent ~33 allocations per iteration (~1650 per call at 50).
	if a50 > 200 {
		t.Errorf("allocations per call at 50 iterations = %.0f, want <= 200", a50)
	}
}

// groupWorld builds a no-missing-data panel group: every study element's
// before window is fully observed, so AssessGroup must take the shared-
// factorization path.
func groupWorld(seed int64) (*timeseries.Panel, *timeseries.Panel, time.Time) {
	w := newSynthWorld(seed, 28, 14)
	controls := w.controls(9, 0.8, 1.2)
	studies := timeseries.NewPanel(w.ix)
	studies.Add("s1", w.series(10, 1.0, -0.5))
	studies.Add("s2", w.series(10, 0.9, -0.5))
	studies.Add("s3", w.series(10, 1.1, 0))
	studies.Add("s4", w.series(10, 1.0, 0.4))
	return studies, controls, w.changeAt
}

// TestGroupSharedFactorizationCount is the acceptance gate for the
// cross-element reuse: on a fully observed panel, AssessGroup performs
// exactly Iterations before-window factorizations — not
// Iterations × Elements — and routes every element through the shared
// path.
func TestGroupSharedFactorizationCount(t *testing.T) {
	studies, controls, changeAt := groupWorld(21)
	reg := obs.NewRegistry()
	scope := obs.New("test", reg)
	a := MustNewAssessor(Config{})
	if _, err := a.WithObserver(scope).AssessGroup(studies, controls, changeAt, kpi.VoiceRetainability); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter(obs.MetricBeforeFactorizations).Value(), int64(a.Config().Iterations); got != want {
		t.Errorf("before-window factorizations = %d, want exactly %d (Iterations, shared across %d elements)", got, want, studies.Len())
	}
	if got := reg.Counter(obs.MetricGroupSharedElements).Value(); got != int64(studies.Len()) {
		t.Errorf("shared-path elements = %d, want %d", got, studies.Len())
	}
}

// TestGroupSharedMatchesPerElement pins bit-identical equivalence of the
// shared-factorization path against element-by-element assessment.
func TestGroupSharedMatchesPerElement(t *testing.T) {
	studies, controls, changeAt := groupWorld(22)
	shared := MustNewAssessor(Config{})
	_, elems, err := assessGroupSeries(shared, studies, controls, changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range elems {
		forgetSamples() // the solo run draws its samples afresh
		solo := MustNewAssessor(Config{})
		want, err := assessElementSeries(solo, res.ElementID, studies.MustSeries(res.ElementID), controls, changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatal(err)
		}
		assertElementResultsIdentical(t, res.ElementID, res, want)
	}
}

// TestGroupSharedFallbackOnMissingData checks the mixed case: elements
// with missing before-window data prepare factors on their own fit rows,
// and every result is bit-identical to standalone assessment.
func TestGroupSharedFallbackOnMissingData(t *testing.T) {
	studies, controls, changeAt := groupWorld(23)
	// Panel series share storage, so this punches holes into s2 in place.
	gappy := studies.MustSeries("s2")
	gappy.Values[4] = math.NaN()
	gappy.Values[9] = math.NaN()

	reg := obs.NewRegistry()
	scope := obs.New("test", reg)
	a := MustNewAssessor(Config{})
	_, elems, err := assessGroupSeries(a.WithObserver(scope), studies, controls, changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricGroupSharedElements).Value(); got != int64(studies.Len()-1) {
		t.Errorf("shared-path elements = %d, want %d (s2 must fall back)", got, studies.Len()-1)
	}
	// The gappy element factors its own design on top of the group's
	// shared Iterations.
	iters := int64(a.Config().Iterations)
	if got := reg.Counter(obs.MetricBeforeFactorizations).Value(); got != 2*iters {
		t.Errorf("before-window factorizations = %d, want %d (shared) + %d (fallback element)", got, iters, iters)
	}
	for _, res := range elems {
		solo := MustNewAssessor(Config{})
		want, err := assessElementSeries(solo, res.ElementID, studies.MustSeries(res.ElementID), controls, changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatal(err)
		}
		assertElementResultsIdentical(t, res.ElementID, res, want)
	}
}

// TestGroupSharedEquivalenceAcrossWorkers re-pins worker-count
// determinism on the shared path specifically.
func TestGroupSharedEquivalenceAcrossWorkers(t *testing.T) {
	var base []finished
	for i, workers := range []int{1, 2, 4, 8} {
		studies, controls, changeAt := groupWorld(24)
		a := MustNewAssessor(Config{Workers: workers})
		_, elems, err := assessGroupSeries(a, studies, controls, changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = elems
			continue
		}
		for j, res := range elems {
			assertElementResultsIdentical(t, res.ElementID, res, base[j])
		}
	}
}

func assertElementResultsIdentical(t *testing.T, id string, got, want finished) {
	t.Helper()
	if got.Statistic != want.Statistic || got.P != want.P || got.Shift != want.Shift || got.FitR2 != want.FitR2 {
		t.Errorf("element %s: shared path verdict (stat %v p %v shift %v r2 %v) != per-element (stat %v p %v shift %v r2 %v)",
			id, got.Statistic, got.P, got.Shift, got.FitR2,
			want.Statistic, want.P, want.Shift, want.FitR2)
	}
	if got.Impact != want.Impact {
		t.Errorf("element %s: impact %v != %v", id, got.Impact, want.Impact)
	}
	for i := range want.ForecastBefore.Values {
		if got.ForecastBefore.Values[i] != want.ForecastBefore.Values[i] {
			t.Fatalf("element %s: forecast-before[%d] %v != %v", id, i, got.ForecastBefore.Values[i], want.ForecastBefore.Values[i])
		}
	}
	for i := range want.ForecastAfter.Values {
		if got.ForecastAfter.Values[i] != want.ForecastAfter.Values[i] {
			t.Fatalf("element %s: forecast-after[%d] %v != %v", id, i, got.ForecastAfter.Values[i], want.ForecastAfter.Values[i])
		}
	}
}
