package core

// Exact metamorphic invariants of the Litmus estimator. The robust
// regression fits each study series on its controls with an intercept,
// so an affine map of every series, or of any one control, leaves every
// forecast difference scaled by a positive constant and the rank test
// unchanged; negating every series flips the sign of every difference,
// which swaps improvement and degradation. These hold for any input,
// unlike the paper's common-mode claim, which the test worlds below
// (a common-mode factor of 1.2 after the change) break on some seeds.

import (
	"math"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

// metamorphicWorld is one engine test world: nine controls and an
// unchanged study element under a common-mode factor.
type metamorphicWorld struct {
	seed     int64
	study    timeseries.Series
	controls *timeseries.Panel
	changeAt time.Time
}

func metamorphicWorlds() []metamorphicWorld {
	worlds := make([]metamorphicWorld, 0, 40)
	for seed := int64(1); seed <= 40; seed++ {
		w := newSynthWorld(seed, 28, 14)
		w.latentShift(1.2)
		// Controls first: the draws follow TestAssessIgnoresCommonModeFactor.
		controls := w.controls(9, 0.8, 1.2)
		worlds = append(worlds, metamorphicWorld{
			seed: seed, study: w.series(10, 1.0, 0), controls: controls, changeAt: w.changeAt,
		})
	}
	return worlds
}

// mapPanel applies f to every control, given its position.
func mapPanel(p *timeseries.Panel, f func(i int, s timeseries.Series) timeseries.Series) *timeseries.Panel {
	out := timeseries.NewPanel(p.Index())
	for i, id := range p.IDs() {
		out.Add(id, f(i, p.MustSeries(id)))
	}
	return out
}

// checkMetamorphic assesses every world as it is and as transform
// rewrites it. The rewritten verdict must be want of the original one,
// with p equal within 1e-9, relative.
func checkMetamorphic(t *testing.T, transform func(metamorphicWorld) metamorphicWorld, want func(kpi.Impact) kpi.Impact) {
	t.Helper()
	a := defaultAssessor(t)
	seen := map[kpi.Impact]int{}
	for _, w := range metamorphicWorlds() {
		orig, err := a.AssessElement("study", w.study, w.controls, w.changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatalf("seed %d: %v", w.seed, err)
		}
		m := transform(w)
		got, err := a.AssessElement("study", m.study, m.controls, m.changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatalf("seed %d, transformed: %v", w.seed, err)
		}
		seen[orig.Impact]++
		if got.Impact != want(orig.Impact) {
			t.Errorf("seed %d: verdict %v, transformed %v, want %v", w.seed, orig.Impact, got.Impact, want(orig.Impact))
		}
		if d := math.Abs(got.P - orig.P); d > 1e-9*orig.P {
			t.Errorf("seed %d: p %.17g, transformed %.17g", w.seed, orig.P, got.P)
		}
	}
	// The worlds must reach every verdict, or a swap goes unchecked.
	for _, impact := range []kpi.Impact{kpi.NoImpact, kpi.Improvement, kpi.Degradation} {
		if seen[impact] == 0 {
			t.Errorf("no world reads %v (verdicts %v)", impact, seen)
		}
	}
}

func sameImpact(i kpi.Impact) kpi.Impact { return i }

// TestMetamorphicGlobalAffine: every series mapped by 3x − 7.
func TestMetamorphicGlobalAffine(t *testing.T) {
	affine := func(s timeseries.Series) timeseries.Series { return s.Scale(3).Shift(-7) }
	checkMetamorphic(t, func(w metamorphicWorld) metamorphicWorld {
		w.study = affine(w.study)
		w.controls = mapPanel(w.controls, func(_ int, s timeseries.Series) timeseries.Series { return affine(s) })
		return w
	}, sameImpact)
}

// TestMetamorphicPerControlAffine: each control mapped by its own affine
// map, some of them reversing its sign; the study is left alone.
func TestMetamorphicPerControlAffine(t *testing.T) {
	checkMetamorphic(t, func(w metamorphicWorld) metamorphicWorld {
		w.controls = mapPanel(w.controls, func(i int, s timeseries.Series) timeseries.Series {
			scale := 0.5 + 0.75*float64(i)
			if i%3 == 2 {
				scale = -scale
			}
			return s.Scale(scale).Shift(float64(4 - i))
		})
		return w
	}, sameImpact)
}

// TestMetamorphicNegation: every series negated swaps improvement and
// degradation.
func TestMetamorphicNegation(t *testing.T) {
	checkMetamorphic(t, func(w metamorphicWorld) metamorphicWorld {
		w.study = w.study.Scale(-1)
		w.controls = mapPanel(w.controls, func(_ int, s timeseries.Series) timeseries.Series { return s.Scale(-1) })
		return w
	}, func(i kpi.Impact) kpi.Impact {
		switch i {
		case kpi.Improvement:
			return kpi.Degradation
		case kpi.Degradation:
			return kpi.Improvement
		}
		return i
	})
}
