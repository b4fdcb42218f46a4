package core

// Tests for the concurrency subsystem: the worker pool, the
// (Seed, iteration) RNG-derivation contract, and — the load-bearing
// guarantee — bit-identical equivalence of parallel and sequential
// assessments for every worker count, seed and configuration variant.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

var workerCounts = []int{1, 2, 4, 8}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			hits := make([]int, n)
			by := make([]int, n)
			forEach(workers, n, func(w, i int) { hits[i]++; by[i] = w })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
				if by[i] < 0 || by[i] >= max(workers, 1) {
					t.Fatalf("workers=%d n=%d: index %d ran on worker %d", workers, n, i, by[i])
				}
			}
		}
	}
}

func TestIterRNGContract(t *testing.T) {
	// Same (seed, iteration) → same stream.
	a, b := iterRNG(7, 3), iterRNG(7, 3)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("iterRNG not deterministic for equal (seed, iteration)")
		}
	}
	// Distinct (seed, iteration) pairs → distinct derived seeds. A
	// collision among small keys would correlate sampling iterations.
	seen := map[int64][2]int64{}
	for seed := int64(0); seed < 50; seed++ {
		for it := 0; it < 200; it++ {
			d := deriveSeed(seed, uint64(it))
			if d < 0 {
				t.Fatalf("deriveSeed(%d, %d) = %d, want non-negative", seed, it, d)
			}
			key := [2]int64{seed, int64(it)}
			if prev, dup := seen[d]; dup {
				t.Fatalf("derived seed collision: (%d,%d) and (%d,%d) → %d", prev[0], prev[1], seed, it, d)
			}
			seen[d] = key
		}
	}
}

// equalElementResults compares every numeric output of two element
// results and their series bit-for-bit.
func equalElementResults(a, b finished) error {
	if a.Impact != b.Impact || a.Statistic != b.Statistic || a.P != b.P || a.Shift != b.Shift {
		return fmt.Errorf("verdict %v != %v", a.Verdict, b.Verdict)
	}
	if a.FitR2 != b.FitR2 {
		return fmt.Errorf("fit R² %v != %v", a.FitR2, b.FitR2)
	}
	vecs := [][2][]float64{
		{a.ForecastBefore.Values, b.ForecastBefore.Values},
		{a.ForecastAfter.Values, b.ForecastAfter.Values},
		{a.DiffBefore, b.DiffBefore},
		{a.DiffAfter, b.DiffAfter},
	}
	for vi, v := range vecs {
		if len(v[0]) != len(v[1]) {
			return fmt.Errorf("vector %d length %d != %d", vi, len(v[0]), len(v[1]))
		}
		for i := range v[0] {
			// Bit-identity including NaN slots (NaN != NaN under ==).
			if v[0][i] != v[1][i] && !(v[0][i] != v[0][i] && v[1][i] != v[1][i]) {
				return fmt.Errorf("vector %d differs at %d: %v != %v", vi, i, v[0][i], v[1][i])
			}
		}
	}
	return nil
}

// TestAssessElementEquivalenceAcrossWorkers is the equivalence suite the
// seeding contract promises: for several seeds, aggregation/test
// variants and worker counts ∈ {1, 2, 4, 8}, the parallel assessment is
// bit-identical to the sequential (Workers: 1) path.
func TestAssessElementEquivalenceAcrossWorkers(t *testing.T) {
	variants := []Config{
		{},
		{Aggregation: AggregateMean},
		{Test: TestMannWhitney},
		{Test: TestWelch, EffectFloor: 0.01},
		{Iterations: 17, SampleFraction: 0.6},
	}
	for _, seed := range []int64{1, 7, 42} {
		for vi, variant := range variants {
			w := newSynthWorld(100+seed, 28, 14)
			controls := w.controls(9, 0.5, 1.5)
			study := w.series(10, 1.0, -0.4)

			variant.Seed = seed
			variant.Workers = 1
			sequential := MustNewAssessor(variant)
			want, err := assessElementSeries(sequential, "s", study, controls, w.changeAt, kpi.VoiceRetainability)
			if err != nil {
				t.Fatalf("seed %d variant %d: sequential: %v", seed, vi, err)
			}
			for _, workers := range workerCounts[1:] {
				variant.Workers = workers
				got, err := assessElementSeries(MustNewAssessor(variant), "s", study, controls, w.changeAt, kpi.VoiceRetainability)
				if err != nil {
					t.Fatalf("seed %d variant %d workers %d: %v", seed, vi, workers, err)
				}
				if err := equalElementResults(want, got); err != nil {
					t.Errorf("seed %d variant %d workers %d: parallel differs from sequential: %v", seed, vi, workers, err)
				}
			}
		}
	}
}

func TestAssessGroupEquivalenceAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		w := newSynthWorld(seed, 28, 14)
		controls := w.controls(9, 0.8, 1.2)
		studies := timeseries.NewPanel(w.ix)
		studies.Add("s1", w.series(10, 1.0, -0.5))
		studies.Add("s2", w.series(10, 0.9, -0.5))
		studies.Add("s3", w.series(10, 1.1, 0))
		studies.Add("s4", w.series(10, 1.0, 0.5))

		want, wantElems, err := assessGroupSeries(MustNewAssessor(Config{Seed: seed, Workers: 1}),
			studies, controls, w.changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts[1:] {
			got, gotElems, err := assessGroupSeries(MustNewAssessor(Config{Seed: seed, Workers: workers}),
				studies, controls, w.changeAt, kpi.VoiceRetainability)
			if err != nil {
				t.Fatal(err)
			}
			if got.Overall != want.Overall {
				t.Errorf("workers %d: overall %v != %v", workers, got.Overall, want.Overall)
			}
			if len(got.PerElement) != len(want.PerElement) {
				t.Fatalf("workers %d: %d per-element results, want %d", workers, len(got.PerElement), len(want.PerElement))
			}
			for i := range want.PerElement {
				if got.PerElement[i].ElementID != want.PerElement[i].ElementID {
					t.Fatalf("workers %d: element order changed: %s at %d, want %s",
						workers, got.PerElement[i].ElementID, i, want.PerElement[i].ElementID)
				}
				if err := equalElementResults(wantElems[i], gotElems[i]); err != nil {
					t.Errorf("workers %d element %s: %v", workers, want.PerElement[i].ElementID, err)
				}
			}
			for imp, n := range want.Votes {
				if got.Votes[imp] != n {
					t.Errorf("workers %d: votes[%v] = %d, want %d", workers, imp, got.Votes[imp], n)
				}
			}
		}
	}
}

// TestAssessGroupSkipsFailingElementDeterministically checks the gather
// step preserves the sequential skip-and-first-error semantics.
func TestAssessGroupSkipsFailingElementDeterministically(t *testing.T) {
	w := newSynthWorld(13, 28, 14)
	controls := w.controls(9, 0.8, 1.2)
	studies := timeseries.NewPanel(w.ix)
	studies.Add("ok1", w.series(10, 1.0, -0.5))
	short := timeseries.NewZeroSeries(w.ix)
	for i := range short.Values {
		short.Values[i] = math.NaN()
	}
	studies.Add("allnan", short) // no finite rows → per-element error
	studies.Add("ok2", w.series(10, 1.0, -0.5))

	for _, workers := range workerCounts {
		g, err := MustNewAssessor(Config{Workers: workers}).
			AssessGroup(studies, controls, w.changeAt, kpi.VoiceRetainability)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(g.PerElement) != 2 {
			t.Fatalf("workers %d: %d surviving elements, want 2", workers, len(g.PerElement))
		}
		if g.PerElement[0].ElementID != "ok1" || g.PerElement[1].ElementID != "ok2" {
			t.Errorf("workers %d: surviving order %s,%s; want ok1,ok2",
				workers, g.PerElement[0].ElementID, g.PerElement[1].ElementID)
		}
	}
}

// TestAssessorConcurrentUse drives one shared assessor from many
// goroutines — the race-detector target for the worker pool and the
// read-only sharing of panels and design matrices.
func TestAssessorConcurrentUse(t *testing.T) {
	w := newSynthWorld(21, 28, 14)
	controls := w.controls(9, 0.5, 1.5)
	study := w.series(10, 1.0, -0.4)
	a := MustNewAssessor(Config{Workers: 4})
	want, err := assessElementSeries(a, "s", study, controls, w.changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	results := make([]finished, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = assessElementSeries(a, "s", study, controls, w.changeAt, kpi.VoiceRetainability)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if err := equalElementResults(want, results[c]); err != nil {
			t.Errorf("caller %d: concurrent result differs: %v", c, err)
		}
	}
}
