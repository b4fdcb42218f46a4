package core

// The byte budget of a warm group assessment. The working-set lists
// keep what they hold through collections and under the race detector,
// so the budget holds under -race and with the collector on.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

// benchGroup is the committed benchmark's panel shape: 15 controls, 112
// points split in the middle, four fully observed studies.
func benchGroup() (studies, controls *timeseries.Panel, changeAt time.Time) {
	w := newSynthWorld(45, 112, 56)
	controls = w.controls(15, 0.8, 1.2)
	studies = timeseries.NewPanel(w.ix)
	for i, shift := range []float64{-0.5, 0, 0.3, 0.6} {
		studies.Add(controlID(20+i), w.series(10, 0.9+0.1*float64(i), shift))
	}
	return studies, controls, w.changeAt
}

// warmGroupBytes returns the heap a warm AssessGroup of the benchmark's
// shape allocates per call at iters sampling iterations. It starts from
// empty working-set lists: what other tests left on them could fill a
// list's budget, so that it drops this shape's larger arenas.
func warmGroupBytes(t *testing.T, iters int) float64 {
	t.Helper()
	fitList.Drain(func(*fitArena) {})
	unitList.Drain(func(*unitScratch) {})
	groupList.Drain(func(*groupScratch) {})
	studies, controls, changeAt := benchGroup()
	a := MustNewAssessor(Config{Workers: 1, Iterations: iters})
	run := func() {
		if _, err := a.AssessGroup(studies, controls, changeAt, kpi.VoiceRetainability); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the sample cache and the lists at this shape
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestPoolMarginalBytesPerIteration pins the lists' purpose in bytes:
// the heap a warm AssessGroup allocates per extra sampling iteration is
// ~0, because unit working sets and forecast arenas are recycled. Without
// the lists it is ~20 KiB (two sampled designs, QR storage and
// leverages per iteration, plus every element's forecasts) — bytes
// that TestAssessElementAllocs, which counts objects, does not see.
func TestPoolMarginalBytesPerIteration(t *testing.T) {
	b50, b200 := warmGroupBytes(t, 50), warmGroupBytes(t, 200)
	perIter := (b200 - b50) / 150
	// Nothing a warm group allocates grows with Iterations: finishElement
	// reads the fit arenas in place and aggregates in the listed working
	// set, and the sample cache holds both shapes.
	if perIter > 64 {
		t.Errorf("bytes per extra sampling iteration = %.0f (50 iterations: %.0f B, 200: %.0f B), want ~0", perIter, b50, b200)
	}
	t.Logf("%.1f B per extra iteration (50 iterations: %.0f B, 200: %.0f B)", perIter, b50, b200)
}

// TestGroupBytesPerElement pins what a warm group assessment allocates
// per element: its share of the result slices — the element's verdict
// and the group's vote — and nothing that grows with the panel, since
// the forecast medians and differences stay in the listed arenas and
// working sets and the element's kernel record and the group's designs
// on the group list. It reads 234 B. Allocating each group's elements
// and designs cost 682 B per element; keeping both forecasts and both
// differences in the result 2.7 KiB at 56 + 56 points; building the
// control designs through SplitAt panels, gathering the forecasts and
// finishing in fresh buffers 17 KiB.
func TestGroupBytesPerElement(t *testing.T) {
	studies, _, _ := benchGroup()
	perElem := warmGroupBytes(t, DefaultIterations) / float64(studies.Len())
	if perElem > 320 {
		t.Errorf("warm AssessGroup allocates %.0f B per element, want <= 320", perElem)
	}
	t.Logf("%.0f B per element", perElem)
}
