//go:build !race

package core

// The byte budget of a warm group assessment. Excluded under the race
// detector, which makes sync.Pool drop a random quarter of its Puts.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

// TestPoolMarginalBytesPerIteration pins the pools' purpose in bytes:
// the heap a warm AssessGroup allocates per extra sampling iteration is
// ~0, because unit working sets and forecast arenas are recycled. Without
// the pools it is ~20 KiB (two sampled designs, QR storage and
// leverages per iteration, plus every element's forecasts) — bytes
// that TestAssessElementAllocs, which counts objects, does not see.
func TestPoolMarginalBytesPerIteration(t *testing.T) {
	// The committed benchmark's panel shape: 15 controls, 112 points
	// split in the middle, four fully observed studies.
	w := newSynthWorld(45, 112, 56)
	controls := w.controls(15, 0.8, 1.2)
	studies := timeseries.NewPanel(w.ix)
	for i, shift := range []float64{-0.5, 0, 0.3, 0.6} {
		studies.Add(controlID(20+i), w.series(10, 0.9+0.1*float64(i), shift))
	}
	changeAt := w.changeAt
	// Measure on one P, as testing.AllocsPerRun does: sync.Pool caches
	// per P, and a goroutine moved to another P mid-measurement would
	// miss the factor set it warmed and count its rebuild.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(iters int) float64 {
		a := MustNewAssessor(Config{Workers: 1, Iterations: iters})
		run := func() {
			if _, err := a.AssessGroup(studies, controls, changeAt, kpi.VoiceRetainability); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the sample cache and the pools at this shape
		// A collection during the measured runs empties the pools, and
		// re-allocating their buffers would be counted as per-iteration
		// bytes: keep the collector off until the measurement is done.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	b50, b200 := measure(50), measure(200)
	perIter := (b200 - b50) / 150
	// What remains is finishElement's per-iteration gather (two slice
	// headers and an R² per element and iteration) and the median's
	// column buffer.
	if perIter > 1024 {
		t.Errorf("bytes per extra sampling iteration = %.0f (50 iterations: %.0f B, 200: %.0f B), want ~0", perIter, b50, b200)
	}
}
