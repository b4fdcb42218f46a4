package core

// Reusable memory of the regression hot path. Every computed assessment
// runs Iterations × (design build + QR factorize + solve + leverages)
// per factor group and keeps every element's per-iteration forecasts
// for the median; done naively that is dozens of heap allocations per
// iteration. Two mechanisms bring it to (amortized) zero:
//
//   - process-wide working-set pools, shared by every assessor (the
//     serve tier builds a new assessor per job, so a pool on the
//     assessor would never outlive a job). fitPool holds one element's
//     per-iteration forecast slots, acquired when the group kernel
//     validates the element and released when finishElement has copied
//     what it keeps; unitPool holds one work unit's working set — one
//     iteration's sampled designs, factorization, leverages and solve
//     vectors — which each worker of a group's iteration fan-out takes
//     for the whole fan-out and returns at its end.
//     Slot state is reset on acquire (fit slots) or before each design
//     build (the unit's leverages), and every float buffer is fully
//     overwritten before it is read, so a recycled buffer never leaks
//     into a result. The pools hold one group's elements' arenas plus
//     one unit working set per worker, at the largest panel shape; the
//     garbage collector drains what goes unused. Taking a working set
//     per worker rather than per unit keeps the race detector, whose
//     sync.Pool drops a quarter of its Puts, from rebuilding one every
//     few iterations.
//   - a deterministic sample cache: the control columns iteration it
//     draws depend only on (Seed, it, n, k) — never on the element — so
//     the per-iteration column sets are computed once per panel shape and
//     shared read-only across every element, KPI, and repeated call. This
//     also hoists the rand.NewSource seeding (~16% of the pre-arena
//     profile) out of the hot loop entirely.
//
// Nothing here may perturb the (Seed, iteration) RNG-derivation contract
// of parallel.go: cached samples are the exact draws the contract
// specifies, and pooled buffers are fully overwritten before every use.

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/linalg"
)

// The process-wide working-set pools (see the file comment).
var (
	fitPool  = sync.Pool{New: func() any { return &fitArena{} }}
	unitPool = sync.Pool{New: func() any { return &unitScratch{} }}
)

// growFloats returns buf resized to n, reusing its storage when capacity
// allows. Contents are unspecified; callers overwrite fully.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// carve cuts the next n floats off *buf, capped so an append cannot
// spill into the neighbouring slice.
func carve(buf *[]float64, n int) []float64 {
	b := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return b
}

// fitArena is one element's per-iteration fit slots, with every
// forecast carved out of one buffer: iteration it owns slot it
// exclusively, so the iteration fan-out writes race-free.
type fitArena struct {
	fits []iterFit
	buf  []float64
}

// acquireFits returns a pooled arena of iters slots with before/after
// forecasts of lenB/lenA points. Every slot starts not ok with zero R²,
// whatever the arena held before; the forecasts are unspecified until
// the iteration that owns them writes them in full.
func acquireFits(iters, lenB, lenA int) *fitArena {
	f := fitPool.Get().(*fitArena)
	if cap(f.fits) < iters {
		f.fits = make([]iterFit, iters)
	}
	f.fits = f.fits[:iters]
	stride := lenB + lenA
	f.buf = growFloats(f.buf, iters*stride)
	for it := range f.fits {
		buf := f.buf[it*stride : (it+1)*stride]
		f.fits[it] = iterFit{fb: carve(&buf, lenB), fa: carve(&buf, lenA)}
	}
	return f
}

// release returns the arena to the pool. Nothing may read its slots
// afterwards: finishElement copies every forecast it keeps.
func (f *fitArena) release() { fitPool.Put(f) }

// unitScratch is one work unit's working set: the sampled before/after
// designs of one iteration, the design restricted to a gappy element's
// fit rows, the factorization of the fit design and its leverages, and
// the coefficients and work vector of one element's solve. A unit
// rebuilds it in place (SelectColsWithIntercept, SelectRowsInto,
// QR.Factor, LeveragesInto, SolveInto) for every design it factors and
// every element it solves, so a warm scratch allocates nothing.
type unitScratch struct {
	xb, xa, xfit linalg.Matrix
	qr           linalg.QR
	hs           []float64 // leverages of the current design, backed by lev; nil if rank deficient
	lev          []float64
	beta         []float64 // the current element's coefficients
	work         []float64 // leverage and QR solve work vector, one per fit row
}

// fit returns the matrix design d is fitted on: xfit when d's fit rows
// are a strict subset of the before window, the sampled design itself
// otherwise.
func (s *unitScratch) fit(d *design) *linalg.Matrix {
	if d.partial {
		return &s.xfit
	}
	return &s.xb
}

// sampleKey identifies a control-panel shape: the samples for iteration
// it depend only on (Seed, it, n, k), which is what makes them shareable.
type sampleKey struct{ n, k int }

// maxSampleShapes bounds the sample cache; production pipelines see a
// handful of panel shapes (one per control-group size), so the bound only
// guards pathological callers. Beyond it, samples are computed uncached.
const maxSampleShapes = 64

// runtimeState is the mutable, concurrency-safe machinery an Assessor
// carries alongside its immutable Config: the deterministic sample
// cache, which depends on the configuration's Seed and Iterations.
// WithObserver shares it between derived assessors — it is purely a
// performance artifact and never observable in assessment output.
type runtimeState struct {
	mu      sync.Mutex
	samples map[sampleKey][][]int
}

func newRuntimeState() *runtimeState {
	return &runtimeState{samples: make(map[sampleKey][][]int)}
}

// samplesFor returns the sorted control-column sample for every sampling
// iteration on an n-column panel with sample size k. The result is the
// exact sequence sampleColumns(iterRNG(Seed, it), n, k) would produce —
// the determinism contract — computed once per (n, k) shape and cached
// read-only. Callers must not mutate the returned slices.
func (a *Assessor) samplesFor(n, k int) [][]int {
	rt := a.rt
	key := sampleKey{n, k}
	rt.mu.Lock()
	if s, ok := rt.samples[key]; ok {
		rt.mu.Unlock()
		return s
	}
	rt.mu.Unlock()

	s := make([][]int, a.cfg.Iterations)
	perm := make([]int, n)
	flat := make([]int, a.cfg.Iterations*k)
	// One generator, reseeded per iteration: Rand.Seed rebuilds exactly
	// the state iterRNG's rand.NewSource builds, so the draws are the
	// contract's without a fresh ~4.9 KiB source per iteration.
	rng := rand.New(rand.NewSource(0))
	for it := range s {
		rng.Seed(deriveSeed(a.cfg.Seed, uint64(it)))
		permInto(rng, perm)
		cols := flat[it*k : (it+1)*k : (it+1)*k]
		copy(cols, perm[:k])
		sort.Ints(cols)
		s[it] = cols
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if cached, ok := rt.samples[key]; ok {
		return cached // another goroutine won the race; share its copy
	}
	if len(rt.samples) < maxSampleShapes {
		rt.samples[key] = s
	}
	return s
}
