package core

// Reusable memory of the regression hot path. Every computed assessment
// runs Iterations × (design build + QR factorize + solve + leverages)
// per element and keeps every iteration's forecasts for the median;
// done naively that is dozens of heap allocations per iteration and
// about half a MiB of buffers per group. Two mechanisms bring it to
// (amortized) zero:
//
//   - three process-wide working-set pools, shared by every assessor
//     (the serve tier builds a new assessor per job, so a pool on the
//     assessor would never outlive a job). scratchPool holds one
//     worker's design, QR and solver buffers for the sampling loop;
//     fitPool one element's per-iteration forecast slots; factorPool
//     one panel's per-iteration sampled designs, QR factors and
//     leverages (group_shared.go). Each buffer has exactly one release
//     point: a worker scratch when its fan-out ends, a fit arena after
//     finishElement returns, group-local factors at the end of
//     assessGroup, batch-shared factors through PanelFactors.Release.
//     Slot state is reset on acquire and every float buffer is fully
//     overwritten before it is read, so a recycled buffer never leaks
//     into a result. The pools hold at most the concurrently assessed
//     groups × the largest panel shape; the garbage collector drains
//     what goes unused.
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
	scratchPool = sync.Pool{New: func() any { return &elemScratch{} }}
	fitPool     = sync.Pool{New: func() any { return &fitArena{} }}
	factorPool  = sync.Pool{New: func() any { return &panelFactors{} }}
)

// elemScratch is one worker's reusable buffers for the sampling loop.
// All fields are value types or slices grown in place, so a pooled
// scratch stabilizes at the workload's high-water shape and stops
// allocating.
type elemScratch struct {
	xb, xa, xfit linalg.Matrix // sampled design matrices (with intercept)
	qr           linalg.QR     // the single factorization per iteration
	beta         []float64     // solved coefficients
	swork        []float64     // QR solve work vector (Qᵀb)
	hs           []float64     // hat-matrix diagonal
	zwork        []float64     // leverage forward-solve work vector
}

// growFloats returns buf resized to n, reusing its storage when capacity
// allows. Contents are unspecified; callers overwrite fully.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// workerScratches is the per-call set of lazily acquired worker arenas.
type workerScratches []*elemScratch

func newWorkerScratches(workers, n int) workerScratches {
	if workers <= 1 || n <= 1 {
		return make(workerScratches, 1)
	}
	if workers > n {
		workers = n
	}
	return make(workerScratches, workers)
}

// get returns worker w's scratch, acquiring it from the pool on first use.
func (ws workerScratches) get(w int) *elemScratch {
	if ws[w] == nil {
		ws[w] = scratchPool.Get().(*elemScratch)
	}
	return ws[w]
}

// release returns every acquired scratch to the pool.
func (ws workerScratches) release() {
	for _, s := range ws {
		if s != nil {
			scratchPool.Put(s)
		}
	}
}

// fitArena is one element's per-iteration fit slots, with every
// forecast vector carved out of one buffer: iteration it owns slot it
// exclusively, so the worker fan-out writes race-free.
type fitArena struct {
	fits []iterFit
	buf  []float64
}

// acquireFits returns a pooled arena of iters slots with before/after
// forecasts of lenB/lenA points. Every slot starts not ok with zero R²,
// whatever the arena held before; the forecast vectors are
// unspecified until the iteration that owns them writes them in full.
func acquireFits(iters, lenB, lenA int) *fitArena {
	f := fitPool.Get().(*fitArena)
	if cap(f.fits) < iters {
		f.fits = make([]iterFit, iters)
	}
	f.fits = f.fits[:iters]
	stride := lenB + lenA
	f.buf = growFloats(f.buf, iters*stride)
	for it := range f.fits {
		off := it * stride
		f.fits[it] = iterFit{
			fb: f.buf[off : off+lenB : off+lenB],
			fa: f.buf[off+lenB : off+stride : off+stride],
		}
	}
	return f
}

// release returns the arena to the pool. Nothing may read its slots
// afterwards: finishElement copies every forecast it keeps.
func (f *fitArena) release() { fitPool.Put(f) }

// acquirePanelFactors returns pooled panel factors sized for iters
// iterations over lenB before-window points. Every iteration slot starts
// not ok with no leverages, whatever the factors held before;
// prepPanelFactors sets the panel's identity and rebuilds each accepted
// slot's designs, factorization and leverages in place.
func acquirePanelFactors(iters, lenB int) *panelFactors {
	pf := factorPool.Get().(*panelFactors)
	pf.factorized = 0
	if cap(pf.fitRows) < lenB {
		pf.fitRows = make([]int, lenB)
	}
	pf.fitRows = pf.fitRows[:lenB]
	for i := range pf.fitRows {
		pf.fitRows[i] = i
	}
	if cap(pf.iters) < iters {
		pf.iters = make([]iterShared, iters)
	}
	pf.iters = pf.iters[:iters]
	for it := range pf.iters {
		pf.iters[it].ok, pf.iters[it].hs = false, nil
	}
	return pf
}

// release returns the factors to the pool. The caller must be their
// only owner: no assessment may read them afterwards.
func (pf *panelFactors) release() { factorPool.Put(pf) }

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
