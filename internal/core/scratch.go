package core

// Reusable memory of the regression hot path. Every computed assessment
// runs Iterations × (design build + QR factorize + solve + leverages)
// per element and keeps every iteration's forecasts for the median;
// done naively that is dozens of heap allocations per iteration and
// about half a MiB of buffers per group. Two mechanisms bring it to
// (amortized) zero:
//
//   - process-wide working-set pools, shared by every assessor (the
//     serve tier builds a new assessor per job, so a pool on the
//     assessor would never outlive a job). fitPool holds one element's
//     per-iteration forecast slots and solve vectors; groupFactorPool
//     one panel's per-iteration sampled designs, QR factors and
//     leverages for a group or a batch (group_shared.go);
//     elementFactorPool the same for one element's own fit rows. Each
//     buffer has exactly one release point: a fit arena after
//     finishElement returns, an element's own factors when
//     assessElement returns, group-local factors at the end of
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

// The process-wide working-set pools (see the file comment). An
// element's own factors have a pool of their own: concurrent element
// calls would otherwise leave sets shaped by their fit rows where the
// next group's acquire picks them up and regrows them whole.
var (
	fitPool           = sync.Pool{New: func() any { return &fitArena{} }}
	groupFactorPool   = sync.Pool{New: func() any { return &panelFactors{} }}
	elementFactorPool = sync.Pool{New: func() any { return &panelFactors{} }}
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
// forecast and solve vector carved out of one buffer: iteration it owns
// slot it exclusively, so the iteration fan-out writes race-free.
type fitArena struct {
	fits []iterFit
	buf  []float64
}

// acquireFits returns a pooled arena of iters slots with before/after
// forecasts of lenB/lenA points and solve vectors for a design of nFit
// rows and cols columns. Every slot starts not ok with zero R²,
// whatever the arena held before; the vectors are unspecified until the
// iteration that owns them writes them in full.
func acquireFits(iters, lenB, lenA, nFit, cols int) *fitArena {
	f := fitPool.Get().(*fitArena)
	if cap(f.fits) < iters {
		f.fits = make([]iterFit, iters)
	}
	f.fits = f.fits[:iters]
	stride := lenB + lenA + cols + nFit
	f.buf = growFloats(f.buf, iters*stride)
	for it := range f.fits {
		buf := f.buf[it*stride : (it+1)*stride]
		f.fits[it] = iterFit{
			fb:    carve(&buf, lenB),
			fa:    carve(&buf, lenA),
			beta:  carve(&buf, cols),
			swork: carve(&buf, nFit),
		}
	}
	return f
}

// release returns the arena to the pool. Nothing may read its slots
// afterwards: finishElement copies every forecast it keeps.
func (f *fitArena) release() { fitPool.Put(f) }

// acquirePanelFactors returns panel factors from pool sized for iters
// iterations of a k-column sample over lenB/lenA before/after points,
// fitted on fitRows (nil: every before-window row). Every slot's
// designs, factorization and leverages are carved out of two buffers,
// so a factor set costs a few allocations however many iterations it
// holds and one the pool drops is cheap to rebuild. What is sized by the
// before window and what is sized by the after window sit in separate
// buffers, so a change time that moves the split regrows only the side
// that grew. Every iteration slot starts not ok with no leverages,
// whatever the factors held before; prepPanelFactors sets the panel's
// identity and rebuilds each accepted slot in place.
func acquirePanelFactors(pool *sync.Pool, iters, lenB, lenA, k int, fitRows []int) *panelFactors {
	pf := pool.Get().(*panelFactors)
	pf.pool = pool
	pf.factorized = 0
	pf.partial = fitRows != nil
	pf.fitRows = append(pf.fitRows[:0], fitRows...)
	if !pf.partial {
		for i := 0; i < lenB; i++ {
			pf.fitRows = append(pf.fitRows, i)
		}
	}
	if cap(pf.iters) < iters {
		pf.iters = make([]iterShared, iters)
	}
	pf.iters = pf.iters[:iters]
	cols, nFit, xfitLen := k+1, len(pf.fitRows), 0
	if pf.partial {
		xfitLen = nFit * cols
	}
	strideB, strideA := (lenB+nFit)*cols+xfitLen+nFit+2*cols, lenA*cols
	pf.slabB = growFloats(pf.slabB, iters*strideB)
	pf.slabA = growFloats(pf.slabA, iters*strideA)
	for it := range pf.iters {
		buf := pf.slabB[it*strideB : (it+1)*strideB]
		st := &pf.iters[it]
		st.xb = linalg.Over(carve(&buf, lenB*cols))
		st.xa = linalg.Over(pf.slabA[it*strideA : (it+1)*strideA])
		st.xfit = linalg.Over(carve(&buf, xfitLen))
		st.qr = linalg.QROver(carve(&buf, nFit*cols), carve(&buf, cols))
		st.lev, st.work = carve(&buf, nFit), carve(&buf, cols)
		st.ok, st.hs = false, nil
	}
	return pf
}

// release returns the factors to the pool they came from. The caller
// must be their only owner: no assessment may read them afterwards.
func (pf *panelFactors) release() { pf.pool.Put(pf) }

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
