package core

// Panel factors and cross-element factorization sharing. Every element
// fits on panel factors: the per-iteration products of one control
// panel (the sampled designs, the QR factorization of the design on the
// fit rows, the hat-matrix diagonal). The control columns iteration it
// draws depend only on (Seed, it, n, k) — never on the study element —
// so when an element's before window has no missing data its fit rows
// cover the whole window and these products are element-independent
// too: AssessGroup computes them once and every qualifying element
// reuses them read-only, reducing the group's before-window
// factorizations from Iterations × Elements to exactly Iterations.
// Elements with missing before-window data prepare factors on their own
// fit rows and run the same kernel (assessElement); results are
// bit-identical either way because the accept/resample decision depends
// on the design alone (resample.go) and the arithmetic is the same,
// operation for operation.
//
// The same observation extends across changes: the per-iteration
// products depend only on the control panel's values, the change time
// and the assessor configuration — never on the study group. A batch of
// changes whose (control-set, KPI, window) signatures coincide therefore
// shares one PanelFactors handle (see PrepPanelFactors and
// AssessGroupPrepared), reducing a changelog's factorizations from
// Iterations × Changes to Iterations per distinct control panel.
//
// Panel factors are pooled (scratch.go) and have one owner each: the
// assessGroup call that prepared them, released when it returns, or the
// PanelFactors handle, released by its holder once every assessment
// sharing it has returned. An assessment that adopts a handle only
// reads it and never releases it.

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// iterShared is one sampling iteration's products on one set of fit
// rows. All fields are read-only after prepPanelFactors returns;
// SolveInto and LeveragesInto only read the factorization, so concurrent
// solves against one iterShared are safe. The buffers are rebuilt in
// place when pooled factors are reused.
type iterShared struct {
	xb, xa linalg.Matrix // sampled before/after designs (with intercept)
	xfit   linalg.Matrix // xb restricted to the fit rows; unused unless partial
	qr     linalg.QR     // factorization of the fit design
	hs     []float64     // hat-matrix diagonal of the fit design, backed by lev; nil if rank deficient
	lev    []float64     // storage behind hs, one per fit row
	work   []float64     // leverage forward-solve work vector, one per column
	ok     bool          // false for underdetermined or unusable draws (skipped)
}

// panelFactors is everything an element fit needs that is derived from
// (control panel, change time, fit rows, assessor config) alone. Factors
// on the whole before window are reusable read-only by every group —
// and every change — assessed against a value-identical control panel at
// the same change time, until their owner releases them to the pool;
// factors on a partial set of fit rows serve the one element whose
// missing data defined them.
type panelFactors struct {
	n, k       int
	index      timeseries.Index
	splitAt    time.Time
	fitRows    []int
	partial    bool // the fit rows are a strict subset of the before window
	iters      []iterShared
	factorized int64 // QR factorizations the compute pass performed
	// slabB holds every slot's buffers sized by the before window, slabA
	// its after-window designs (see acquirePanelFactors).
	slabB, slabA []float64
	pool         *sync.Pool // the pool release returns them to
}

// fit returns iteration st's design on the fit rows: xfit when the fit
// rows are partial, the sampled design itself otherwise.
func (pf *panelFactors) fit(st *iterShared) *linalg.Matrix {
	if pf.partial {
		return &st.xfit
	}
	return &st.xb
}

// groupShared is the per-group preparation shared by every qualifying
// element: the panel factors plus this study group's eligibility mask
// (aligned with the group's ID order).
type groupShared struct {
	*panelFactors
	eligible []bool
}

// allFinite reports whether xs contains only finite values — the
// no-missing-data condition under which an element's fit rows cover the
// whole before window.
func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// studyEligibility reports, per study element, whether its before window
// is fully observed (the sharing qualification), plus whether any
// element qualifies at all.
func studyEligibility(studies *timeseries.Panel, changeAt time.Time) (eligible []bool, any bool) {
	ids := studies.IDs()
	eligible = make([]bool, len(ids))
	for i, id := range ids {
		yb, _ := studies.MustSeries(id).SplitAt(changeAt)
		if allFinite(yb.Values) {
			eligible[i] = true
			any = true
		}
	}
	return eligible, any
}

// prepGroupShared qualifies the group for cross-element factorization
// sharing and, when at least one element qualifies, computes the shared
// per-iteration products. It returns nil when the panel itself cannot be
// assessed uniformly (index mismatch, too few controls, windows too
// short, no admissible sample size) or when no element has a fully
// observed before window — every element then prepares its own factors.
func (a *Assessor) prepGroupShared(ctx context.Context, sc *obs.Scope, studies, controls *timeseries.Panel, changeAt time.Time) *groupShared {
	if !studies.Index().Equal(controls.Index()) {
		return nil
	}
	eligible, any := studyEligibility(studies, changeAt)
	if !any {
		return nil
	}
	pf := a.prepPanelFactors(ctx, sc, controls, changeAt, nil, &groupFactorPool)
	if pf == nil {
		return nil
	}
	return &groupShared{panelFactors: pf, eligible: eligible}
}

// prepPanelFactors computes the per-iteration products for one control
// panel split at changeAt, fitted on the given before-window rows (nil
// means the whole before window), in factors taken from pool. It
// returns nil when the panel cannot be assessed on those rows (too few
// controls, windows too short, no admissible sample size).
func (a *Assessor) prepPanelFactors(ctx context.Context, sc *obs.Scope, controls *timeseries.Panel, changeAt time.Time, fitRows []int, pool *sync.Pool) *panelFactors {
	n := controls.Len()
	if n < a.cfg.MinControls {
		return nil
	}
	xBefore, xAfter := controls.SplitAt(changeAt)
	lenB, lenA := xBefore.Index().N, xAfter.Index().N
	nFit := lenB
	if fitRows != nil {
		nFit = len(fitRows)
	}
	if nFit < 3 || lenA < 3 {
		return nil
	}
	k := a.sampleSize(n, nFit)
	if k < 1 {
		return nil
	}

	prep := sc.Child(obs.SpanGroupPrep)
	defer prep.End()
	pf := acquirePanelFactors(pool, a.cfg.Iterations, lenB, lenA, k, fitRows)
	pf.n, pf.k, pf.index, pf.splitAt = n, k, controls.Index(), changeAt
	xbFull := xBefore.DesignMatrix()
	xaFull := xAfter.DesignMatrix()
	samples := a.samplesFor(n, k)
	cancelable := ctx.Done() != nil
	var factorized, resampled atomic.Int64
	forEach(a.cfg.Workers, a.cfg.Iterations, func(it int) {
		if cancelable && ctx.Err() != nil {
			return
		}
		st := &pf.iters[it]
		cols := samples[it]
		for attempt := 0; ; attempt++ {
			xbFull.SelectColsWithIntercept(&st.xb, cols)
			if pf.partial {
				st.xb.SelectRowsInto(&st.xfit, pf.fitRows)
			}
			xfit := pf.fit(st)
			if xfit.Rows() < xfit.Cols() {
				// Underdetermined draw: every redraw has the same shape, so
				// resampling cannot help; skip it (the median aggregation
				// tolerates missing iterations).
				return
			}
			st.qr.Factor(xfit)
			factorized.Add(1)
			// The solver chain's failure conditions depend on the design
			// alone, so the prep decides accept/resample once for every
			// element fitting on these factors (see resample.go).
			if designUsable(&st.qr, xfit) {
				break
			}
			if attempt >= maxResampleAttempts {
				return
			}
			cols = a.resampleColumns(n, k, it, attempt+1)
			resampled.Add(1)
		}
		xaFull.SelectColsWithIntercept(&st.xa, cols)
		if err := st.qr.LeveragesInto(st.lev, pf.fit(st), st.work); err == nil {
			st.hs = st.lev
		}
		st.ok = true
	})
	pf.factorized = factorized.Load()
	sc.Counter(obs.MetricBeforeFactorizations).Add(factorized.Load())
	sc.Counter(obs.MetricControlsSampled).Add(int64(a.cfg.Iterations * k))
	sc.Counter(obs.MetricIterationsResampled).Add(resampled.Load())
	return pf
}

// PanelFactors is an opaque, immutable handle to the element- and
// study-independent sampling products of one (control panel, change
// time) pair: the per-iteration sampled designs, QR factorizations and
// hat-matrix diagonals every assessment against that panel reuses. It is
// safe for concurrent read-only use by any number of
// AssessGroupPrepared calls.
//
// The handle carries no copy of the panel's values, so the caller must
// only reuse it across panels that are value-identical (same column IDs,
// same values, same index) at the same change time — the batch layer
// guarantees this by keying its factor cache on panel content.
// Index/shape/split mismatches are detected and fall back to a fresh
// computation; value mismatches are not detectable and would silently
// reuse the wrong designs.
//
// Lifetime: the handle owns pooled buffers from PrepPanelFactors until
// Release. The holder calls Release once every AssessGroupPrepared call
// sharing the handle has returned; after it the handle is empty and an
// assessment passed it computes its factors afresh. A handle never
// released is reclaimed by the garbage collector like any other value.
type PanelFactors struct {
	pf *panelFactors
}

// Release returns the handle's buffers to the pool and leaves the handle
// empty. It is nil-safe and idempotent, and must not run concurrently
// with an assessment using the handle.
func (f *PanelFactors) Release() {
	if f == nil || f.pf == nil {
		return
	}
	f.pf.release()
	f.pf = nil
}

// Factorizations returns the number of QR factorizations the compute
// pass performed — the work a reusing assessment skips.
func (f *PanelFactors) Factorizations() int64 {
	if f == nil || f.pf == nil {
		return 0
	}
	return f.pf.factorized
}

// PrepPanelFactors computes the shareable per-iteration products for one
// control panel split at changeAt, independent of any study group. It
// returns nil when the panel cannot take the shared path (too few
// controls, windows too short, no admissible sample size) — callers then
// pass nil to AssessGroupPrepared, which behaves exactly like
// AssessGroupContext. The caller owns the handle; see PanelFactors for
// its lifetime.
func (a *Assessor) PrepPanelFactors(ctx context.Context, controls *timeseries.Panel, changeAt time.Time) *PanelFactors {
	pf := a.prepPanelFactors(ctx, a.obs, controls, changeAt, nil, &groupFactorPool)
	if pf == nil {
		return nil
	}
	return &PanelFactors{pf: pf}
}

// SharedEligible reports whether at least one study element qualifies
// for the shared-factorization path (a fully observed before window) —
// the precondition under which precomputing PanelFactors for the group's
// control panel is useful rather than wasted work.
func SharedEligible(studies *timeseries.Panel, changeAt time.Time) bool {
	_, any := studyEligibility(studies, changeAt)
	return any
}

// adoptPanelFactors wraps precomputed panel factors for one study group
// when they apply to this exact assessment: the factors must describe a
// control panel of the same index, column count and change-time split,
// and at least one study element must be eligible for sharing. It
// returns nil otherwise — the caller then recomputes from scratch, so a
// stale or mismatched handle can cost time but never correctness.
func (a *Assessor) adoptPanelFactors(sc *obs.Scope, shared *PanelFactors, studies, controls *timeseries.Panel, changeAt time.Time) *groupShared {
	if shared == nil || shared.pf == nil {
		return nil
	}
	pf := shared.pf
	if !studies.Index().Equal(controls.Index()) ||
		!controls.Index().Equal(pf.index) ||
		controls.Len() != pf.n ||
		!pf.splitAt.Equal(changeAt) {
		return nil
	}
	eligible, any := studyEligibility(studies, changeAt)
	if !any {
		return nil
	}
	sc.Counter(obs.MetricBatchFactorizationsReused).Add(pf.factorized)
	return &groupShared{panelFactors: pf, eligible: eligible}
}
