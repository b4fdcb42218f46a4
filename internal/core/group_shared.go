package core

// Cross-element factorization sharing for AssessGroup. The control
// columns iteration it draws depend only on (Seed, it, n, k) — never on
// the study element — so every element of a group fits against the same
// per-iteration design matrices. When an element's before window has no
// missing data its fit rows cover the whole window, and the expensive
// per-iteration products (the sampled designs, the QR factorization, the
// hat-matrix diagonal) are element-independent too: AssessGroup computes
// them once and every qualifying element reuses them read-only, reducing
// the group's before-window factorizations from Iterations × Elements to
// exactly Iterations. Elements with missing before-window data fall back
// to the ordinary per-element AssessElement path; results are
// bit-identical either way because the shared products are precisely the
// values the per-element path would compute.
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
	"sync/atomic"
	"time"

	"repro/internal/kpi"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// iterShared is one sampling iteration's element-independent products.
// All fields are read-only after prepPanelFactors returns; SolveInto and
// LeveragesInto only read the factorization, so concurrent solves against
// one iterShared are safe. The buffers are rebuilt in place when pooled
// factors are reused.
type iterShared struct {
	xb, xa linalg.Matrix // sampled before/after designs (with intercept)
	qr     linalg.QR     // factorization of xb
	hs     []float64     // hat-matrix diagonal of xb, backed by lev; nil if rank deficient
	lev    []float64     // storage behind hs
	work   []float64     // leverage forward-solve work vector
	ok     bool          // false for underdetermined draws (skipped)
}

// panelFactors is the studies-independent portion of a group's shared
// preparation: everything derived from (control panel, change time,
// assessor config) alone. One panelFactors is reusable read-only by
// every group — and every change — assessed against a value-identical
// control panel at the same change time, until its owner releases it to
// the pool.
type panelFactors struct {
	n, k       int
	index      timeseries.Index
	splitAt    time.Time
	fitRows    []int
	iters      []iterShared
	factorized int64 // QR factorizations the compute pass performed
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
// observed before window — the caller then uses the per-element path
// unchanged.
func (a *Assessor) prepGroupShared(ctx context.Context, sc *obs.Scope, studies, controls *timeseries.Panel, changeAt time.Time) *groupShared {
	if !studies.Index().Equal(controls.Index()) {
		return nil
	}
	eligible, any := studyEligibility(studies, changeAt)
	if !any {
		return nil
	}
	pf := a.prepPanelFactors(ctx, sc, controls, changeAt)
	if pf == nil {
		return nil
	}
	return &groupShared{panelFactors: pf, eligible: eligible}
}

// prepPanelFactors computes the studies-independent per-iteration
// products for one control panel split at changeAt. It returns nil when
// the panel cannot take the shared path (too few controls, windows too
// short, no admissible sample size).
func (a *Assessor) prepPanelFactors(ctx context.Context, sc *obs.Scope, controls *timeseries.Panel, changeAt time.Time) *panelFactors {
	n := controls.Len()
	if n < a.cfg.MinControls {
		return nil
	}
	xBefore, xAfter := controls.SplitAt(changeAt)
	lenB, lenA := xBefore.Index().N, xAfter.Index().N
	if lenB < 3 || lenA < 3 {
		return nil
	}
	k := a.sampleSize(n, lenB)
	if k < 1 {
		return nil
	}

	prep := sc.Child(obs.SpanGroupPrep)
	defer prep.End()
	pf := acquirePanelFactors(a.cfg.Iterations, lenB)
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
			xb := xbFull.SelectColsWithIntercept(&st.xb, cols)
			if xb.Rows() < xb.Cols() {
				// Underdetermined draw: resampling cannot change the shape;
				// the per-element path skips it too.
				return
			}
			st.qr.Factor(xb)
			factorized.Add(1)
			// The solver chain's failure conditions depend on the design
			// alone, so the group decides accept/resample once, exactly as
			// every element would alone (see resample.go).
			if designUsable(&st.qr, xb) {
				break
			}
			if attempt >= maxResampleAttempts {
				return
			}
			cols = a.resampleColumns(n, k, it, attempt+1)
			resampled.Add(1)
		}
		xaFull.SelectColsWithIntercept(&st.xa, cols)
		st.lev = growFloats(st.lev, st.xb.Rows())
		st.work = growFloats(st.work, st.xb.Cols())
		if err := st.qr.LeveragesInto(st.lev, &st.xb, st.work); err == nil {
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
	pf := a.prepPanelFactors(ctx, a.obs, controls, changeAt)
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

// assessElementShared is AssessElement for an element whose before window
// is fully observed, fitting against the group's shared per-iteration
// factorizations. Only the element-specific work remains in the loop: one
// triangular solve, two matrix–vector forecasts, R², and the leave-one-
// out adjustment. The arithmetic matches the per-element path operation
// for operation, so the result is bit-identical.
func (a *Assessor) assessElementShared(ctx context.Context, elementID string, study timeseries.Series, gs *groupShared, changeAt time.Time, metric kpi.KPI) (ElementResult, error) {
	if err := ctx.Err(); err != nil {
		return ElementResult{}, err
	}
	sc := a.obs.Child(obs.SpanAssessElement)
	sc.SetAttr("element", elementID)
	sc.SetAttr("kpi", metric.String())
	defer sc.End()
	yBefore, yAfter := study.SplitAt(changeAt)
	// The before window is fully observed (prepGroupShared qualified it),
	// so the fit observations are the window itself — no copy needed; the
	// solver only reads the right-hand side.
	ybFit := yBefore.Values

	iters := a.cfg.Iterations
	arena := acquireFits(iters, yBefore.Len(), yAfter.Len())
	defer arena.release()
	fits := arena.fits
	cancelable := ctx.Done() != nil
	var leverageSkipped atomic.Int64
	ws := newWorkerScratches(a.cfg.Workers, iters)
	sampling := sc.Child(obs.SpanSampling)
	forEachWorker(a.cfg.Workers, iters, func(w, it int) {
		if cancelable && ctx.Err() != nil {
			return
		}
		st := &gs.iters[it]
		if !st.ok {
			return
		}
		s := ws.get(w)
		s.beta = growFloats(s.beta, st.xb.Cols())
		s.swork = growFloats(s.swork, st.xb.Rows())
		// The same degradation chain as the per-element path; prep accepted
		// this design via designUsable, so one of the stages succeeds.
		if !solveWithFallbacks(&st.qr, &st.xb, s.beta, ybFit, s.swork) {
			return
		}
		fb := st.xb.MulVecInto(fits[it].fb, s.beta)
		st.xa.MulVecInto(fits[it].fa, s.beta)
		fits[it].r2 = rSquaredAtRows(fb, gs.fitRows, ybFit)
		if st.hs != nil {
			adjustLOO(fb, ybFit, gs.fitRows, st.hs)
		} else {
			leverageSkipped.Add(1)
		}
		fits[it].ok = true
	})
	sampling.End()
	ws.release()
	if err := ctx.Err(); err != nil {
		return ElementResult{}, err
	}
	sc.Counter(obs.MetricIterations).Add(int64(iters))
	sc.Counter(obs.MetricLeverageSkipped).Add(leverageSkipped.Load())
	return a.finishElement(sc, elementID, metric, yBefore, yAfter, fits)
}
