package core

// The factor group: the engine's one unit of assessment. A factor group
// is one control panel at one change time plus the study groups that fit
// on it — one KPI of a single change, or the (change × KPI) assessments
// of a batch whose control panels are value-identical at the same change
// time. AssessElement is a one-element group and AssessGroup a
// one-member group; the batch layer assesses its groups one after
// another through AssessFactorGroup.
//
// Litmus fits every element on the same Iterations uniform samples of
// the control group (§3.2): the columns iteration it draws depend only
// on (Seed, it, n, k), never on the study element. When an element's
// before window is fully observed its fit rows cover the whole window,
// so iteration it's sampled design, QR factorization and leverages are
// the same for every such element. The kernel therefore works iteration
// by iteration: work unit it builds and factors that shared design once
// and solves and forecasts every element fitted on it into slot it of
// the element's fit arena. An element with missing before-window data
// (a gappy element) gets its own design on its own fit rows — its own k,
// samples and resample loop — built, factored and solved in the same
// unit. A fully observed group thus performs Iterations before-window
// factorizations (plus any redraws), however many elements and changes
// it holds. Results are bit-identical to fitting each element alone: its
// forecasts come from the same design and factorization through the same
// operations in the same order, and the accept/resample decision depends
// on the design alone (resample.go).
//
// An element's fits depend only on its design and its fit observations,
// and its forecast medians only on its fits. So an element on the shared
// design whose before window is bit-identical to an earlier one's — in a
// batch, the same element under several changes at one change time,
// whose effects begin at the change — is a twin: it reads the earlier
// element's fits and medians instead of fitting again, and computes only
// its own forecast differences and rank test. A batch of N changes over
// S distinct (study, change time) signatures thus fits each element once
// per signature, not once per change.
//
// Each group makes two flat, index-addressed fan-outs at Config.Workers:
// one over its iterations, then one over its elements for aggregation
// and the rank test (finishElement). No fan-out runs inside another.
// Each worker keeps one unit working set from unitPool through both
// (scratch.go), and the group's two control designs are built once into
// worker 0's.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kpi"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// GroupMember is one study group of a factor group: its study panel,
// the KPI it is assessed on and, in a batch, the ID of the change it
// belongs to, which its element spans record.
type GroupMember struct {
	Studies *timeseries.Panel
	KPI     kpi.KPI
	Change  string
}

// design is one set of fit rows the kernel factors per iteration: the
// group's shared design on the whole before window, or one gappy
// element's own fit rows.
type design struct {
	k       int
	fitRows []int
	partial bool // fitRows is a strict subset of the before window
	samples [][]int
	elems   []*groupElement
	// Counted by the units: QR factorizations, resample attempts included,
	// and redrawn samples.
	factorized, resampled atomic.Int64
}

// groupElement carries one study element through the kernel.
type groupElement struct {
	id, change      string
	metric          kpi.KPI
	yBefore, yAfter timeseries.Series
	err             error     // validation error; the element is not fitted
	shared          bool      // fitted on the group's shared design
	ybFit           []float64 // the before window at the design's fit rows
	fitHash         uint64    // hash of ybFit on the shared design
	// twin is the earlier element of the group whose fits and medians
	// this one reads (see the file comment); nil when it fits itself.
	twin       *groupElement
	fits       *fitArena
	levSkipped atomic.Int64
	// medOnce computes, for the element and its twins, the forecast
	// medians into its fit arena (finishElement).
	medOnce sync.Once
}

// finishObserver, set only by the package's tests, sees each element
// finished without error with its forecast medians and differences in
// pooled memory; it runs concurrently and must copy what it keeps.
var finishObserver func(ctx context.Context, e *groupElement, med, diff []float64)

// source returns the element whose fits and medians e reads.
func (e *groupElement) source() *groupElement {
	if e.twin != nil {
		return e.twin
	}
	return e
}

// hashBits hashes the bit patterns of xs (FNV-1a over 64-bit words).
func hashBits(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range xs {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// sameBits reports whether a and b hold the same bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// AssessFactorGroup assesses every member of one factor group against
// controls split at changeAt: each member's voted GroupResult or error,
// positionally, plus the QR factorizations of the group's shared design
// (0 when no element fitted on it). The caller guarantees that one
// design serves every member, i.e. that each member's own control panel
// is value-identical to controls. Results are bit-identical to assessing
// each member alone with AssessGroupContext. A canceled ctx fails every
// member with ctx.Err().
func (a *Assessor) AssessFactorGroup(ctx context.Context, controls *timeseries.Panel, changeAt time.Time, members []GroupMember) ([]GroupResult, []error, int64) {
	if len(members) == 0 {
		return nil, nil, 0
	}
	groups := make([]GroupResult, len(members))
	errs := make([]error, len(members))
	elems, results, factorized, err := a.assessGroup(ctx, controls, changeAt, members)
	for m, mem := range members {
		if err != nil {
			errs[m] = err
			continue
		}
		n := mem.Studies.Len()
		groups[m], errs[m] = a.memberResult(mem.KPI, elems[:n], results[:n:n])
		elems, results = elems[n:], results[n:]
	}
	return groups, errs, factorized
}

// memberResult votes one member's element results, compacting results
// (the member's, positionally with elems) in place into the group's
// PerElement. Elements that failed are skipped and reported as
// failures; the error is returned only if every element failed.
func (a *Assessor) memberResult(metric kpi.KPI, elems []groupElement, results []ElementResult) (GroupResult, error) {
	if len(elems) == 0 {
		return GroupResult{}, fmt.Errorf("core: empty study group")
	}
	kept := results[:0]
	var failures []Failure
	var firstErr error
	shared := 0
	for i := range elems {
		e := &elems[i]
		if e.shared {
			shared++
		}
		if e.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: element %s: %w", e.id, e.err)
			}
			failures = append(failures, failureOf(e.id, e.err))
			continue
		}
		kept = append(kept, results[i])
	}
	if shared > 0 {
		a.obs.Counter(obs.MetricGroupSharedElements).Add(int64(shared))
	}
	a.obs.Counter(obs.MetricElementsAssessed).Add(int64(len(kept)))
	a.obs.Counter(obs.MetricElementsSkipped).Add(int64(len(elems) - len(kept)))
	if len(kept) == 0 {
		return GroupResult{}, firstErr
	}
	overall, votes := vote(kept)
	return GroupResult{KPI: metric, PerElement: kept, Overall: overall, Votes: votes, Failures: failures}, nil
}

// assessGroup is the kernel. It validates every member element, fits
// the valid ones iteration by iteration, then finishes each one. It
// returns the elements in member order, each member's in ID order, and
// positionally their results (valid where the element's err is nil),
// plus the shared design's factorizations; err is ctx's, when it was
// canceled.
func (a *Assessor) assessGroup(ctx context.Context, controls *timeseries.Panel, changeAt time.Time, members []GroupMember) (elems []groupElement, results []ElementResult, factorized int64, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	total := 0
	for _, m := range members {
		total += m.Studies.Len()
	}
	sc := a.obs.Child(obs.SpanAssessGroup)
	sc.SetAttr("kpi", members[0].KPI.String())
	sc.SetAttr("members", len(members))
	sc.SetAttr("elements", total)
	defer sc.End()

	iters, n := a.cfg.Iterations, controls.Len()
	// Each worker holds one unit working set through both fan-outs.
	units := make(workerUnits, max(a.cfg.Workers, 1))
	defer units.release()
	elems = make([]groupElement, total)
	var shared *design
	var designs []*design
	i := 0
	for _, m := range members {
		for j := 0; j < m.Studies.Len(); j++ {
			id, study := m.Studies.Column(j)
			e := &elems[i]
			i++
			e.id, e.change, e.metric = id, m.Change, m.KPI
			e.yBefore, e.yAfter = study.SplitAt(changeAt)
			rows, err := a.fitRows(study, e.yBefore, e.yAfter, controls)
			if err != nil {
				e.err = err
				continue
			}
			// The solver only reads the right-hand side, so a fully
			// observed before window is its own fit observations.
			var d *design
			if rows == nil {
				if shared == nil {
					shared = &design{k: a.sampleSize(n, e.yBefore.Len()), fitRows: make([]int, e.yBefore.Len())}
					for r := range shared.fitRows {
						shared.fitRows[r] = r
					}
					designs = append(designs, shared)
				}
				d = shared
				e.shared, e.ybFit = true, e.yBefore.Values
				e.fitHash = hashBits(e.ybFit)
				for _, o := range shared.elems {
					if o.fitHash == e.fitHash && o.yAfter.Len() == e.yAfter.Len() && sameBits(o.ybFit, e.ybFit) {
						e.twin = o
						break
					}
				}
				if e.twin != nil {
					continue
				}
			} else {
				d = &design{k: a.sampleSize(n, len(rows)), fitRows: rows, partial: true}
				designs = append(designs, d)
				e.ybFit = make([]float64, len(rows))
				for j, r := range rows {
					e.ybFit[j] = e.yBefore.Values[r]
				}
			}
			d.elems = append(d.elems, e)
			e.fits = acquireFits(iters, e.yBefore.Len(), e.yAfter.Len())
		}
	}

	if len(designs) > 0 {
		// The group's control designs on the before and after windows,
		// read by every worker.
		ix, u := controls.Index(), units.get(0)
		pos := ix.SearchPos(changeAt)
		xb := controls.DesignMatrixInto(&u.ctlB, 0, pos)
		xa := controls.DesignMatrixInto(&u.ctlA, pos, ix.N)
		// Designs mostly share k: draw each k's samples once.
		for i, d := range designs {
			for _, prev := range designs[:i] {
				if prev.k == d.k {
					d.samples = prev.samples
					break
				}
			}
			if d.samples == nil {
				d.samples = a.samplesFor(n, d.k)
			}
		}
		cancelable := ctx.Done() != nil
		sampling := sc.Child(obs.SpanSampling)
		forEach(a.cfg.Workers, iters, func(w, it int) {
			if cancelable && ctx.Err() != nil {
				return
			}
			s := units.get(w)
			for _, d := range designs {
				if a.factor(s, it, n, xb, xa, d) {
					fitIteration(s, it, d)
				}
			}
		})
		sampling.End()
		for _, d := range designs {
			sc.Counter(obs.MetricBeforeFactorizations).Add(d.factorized.Load())
			sc.Counter(obs.MetricControlsSampled).Add(int64(iters * d.k))
			sc.Counter(obs.MetricIterationsResampled).Add(d.resampled.Load())
		}
	}
	if err := ctx.Err(); err != nil {
		for i := range elems {
			if elems[i].fits != nil {
				elems[i].fits.release()
			}
		}
		return nil, nil, 0, err
	}

	results = make([]ElementResult, total)
	forEach(a.cfg.Workers, len(elems), func(w, i int) {
		e := &elems[i]
		esc := sc.Child(obs.SpanAssessElement)
		esc.SetAttr("element", e.id)
		esc.SetAttr("kpi", e.metric.String())
		if e.change != "" {
			esc.SetAttr("change", e.change)
		}
		if e.err == nil {
			esc.Counter(obs.MetricIterations).Add(int64(iters))
			esc.Counter(obs.MetricLeverageSkipped).Add(e.source().levSkipped.Load())
			results[i], e.err = a.finishElement(esc, units.get(w), e)
			if finishObserver != nil && e.err == nil {
				finishObserver(ctx, e, e.source().fits.med, units.get(w).diff)
			}
		}
		esc.End()
	})
	// Twins read their source's arena, medians included, so every arena
	// outlives the fan-out.
	for i := range elems {
		if elems[i].fits != nil {
			elems[i].fits.release()
		}
	}
	if shared != nil {
		factorized = shared.factorized.Load()
	}
	return elems, results, factorized, ctx.Err()
}

// fitRows validates one element against the control panel and returns
// its fit rows: nil when its before window is fully observed (it fits on
// the group's shared design), else the before-window rows where the
// study observation exists (missing control observations are
// median-imputed by DesignMatrixInto). Its errors reach result documents as
// failure details.
func (a *Assessor) fitRows(study, yBefore, yAfter timeseries.Series, controls *timeseries.Panel) ([]int, error) {
	if !study.Index.Equal(controls.Index()) {
		return nil, ErrIndexMismatch
	}
	n := controls.Len()
	if n < a.cfg.MinControls {
		return nil, fmt.Errorf("%w: %d controls, need >= %d", ErrControlTooSmall, n, a.cfg.MinControls)
	}
	var rows []int
	nFit := yBefore.Len()
	if !allFinite(yBefore.Values) {
		rows = finiteRows(yBefore.Values)
		nFit = len(rows)
	}
	if nFit < 3 || yAfter.Len() < 3 {
		return nil, fmt.Errorf("%w: need >= 3 observations on each side, got %d and %d", ErrWindowTooShort, nFit, yAfter.Len())
	}
	if a.sampleSize(n, nFit) < 1 {
		return nil, fmt.Errorf("%w: %d pre-change observations cannot support any regressor", ErrWindowTooShort, nFit)
	}
	return rows, nil
}

// factor builds iteration it's sampled design on d's fit rows into s
// from the control designs xb and xa, factors it, and redraws the sample
// while the design stays unusable (resample.go). It reports whether a
// design was accepted; s.hs then holds its leverages, or nil when the
// factorization is rank deficient.
func (a *Assessor) factor(s *unitScratch, it, n int, xb, xa *linalg.Matrix, d *design) bool {
	cols := d.samples[it]
	xfit := s.fit(d)
	for attempt := 0; ; attempt++ {
		xb.SelectColsWithIntercept(&s.xb, cols)
		if d.partial {
			s.xb.SelectRowsInto(&s.xfit, d.fitRows)
		}
		if xfit.Rows() < xfit.Cols() {
			// Underdetermined draw: every redraw has the same shape, so
			// resampling cannot help; skip it (the median aggregation
			// tolerates missing iterations).
			return false
		}
		s.qr.Factor(xfit)
		d.factorized.Add(1)
		// The solver chain's failure conditions depend on the design
		// alone, so one decision serves every element fitted on it.
		if designUsable(&s.qr, xfit) {
			break
		}
		if attempt >= maxResampleAttempts {
			return false
		}
		cols = a.resampleColumns(n, d.k, it, attempt+1)
		d.resampled.Add(1)
	}
	xa.SelectColsWithIntercept(&s.xa, cols)
	s.lev, s.work = growFloats(s.lev, len(d.fitRows)), growFloats(s.work, len(d.fitRows))
	s.beta = growFloats(s.beta, d.k+1)
	s.hs = nil
	if err := s.qr.LeveragesInto(s.lev, xfit, s.work); err == nil {
		s.hs = s.lev
	}
	return true
}

// fitIteration solves and forecasts every element fitted on d into slot
// it of its fit arena, on the design factor accepted into s: one
// triangular solve, two matrix–vector forecasts, R² and the
// leave-one-out adjustment per element.
func fitIteration(s *unitScratch, it int, d *design) {
	xfit := s.fit(d)
	for _, e := range d.elems {
		fit := &e.fits.fits[it]
		// factor accepted the design via designUsable, so one stage of
		// the degradation chain succeeds.
		if !solveWithFallbacks(&s.qr, xfit, s.beta, e.ybFit, s.work) {
			continue
		}
		fb := s.xb.MulVecInto(fit.fb, s.beta)
		s.xa.MulVecInto(fit.fa, s.beta)
		fit.r2 = rSquaredAtRows(fb, d.fitRows, e.ybFit)
		// In-sample residuals are optimistically small, which would make
		// the before-window forecast differences artificially tight and
		// manufacture significance. Replace the fitted values at fitted
		// rows with leave-one-out forecasts, y − e/(1−h), putting both
		// windows on the out-of-sample error scale.
		if s.hs != nil {
			adjustLOO(fb, e.ybFit, d.fitRows, s.hs)
		} else {
			e.levSkipped.Add(1)
		}
		fit.ok = true
	}
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

// SharedEligible reports whether at least one study element has a fully
// observed before window, i.e. fits on its factor group's shared design.
// The batch layer groups only such assessments across changes; any
// other becomes a one-member group.
func SharedEligible(studies *timeseries.Panel, changeAt time.Time) bool {
	for j := 0; j < studies.Len(); j++ {
		_, s := studies.Column(j)
		yb, _ := s.SplitAt(changeAt)
		if allFinite(yb.Values) {
			return true
		}
	}
	return false
}
