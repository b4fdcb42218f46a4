package litmus

// Batch assessment with cross-change amortization. A changelog assessed
// one change at a time pays N× for work that is largely shared across
// changes on the same world: control selection depends only on the
// change's elements and propagation flag, panel assembly only on the
// control set, KPI and window, and the before-window QR factorizations
// only on the control panel's values and the change time. AssessBatch
// groups entries by those signatures and performs each distinct piece
// of work once: (entry × KPI) assessments whose control panels are
// value-identical at the same change time form one factor group, which
// the engine assesses in one pass (core.AssessFactorGroup) — so every
// entry's result stays bit-identical to an independent
// AssessChangeContext call. AssessChangeContext is the one-entry case
// of the same phases, without the sharing: the equivalence test in
// batch_test.go pins sharing against no sharing at workers 1/2/4/8,
// including under fault injection, and the golden fixtures pin both
// independently.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/obs"
)

// BatchEntry is one changelog entry of a batch assessment: the change
// plus, optionally, the series provider supplying its world (nil uses
// the pipeline's provider). Per-entry providers let a caller feed each
// change its own counter stream — the serve tier overlays each entry's
// effect on a shared base world this way — while the batch still shares
// factorizations across entries whose control panels carry identical
// values.
type BatchEntry struct {
	Change   *changelog.Change
	Provider SeriesProvider
}

// BatchAssessment is the outcome of one batch: per-entry assessments
// and errors, positionally 1:1 with the submitted entries, plus the
// sharing the batch achieved.
type BatchAssessment struct {
	// Results[i] is entry i's assessment; nil when Errors[i] != nil.
	Results []*ChangeAssessment
	// Errors[i] is entry i's failure (validation, control selection, or
	// every KPI unassessable); nil when the entry assessed. A failed
	// entry never fails the batch.
	Errors []error
	// PanelsShared counts per-KPI panel assemblies answered from an
	// earlier entry's identical assembly instead of re-fetched from the
	// provider.
	PanelsShared int64
	// FactorizationsReused counts, for every factor group of two or more
	// (entry × KPI) assessments, its members times the before-window QR
	// factorizations of its shared design — the cross-change analogue
	// of sharing one design across a group's elements.
	FactorizationsReused int64
}

// AssessChangelog assesses every change of a changelog against the
// pipeline's provider in one batch, amortizing control selection, panel
// assembly and before-window factorizations across entries with
// overlapping signatures. Results are bit-identical to calling
// AssessChangeContext once per change.
func (p *Pipeline) AssessChangelog(ctx context.Context, changes []*changelog.Change, kpis []KPI, windowDays int) (*BatchAssessment, error) {
	entries := make([]BatchEntry, len(changes))
	for i, c := range changes {
		entries[i] = BatchEntry{Change: c}
	}
	return p.AssessBatch(ctx, entries, kpis, windowDays)
}

// batchEntryState carries one entry through the batch phases.
type batchEntryState struct {
	change   *changelog.Change
	provider SeriesProvider
	esc      *obs.Scope
	err      error // terminal per-entry error (validation, selection)
	out      *ChangeAssessment
	failures []AssessmentFailure
	kpiErrs  []error
	panels   []entryPanels
	results  []GroupResult
	errs     []error
}

type entryPanels struct {
	studies, controls *Panel
}

// panelEntry is one memoized per-KPI panel assembly: the panels plus the
// element-level failures and KPI-level error the assembly produced, so a
// cache hit replays them into the reusing entry exactly as a fresh
// assembly would.
type panelEntry struct {
	studies, controls *Panel
	fails             []AssessmentFailure
	err               error
}

type panelCacheKey struct {
	sel string // selection signature (elements + propagation)
	kpi int    // index into the batch's KPI list
	at  int64  // change time (UnixNano) — the window anchor
}

type selEntry struct {
	controls []string
	err      error
}

// factorGroup is one set of (entry × KPI) assessments whose control
// panels are value-identical at the same change time — one factor group
// of the engine, assessed on its representative panel.
type factorGroup struct {
	rep     *Panel // representative control panel
	at      time.Time
	members []groupRef
}

type groupRef struct {
	entry, kpi int
}

// AssessBatch assesses every entry of a batch, sharing control
// selections, panel assemblies and before-window factorizations across
// entries whose signatures coincide. Batch-level preconditions (no
// network, no KPIs, short window, canceled context) fail the whole call;
// everything else — an invalid change, a failed selection, unassessable
// KPIs — is reported per entry in BatchAssessment.Errors without
// affecting sibling entries.
//
// Determinism contract: entry i's Result and Error are bit-identical to
// AssessChangeContext(ctx, entries[i].Change, kpis, windowDays) on a
// pipeline whose Provider is entry i's provider, for every worker count.
// A factor group's shared design is precisely the design each member
// would build alone, so sharing can change cost but never bytes.
func (p *Pipeline) AssessBatch(ctx context.Context, entries []BatchEntry, kpis []KPI, windowDays int) (*BatchAssessment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := p.Obs.Child(obs.SpanAssessBatch)
	defer sc.End()
	sc.SetAttr("entries", len(entries))
	sc.SetAttr("kpis", len(kpis))
	sc.Counter(obs.MetricBatchEntries).Add(int64(len(entries)))
	return p.assess(ctx, sc, true, entries, kpis, windowDays)
}

// assess runs the four phases of an assessment over entries under sc.
// A batch gives each entry's setup its own batch-entry span and groups
// its (entry × KPI) assessments into factor groups by control panel;
// otherwise the entries (AssessChangeContext passes one) record straight
// into sc and every KPI is a factor group of its own.
func (p *Pipeline) assess(ctx context.Context, sc *obs.Scope, batch bool, entries []BatchEntry, kpis []KPI, windowDays int) (*BatchAssessment, error) {
	if p.Network == nil {
		return nil, fmt.Errorf("litmus: pipeline needs a network and a series provider")
	}
	if len(kpis) == 0 {
		return nil, fmt.Errorf("litmus: no KPIs to assess")
	}
	if windowDays < 2 {
		return nil, fmt.Errorf("litmus: window of %d days too short", windowDays)
	}
	assessor := p.Assessor
	if assessor == nil {
		var err error
		assessor, err = core.NewAssessor(core.Config{})
		if err != nil {
			return nil, err
		}
	}
	pred := p.ControlPredicate
	if pred == nil {
		pred = control.And(control.SameKind(), control.SameRegion())
	}

	out := &BatchAssessment{
		Results: make([]*ChangeAssessment, len(entries)),
		Errors:  make([]error, len(entries)),
	}
	states := make([]*batchEntryState, len(entries))
	// Every assembly of the call, each once: the panel cache shares them
	// by pointer. No result keeps a panel, so they go back on the panel
	// list once the factor groups are assessed.
	var assembled []*panelEntry
	defer func() {
		for _, pe := range assembled {
			if pe.err == nil {
				releasePanel(pe.studies)
				releasePanel(pe.controls)
			}
		}
	}()

	// Phase 1 — sequential per-entry setup: validation, control
	// selection, panel assembly. Sequential because SeriesProvider
	// implementations (e.g. the caching synthetic generator) need not be
	// safe for concurrent use; selection and assembly are memoized so
	// entries with repeated signatures pay once. A batch-entry span
	// covers exactly its entry's setup.
	selCache := map[string]selEntry{}
	panelCache := map[panelCacheKey]*panelEntry{}
	setup := func(i int, st *batchEntryState) {
		change := st.change
		if change != nil {
			st.esc.SetAttr("change", change.ID)
		}
		if st.provider == nil {
			st.err = fmt.Errorf("litmus: pipeline needs a network and a series provider")
			return
		}
		if change == nil {
			st.err = fmt.Errorf("litmus: batch entry %d has no change", i)
			return
		}
		if err := change.Validate(p.Network); err != nil {
			st.err = err
			return
		}
		sk := batchSelKey(change)
		se, ok := selCache[sk]
		if !ok {
			sel := &control.Selector{
				Net:       p.Network,
				Predicate: pred,
				Exclude:   change.ImpactScope(p.Network),
				MaxSize:   p.MaxControls,
				Obs:       st.esc,
			}
			se.controls, se.err = sel.Select(change.Elements)
			selCache[sk] = se
		}
		if se.err != nil {
			st.err = fmt.Errorf("litmus: control selection: %w", se.err)
			return
		}
		st.out = &ChangeAssessment{
			Change:       change,
			ControlGroup: se.controls,
			PerKPI:       make(map[KPI]GroupResult, len(kpis)),
		}
		st.panels = make([]entryPanels, len(kpis))
		st.kpiErrs = make([]error, len(kpis))
		// Assemblies are memoized only for entries reading the pipeline's
		// provider: a per-entry provider can serve different values for
		// the same element, so its panels are never shared by signature —
		// value-identical panels still share a factor group in phase 2.
		pp := *p
		pp.Provider = st.provider
		cacheable := entries[i].Provider == nil
		assembly := st.esc.Child(obs.SpanPanelAssembly)
		for ki, metric := range kpis {
			var pe *panelEntry
			if cacheable {
				key := panelCacheKey{sel: sk, kpi: ki, at: change.At.UnixNano()}
				if hit := panelCache[key]; hit != nil {
					sc.Counter(obs.MetricBatchPanelsShared).Add(1)
					out.PanelsShared++
					pe = hit
				} else {
					pe = assemblePanels(&pp, change, se.controls, metric, windowDays)
					panelCache[key] = pe
					assembled = append(assembled, pe)
				}
			} else {
				pe = assemblePanels(&pp, change, se.controls, metric, windowDays)
				assembled = append(assembled, pe)
			}
			st.failures = append(st.failures, pe.fails...)
			if pe.err != nil {
				st.kpiErrs[ki] = pe.err
				st.failures = append(st.failures, AssessmentFailure{KPI: metric, Reason: core.ReasonOf(pe.err), Detail: pe.err.Error()})
				continue
			}
			st.panels[ki] = entryPanels{studies: pe.studies, controls: pe.controls}
		}
		assembly.End()
	}
	for i := range entries {
		st := &batchEntryState{change: entries[i].Change, provider: entries[i].Provider, esc: sc}
		if st.provider == nil {
			st.provider = p.Provider
		}
		states[i] = st
		if batch {
			st.esc = sc.Child(obs.SpanBatchEntry)
		}
		setup(i, st)
		if batch {
			st.esc.End()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2 — form the factor groups. In a batch, (entry × KPI)
	// assessments whose control panels are value-identical at the same
	// change time share one group. Pointer identity (from the assembly
	// cache) short-circuits; otherwise panels are matched by content hash
	// plus full verification, so a hash collision costs a comparison,
	// never a wrong share. Only assessments with a uniform time grid and
	// at least one fully observed study element are grouped — the others
	// could not share a design — and every other assessment, like every
	// KPI of a single change, is a one-member group.
	var groups []*factorGroup
	byPtr := map[*Panel]*factorGroup{}
	byHash := map[uint64][]*factorGroup{}
	for i, st := range states {
		if st.err != nil {
			continue
		}
		st.results = make([]GroupResult, len(kpis))
		st.errs = make([]error, len(kpis))
		for ki := range kpis {
			if st.kpiErrs[ki] != nil {
				continue
			}
			pan := st.panels[ki]
			ref := groupRef{entry: i, kpi: ki}
			if !batch || !pan.studies.Index().Equal(pan.controls.Index()) || !core.SharedEligible(pan.studies, st.change.At) {
				groups = append(groups, &factorGroup{rep: pan.controls, at: st.change.At, members: []groupRef{ref}})
				continue
			}
			g := byPtr[pan.controls]
			if g != nil && !g.at.Equal(st.change.At) {
				g = nil
			}
			if g == nil {
				h := panelContentHash(pan.controls, st.change.At)
				for _, cand := range byHash[h] {
					if cand.at.Equal(st.change.At) && panelsEqual(cand.rep, pan.controls) {
						g = cand
						break
					}
				}
				if g == nil {
					g = &factorGroup{rep: pan.controls, at: st.change.At}
					groups = append(groups, g)
					byHash[h] = append(byHash[h], g)
				}
				if _, ok := byPtr[pan.controls]; !ok {
					byPtr[pan.controls] = g
				}
			}
			g.members = append(g.members, ref)
		}
	}

	// Phase 3 — assess the factor groups one after another, each in one
	// pass of the engine: its sampling iterations fan out over the
	// workers, then its elements. Per-iteration seeding makes every
	// result independent of scheduling, so the batch is deterministic
	// for every worker count. A group's assess-group span sits under sc.
	// The call's assessor draws a sample shape too large for the
	// process-wide cache once for all groups, and is dropped on return.
	ga := assessor.ForCall(sc)
	for _, g := range groups {
		members := make([]core.GroupMember, len(g.members))
		for j, m := range g.members {
			st := states[m.entry]
			members[j] = core.GroupMember{Studies: st.panels[m.kpi].studies, KPI: kpis[m.kpi]}
			if batch {
				members[j].Change = st.change.ID
			}
		}
		results, errs, factorized := ga.AssessFactorGroup(ctx, g.rep, g.at, members)
		for j, m := range g.members {
			states[m.entry].results[m.kpi], states[m.entry].errs[m.kpi] = results[j], errs[j]
		}
		if len(g.members) > 1 && factorized > 0 {
			reused := int64(len(g.members)) * factorized
			out.FactorizationsReused += reused
			sc.Counter(obs.MetricBatchFactorizationsReused).Add(reused)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 4 — per-entry gathering, in a fixed order: KPI-level errors,
	// then element-level degradations per voted KPI, then the decision.
	for i, st := range states {
		if st.err != nil {
			out.Errors[i] = st.err
			continue
		}
		var firstErr error
		failures := st.failures
		for ki, metric := range kpis {
			err := st.kpiErrs[ki]
			if err == nil && st.errs[ki] != nil {
				err = st.errs[ki]
				failures = append(failures, AssessmentFailure{KPI: metric, Reason: core.ReasonOf(err), Detail: err.Error()})
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("litmus: %v: %w", metric, err)
				}
				continue
			}
			for _, f := range st.results[ki].Failures {
				failures = append(failures, AssessmentFailure{KPI: metric, Element: f.Element, Reason: f.Reason, Detail: f.Detail})
			}
			st.out.PerKPI[metric] = st.results[ki]
		}
		if len(st.out.PerKPI) == 0 {
			out.Errors[i] = firstErr
			continue
		}
		st.out.Failures = failures
		st.out.Degraded = len(failures) > 0
		st.out.Decision = decide(st.out.PerKPI)
		st.esc.Registry().LabeledCounter(obs.MetricDecisions, "decision", st.out.Decision.String()).Add(1)
		out.Results[i] = st.out
	}
	return out, nil
}

// assemblePanels runs one entry's panel assembly for one KPI and
// packages the outcome for memoization.
func assemblePanels(p *Pipeline, change *changelog.Change, controls []string, metric KPI, windowDays int) *panelEntry {
	studies, controlsPanel, fails, err := p.panels(change, controls, metric, windowDays)
	return &panelEntry{studies: studies, controls: controlsPanel, fails: fails, err: err}
}

// batchSelKey is the control-selection signature of a change: two
// changes with the same elements and propagation flag select identical
// control groups (the predicate, cap and network are pipeline-level).
func batchSelKey(c *changelog.Change) string {
	var b strings.Builder
	for _, e := range c.Elements {
		b.WriteString(e)
		b.WriteByte(0)
	}
	if c.PropagateToDescendants {
		b.WriteByte(1)
	}
	return b.String()
}

// panelContentHash fingerprints a control panel's assessment-relevant
// content — time grid, column IDs in order, every value's exact bits —
// plus the change time anchoring the before/after split. Equal content
// hashes equal; collisions are resolved by panelsEqual before sharing.
func panelContentHash(p *Panel, at time.Time) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	idx := p.Index()
	w64(uint64(idx.Start.UnixNano()))
	w64(uint64(idx.Step))
	w64(uint64(idx.N))
	w64(uint64(at.UnixNano()))
	for j := 0; j < p.Len(); j++ {
		id, s := p.Column(j)
		h.Write([]byte(id))
		h.Write([]byte{0})
		for _, v := range s.Values {
			w64(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// panelsEqual reports bitwise value identity of two panels: same index,
// same column IDs in the same order, every observation's exact bits
// equal (NaNs compare by payload, so panels with identical missing-data
// patterns still match).
func panelsEqual(a, b *Panel) bool {
	if !a.Index().Equal(b.Index()) || a.Len() != b.Len() {
		return false
	}
	for j := 0; j < a.Len(); j++ {
		aID, as := a.Column(j)
		bID, bs := b.Column(j)
		if aID != bID || len(as.Values) != len(bs.Values) {
			return false
		}
		for i, v := range as.Values {
			if math.Float64bits(v) != math.Float64bits(bs.Values[i]) {
				return false
			}
		}
	}
	return true
}
