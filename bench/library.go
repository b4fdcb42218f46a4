package main

// The library path: the same assessment the service runs, built directly
// from the public packages the way internal/serve/scenario.go and the
// golden test build it — netsim.Build, gen.New with the change's effect,
// litmus.Pipeline, MarshalAssessment. Verification compares the
// service's answers with it; the traced run times each call.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/timeseries"

	litmus "repro"
)

// kpis are the request KPIs in the service's canonical (sorted) order.
var kpis = []kpi.KPI{kpi.DataAccessibility, kpi.VoiceRetainability}

func topology(seed int64) netsim.TopologyConfig {
	t := netsim.DefaultTopologyConfig()
	t.Seed = seed
	return t
}

func (c change) record() *changelog.Change {
	return &changelog.Change{ID: c.id, Type: changelog.ConfigChange, Elements: c.study, At: c.at, TrueQuality: c.quality}
}

// generator synthesizes the world's KPIs with the given effects.
func generator(net *netsim.Network, seed int64, effects ...gen.Effect) *gen.Generator {
	cfg := gen.DefaultConfig(timeseries.NewIndex(indexStart, changeStep, indexPoints))
	cfg.Seed = seed
	cfg.Effects = effects
	return gen.New(net, cfg)
}

func pipeline(net *netsim.Network, provider litmus.SeriesProvider) *litmus.Pipeline {
	return &litmus.Pipeline{
		Network:          net,
		Provider:         provider,
		Assessor:         litmus.MustNewAssessor(litmus.Config{Seed: assessorSeed}),
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
	}
}

func seriesOf(net *netsim.Network, series func(string, kpi.KPI) litmus.Series) litmus.SeriesProvider {
	return litmus.ProviderFunc(func(id string, m kpi.KPI) (litmus.Series, bool) {
		if net.Element(id) == nil {
			return litmus.Series{}, false
		}
		return series(id, m), true
	})
}

// libraryAssess recomputes c's canonical assessment document.
func libraryAssess(c change) ([]byte, error) {
	net := netsim.Build(topology(c.topo))
	ch := c.record()
	g := generator(net, c.gen, ch.Effect(net))
	res, err := pipeline(net, seriesOf(net, g.Series)).AssessChange(ch, kpis, windowDays)
	if err != nil {
		return nil, err
	}
	return litmus.MarshalAssessment(res)
}

// replay times the public calls of each layer on a sample of a
// workload's changes, with spans owned by the benchmark.
type replay struct {
	tr *tracer
	// Totals over the replayed single changes.
	units, seriesCalls, controls int
	// Totals over the replayed batches.
	batchEntries, panelsShared int
	factorsReused              int64
	results                    [][]byte // canonical documents, for the journal timing
}

// single replays one change through the single-change path, then times
// the kernels on its first KPI's panels.
func (rp *replay) single(c change) error {
	root := rp.tr.begin(nil, "replay.change")
	defer rp.tr.end(root)
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			err = rp.tr.do(root, name, fn)
		}
	}
	var net *netsim.Network
	var g *gen.Generator
	ch := c.record()
	step("netsim.Build", func() error { net = netsim.Build(topology(c.topo)); return nil })
	step("gen.New", func() error { g = generator(net, c.gen, ch.Effect(net)); return nil })
	if err != nil {
		return err
	}
	// Panel assembly calls the provider sequentially, so the series spans
	// nest under the assess-change span without locking.
	var cur *span
	provider := seriesOf(net, func(id string, m kpi.KPI) (s litmus.Series) {
		rp.seriesCalls++
		_ = rp.tr.do(cur, "gen.Series", func() error { s = g.Series(id, m); return nil })
		return s
	})
	var res *litmus.ChangeAssessment
	cur = rp.tr.begin(root, "litmus.AssessChange")
	res, err = pipeline(net, provider).AssessChange(ch, kpis, windowDays)
	rp.tr.end(cur)
	var doc []byte
	step("litmus.MarshalAssessment", func() (e error) { doc, e = litmus.MarshalAssessment(res); return e })
	step("serve.CanonicalJobID", func() (e error) { _, e = serve.CanonicalJobID(c.request()); return e })
	if err != nil {
		return err
	}
	rp.units++
	rp.results = append(rp.results, doc)
	return rp.kernels(root, net, g, c)
}

// kernels times control selection, the before-window QR, the rank-test
// statistics and the core assessor on c's voice-retainability panels.
func (rp *replay) kernels(root *span, net *netsim.Network, g *gen.Generator, c change) error {
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			err = rp.tr.do(root, name, fn)
		}
	}
	ch := c.record()
	var controls []string
	step("control.Select", func() (e error) {
		sel := &control.Selector{Net: net, Predicate: control.And(control.SameKind(), control.SameParent()), Exclude: ch.ImpactScope(net)}
		controls, e = sel.Select(c.study)
		return e
	})
	if err != nil {
		return err
	}
	rp.controls += len(controls)
	window := time.Duration(windowDays) * 24 * time.Hour
	panel := func(ids []string) *litmus.Panel {
		var p *litmus.Panel
		for _, id := range ids {
			s := g.Series(id, kpi.VoiceRetainability).Window(c.at.Add(-window), c.at.Add(window))
			if p == nil {
				p = litmus.NewPanel(s.Index)
			}
			p.Add(id, s)
		}
		return p
	}
	studies, ctrls := panel(c.study), panel(controls)
	study := studies.MustSeries(c.study[0])
	before, after := study.SplitAt(c.at)
	ctrlBefore, _ := ctrls.SplitAt(c.at)
	x := ctrlBefore.DesignMatrix().WithInterceptColumn()
	var qr *linalg.QR
	step("linalg.QR.factor", func() error { qr = linalg.NewQR(x); return nil })
	step("linalg.QR.solve", func() (e error) { _, e = qr.Solve(before.Values); return e })
	vals := append([]float64(nil), study.Values...)
	step("stats.MedianInPlace", func() error { stats.MedianInPlace(vals); return nil })
	step("stats.FlignerPolicello", func() (e error) { _, e = stats.FlignerPolicello(before.Values, after.Values); return e })
	step("core.AssessElement", func() (e error) {
		_, e = litmus.MustNewAssessor(litmus.Config{Seed: assessorSeed}).AssessElement(c.study[0], study, ctrls, c.at, kpi.VoiceRetainability)
		return e
	})
	for _, workers := range []int{1, 2} {
		a := litmus.MustNewAssessor(litmus.Config{Seed: assessorSeed, Workers: workers})
		step(fmt.Sprintf("core.AssessGroup.w%d", workers), func() (e error) {
			_, e = a.AssessGroup(studies, ctrls, c.at, kpi.VoiceRetainability)
			return e
		})
	}
	return err
}

// batch replays changes sharing one world the way the service's batch
// job runs them: a shared base world, one effect overlay per entry,
// Pipeline.AssessBatch, one document per entry.
func (rp *replay) batch(ctx context.Context, changes []change) error {
	root := rp.tr.begin(nil, "replay.batch")
	defer rp.tr.end(root)
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			err = rp.tr.do(root, name, fn)
		}
	}
	var net *netsim.Network
	var base *gen.Generator
	step("netsim.Build", func() error { net = netsim.Build(topology(changes[0].topo)); return nil })
	step("gen.New", func() error { base = generator(net, changes[0].gen); return nil })
	if err != nil {
		return err
	}
	type key struct {
		id string
		m  kpi.KPI
	}
	memo := map[key]litmus.Series{}
	var entries []litmus.BatchEntry
	for _, c := range changes {
		ch := c.record()
		var eg *gen.Generator
		step("gen.New", func() error { eg = generator(net, c.gen, ch.Effect(net)); return nil })
		inScope := map[string]bool{}
		for _, id := range ch.ImpactScope(net) {
			inScope[id] = true
		}
		entries = append(entries, litmus.BatchEntry{Change: ch, Provider: seriesOf(net, func(id string, m kpi.KPI) litmus.Series {
			if inScope[id] {
				return eg.Series(id, m)
			}
			s, ok := memo[key{id, m}]
			if !ok {
				s = base.Series(id, m)
				memo[key{id, m}] = s
			}
			return s
		})})
	}
	var res *litmus.BatchAssessment
	step("litmus.AssessBatch", func() (e error) { res, e = pipeline(net, nil).AssessBatch(ctx, entries, kpis, windowDays); return e })
	if err != nil {
		return err
	}
	for i, r := range res.Results {
		if res.Errors[i] != nil {
			return fmt.Errorf("batch entry %s: %w", changes[i].id, res.Errors[i])
		}
		step("litmus.MarshalAssessment", func() (e error) { _, e = litmus.MarshalAssessment(r); return e })
	}
	rp.batchEntries += len(changes)
	rp.panelsShared += int(res.PanelsShared)
	rp.factorsReused += res.FactorizationsReused
	return err
}

// replaySample picks the changes a traced run replays: n single changes
// spread evenly over the workload, and the batches they form (the
// changelog-batch workload replays one whole batch).
func replaySample(w *workload, seed int64, n int) (singles []change, batches [][]change) {
	off := int(mix(seed, 5) % uint64(len(w.items)))
	if b := w.items[off].batch; b != nil {
		return b[:min(n, len(b))], [][]change{b}
	}
	n = min(n, len(w.items))
	byWorld := map[[2]int64]int{}
	for k := 0; k < n; k++ {
		c := *w.items[(off+k*len(w.items)/n)%len(w.items)].single
		singles = append(singles, c)
		world := [2]int64{c.topo, c.gen}
		if j, ok := byWorld[world]; ok {
			batches[j] = append(batches[j], c)
			continue
		}
		byWorld[world] = len(batches)
		batches = append(batches, []change{c})
	}
	return singles, batches
}
