package serve

// The world slot: the built synthetic world of the most recent job, kept
// for the next one. Litmus compares a study group with controls drawn
// from the same network, so real traffic asks about many changes in one
// world; rebuilding that world per job (netsim.Build, the generator, and
// synthesizing every control series) was about 40 % of a job's run time
// on repeated-world traffic.
//
// A world is a pure function of its key — the canonical topology,
// generator seed and time grid of a compiled request — so sharing one
// can skip recomputation but never change an answer. That is also why
// the slot is process-wide rather than per Server: with one slot per
// Server, three in-process routed nodes each held the world and peak RSS
// rose from 38.1–38.4 to 43.1–45.5 MiB; one slot per process measured
// 38.5–39.6 MiB. The slot holds exactly one world: a second entry added
// 8 % peak RSS on distinct-world traffic and produced no extra hits on
// any benchmark workload. Retained memory is therefore bounded by one
// world under the topology caps of api.go, plus the one network layout
// netsim keeps for the shape it built last (see netsim.Build), which may
// be another shape than this world's, plus the constant budgets of the
// process's free lists (internal/freelist): at most 1 MiB of
// study-series buffers on the list below, and the engine's, the
// pipeline's and the request plane's working memory, about 2 MiB more at
// most (DESIGN.md "Working memory"), of which the benchmark workloads
// keep at most about 0.4 MiB. At the caps (152,495 elements) a
// layout is about 8.3 MB: a 2.4 MB ID table, a 2.1 MB index, 1.8 MB of
// child links and 1.9 MB of ID strings; for the default shape it is
// about 100 KB. A network of the layout's shape shares all of it but the
// ID table.

import (
	"slices"
	"sync"

	"repro/internal/changelog"
	"repro/internal/freelist"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/timeseries"

	litmus "repro"
)

// worldKey identifies a world by the canonical (normalized) request
// fields that determine it.
type worldKey struct {
	topo    TopologySpec
	genSeed int64
	index   IndexSpec
}

// seriesKey names one memoized base series.
type seriesKey struct {
	id     string
	metric kpi.KPI
}

// world is a built network, its effect-free base generator and the base
// series synthesized so far. The network is read-only once built. Every
// series of a world lives on its index, so the memo keeps values only.
type world struct {
	key worldKey
	net *netsim.Network
	ix  timeseries.Index

	mu     sync.Mutex // guards base (its lazily filled caches) and series
	base   *gen.Generator
	series map[seriesKey][]float64
}

// slot is the process-wide world slot.
var slot struct {
	mu sync.Mutex
	w  *world
}

func (c *compiledRequest) worldKey() worldKey {
	return worldKey{topo: *c.norm.Topology, genSeed: c.genSeed, index: c.norm.Index}
}

// worldFor returns c's world under a world span of scope and counts the
// slot hit or miss. The span carries no hit attribute: with a
// process-wide slot, whether a job hits depends on what ran before it.
func worldFor(scope *obs.Scope, c *compiledRequest) *world {
	sp := scope.Child(obs.SpanWorld)
	defer sp.End()
	w, hit := lookupWorld(c)
	if hit {
		scope.Counter(obs.MetricWorldCacheHits).Add(1)
	} else {
		scope.Counter(obs.MetricWorldCacheMisses).Add(1)
	}
	return w
}

// lookupWorld returns c's world from the slot, or builds it and replaces
// the slot; hit reports whether the slot already held it.
func lookupWorld(c *compiledRequest) (w *world, hit bool) {
	key := c.worldKey()
	slot.mu.Lock()
	w = slot.w
	slot.mu.Unlock()
	if w != nil && w.key == key {
		return w, true
	}
	// Build outside the lock, so jobs on the resident world never wait
	// for another world's build.
	w = newWorld(key, c)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if cur := slot.w; cur != nil && cur.key == key {
		return cur, false // a concurrent miss installed it first; share its memo
	}
	slot.w = w
	return w, false
}

func newWorld(key worldKey, c *compiledRequest) *world {
	net := netsim.Build(c.topo)
	gcfg := gen.DefaultConfig(c.index)
	gcfg.Seed = c.genSeed
	return &world{key: key, net: net, ix: c.index, base: gen.New(net, gcfg), series: map[seriesKey][]float64{}}
}

// provider returns the series provider of one change in w. Elements in
// the change's impact scope read a generator carrying only this change's
// effect; every other element reads the memoized base series. The
// generator consumes no randomness for elements outside an effect's
// scope, so every series is bit-identical to a world generated with this
// effect alone. kpis are the request's KPIs, the only metrics callers
// ask for; an element's first touch draws them all.
//
// study holds the change's study series: len(change.Elements) × len(kpis)
// × N values, study element i's at the i-th run of len(kpis) × N. It is
// a slice of the job's buffer from the free list (studyBufs), which the
// job reuses after its documents are written, so nothing that outlives
// the job may keep a slice of it: the world memo never does. The change's
// generator is derived from the world's base generator at the first
// study draw, so it shares every regional stress path the base has drawn
// by then, and it hands each path it draws itself back to the base, so
// a fresh world's first change draws its study region once, not once
// for the study and again for the controls. The provider is for one
// sequential panel assembly, so its own state needs no lock; the base
// memo behind it is shared.
func (w *world) provider(change *changelog.Change, kpis []kpi.KPI, study []float64) *changeProvider {
	return &changeProvider{
		w: w, change: change, kpis: kpis, study: study,
		effect: change.Effect(w.net), // covers exactly change.ImpactScope
		drawn:  make([]bool, len(change.Elements)),
	}
}

// changeProvider serves one change's series in its world (provider).
type changeProvider struct {
	w      *world
	change *changelog.Change
	kpis   []kpi.KPI
	study  []float64
	effect gen.Effect
	eg     *gen.Generator // the change's generator, derived at its first draw
	drawn  []bool         // study element i's series are in study
}

// Series implements litmus.SeriesProvider.
func (p *changeProvider) Series(id string, metric kpi.KPI) (litmus.Series, bool) {
	w := p.w
	if w.net.Element(id) == nil {
		return litmus.Series{}, false
	}
	if !p.effect.Elements[id] {
		return w.baseSeries(id, metric, p.kpis), true
	}
	k := slices.Index(p.kpis, metric)
	if k < 0 {
		return litmus.Series{}, false
	}
	if p.eg == nil {
		w.mu.Lock()
		p.eg = w.base.WithEffects([]gen.Effect{p.effect})
		w.mu.Unlock()
	}
	per := len(p.kpis) * w.ix.N
	var vals []float64
	if i := slices.Index(p.change.Elements, id); i >= 0 {
		vals = p.study[i*per : (i+1)*per]
		if !p.drawn[i] {
			p.draw(id, vals)
			p.drawn[i] = true
		}
	} else {
		// Below a study element in a propagating change's scope:
		// never a control, so panel assembly does not ask for it.
		vals = make([]float64, per)
		p.draw(id, vals)
	}
	return w.seriesOf(vals, k), true
}

// draw draws id's series for every KPI into vals on the change's
// generator, then hands the regional paths it drew back to the base.
func (p *changeProvider) draw(id string, vals []float64) {
	p.eg.SeriesInto(id, p.kpis, vals)
	p.w.mu.Lock()
	p.w.base.ShareRegions(p.eg)
	p.w.mu.Unlock()
}

// baseSeries returns the effect-free series of (id, metric) from the
// world's memo. On a miss it draws the element's series for every KPI of
// kpis into one array. The memo keeps only the series, not the
// generator's counters: retaining the counters too measured +13 % peak
// RSS against +3–7 % for the series alone.
func (w *world) baseSeries(id string, metric kpi.KPI, kpis []kpi.KPI) litmus.Series {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v, ok := w.series[seriesKey{id, metric}]; ok {
		return litmus.Series{Index: w.ix, Values: v}
	}
	vals := make([]float64, len(kpis)*w.ix.N)
	w.base.SeriesInto(id, kpis, vals)
	for i, k := range kpis {
		w.series[seriesKey{id, k}] = w.seriesOf(vals, i).Values
	}
	return litmus.Series{Index: w.ix, Values: w.series[seriesKey{id, metric}]}
}

// seriesOf returns the k-th KPI's series of an element's values drawn by
// SeriesInto, capped at its length, so an append to it cannot write into
// the next KPI's values.
func (w *world) seriesOf(vals []float64, k int) litmus.Series {
	n := w.ix.N
	return litmus.Series{Index: w.ix, Values: vals[k*n : (k+1)*n : (k+1)*n]}
}

// studyBufBytes bounds the free list of study-series buffers, as the
// engine's sample cache is bounded (internal/core/scratch.go). Measured
// peaks (seed 1, 8 s runs): 542,976 B on changelog-batch (a 100-entry
// batch's 525 KiB buffer and a single's) and 10,752 B (two singles'
// buffers) on fresh-world, shared-world and routed-mixed.
const studyBufBytes = 1 << 20

// studyBufs is the process-wide free list of study-series buffers: the
// buffers of finished jobs, at most studyBufBytes of them in total. It is
// deliberately not a sync.Pool, which garbage collection empties between
// batches (see DESIGN.md "Working memory").
var studyBufs = freelist.New(studyBufBytes, func(b []float64) int { return 8 * cap(b) })

// takeStudyBuf returns a buffer of n values: the smallest listed buffer
// that holds n, or, when none does, a new one of exactly n. It does not
// clear the buffer: the providers draw every value they hand out.
func takeStudyBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	b, ok := studyBufs.TakeBest(func(b []float64) (int, bool) { return cap(b), cap(b) >= n })
	if !ok {
		return make([]float64, n)
	}
	return b[:n]
}

// releaseStudyBuf returns a buffer taken by takeStudyBuf to the list
// once nothing reads it, or drops it when the list has no room for it.
func releaseStudyBuf(buf []float64) {
	if cap(buf) > 0 {
		studyBufs.Put(buf)
	}
}
