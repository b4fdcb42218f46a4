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
// be another shape than this world's. At the caps (152,495 elements) a
// layout is about 8.3 MB: a 2.4 MB ID table, a 2.1 MB index, 1.8 MB of
// child links and 1.9 MB of ID strings; for the default shape it is
// about 100 KB. A network of the layout's shape shares all of it but the
// ID table.

import (
	"sync"

	"repro/internal/changelog"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"

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
// series synthesized so far. The network is read-only once built.
type world struct {
	key  worldKey
	net  *netsim.Network
	gcfg gen.Config // the base generator's config; jobs add their effect

	mu     sync.Mutex // guards base (its lazily filled caches) and series
	base   *gen.Generator
	series map[seriesKey]litmus.Series
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
	return &world{key: key, net: net, gcfg: gcfg, base: gen.New(net, gcfg), series: map[seriesKey]litmus.Series{}}
}

// provider returns the series provider of one change in w. Elements in
// the change's impact scope read a generator carrying only this change's
// effect; every other element reads the memoized base series. The
// generator consumes no randomness for elements outside an effect's
// scope, so every series is bit-identical to a world generated with this
// effect alone. kpis are the request's KPIs, the only metrics callers
// ask for; both memos fill them together on an element's first touch.
// The provider is for one sequential panel assembly, so its own memo of
// the change's elements needs no lock; the base memo behind it is shared.
func (w *world) provider(change *changelog.Change, kpis []kpi.KPI) litmus.SeriesProvider {
	effect := change.Effect(w.net) // covers exactly change.ImpactScope
	cfg := w.gcfg
	cfg.Effects = []gen.Effect{effect}
	eg := gen.New(w.net, cfg)
	own := map[seriesKey]litmus.Series{}
	return litmus.ProviderFunc(func(id string, metric kpi.KPI) (litmus.Series, bool) {
		if w.net.Element(id) == nil {
			return litmus.Series{}, false
		}
		if effect.Elements[id] {
			return memoSeries(own, eg, id, metric, kpis), true
		}
		return w.baseSeries(id, metric, kpis), true
	})
}

// baseSeries returns the effect-free series of (id, metric) from the
// world's memo. The memo keeps only the series, not the generator's
// counters: retaining the counters too measured +13 % peak RSS against
// +3–7 % for the series alone.
func (w *world) baseSeries(id string, metric kpi.KPI, kpis []kpi.KPI) litmus.Series {
	w.mu.Lock()
	defer w.mu.Unlock()
	return memoSeries(w.series, w.base, id, metric, kpis)
}

// memoSeries returns (id, metric) from memo. On a miss it synthesizes the
// element's series for every KPI of kpis from one draw of g.
func memoSeries(memo map[seriesKey]litmus.Series, g *gen.Generator, id string, metric kpi.KPI, kpis []kpi.KPI) litmus.Series {
	if s, ok := memo[seriesKey{id, metric}]; ok {
		return s
	}
	for i, s := range g.SeriesFor(id, kpis) {
		memo[seriesKey{id, kpis[i]}] = s
	}
	return memo[seriesKey{id, metric}]
}
