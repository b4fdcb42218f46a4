package gen

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/extfactor"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

var epoch = time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)

func dailyIndex(days int) timeseries.Index {
	return timeseries.NewIndex(epoch, 24*time.Hour, days)
}

func testNetwork() *netsim.Network {
	cfg := netsim.DefaultTopologyConfig()
	cfg.Regions = []netsim.Region{netsim.Northeast, netsim.Southeast}
	return netsim.Build(cfg)
}

func TestDeterminism(t *testing.T) {
	net := testNetwork()
	cfg := DefaultConfig(dailyIndex(30))
	g1 := New(net, cfg)
	g2 := New(net, cfg)
	id := net.OfKind(netsim.NodeB)[0]
	s1 := g1.Series(id, kpi.VoiceRetainability)
	s2 := g2.Series(id, kpi.VoiceRetainability)
	for i := range s1.Values {
		if s1.Values[i] != s2.Values[i] {
			t.Fatalf("series differ at %d: %v vs %v", i, s1.Values[i], s2.Values[i])
		}
	}
	cfg.Seed = 99
	g3 := New(net, cfg)
	s3 := g3.Series(id, kpi.VoiceRetainability)
	same := true
	for i := range s1.Values {
		if s1.Values[i] != s3.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical series")
	}
}

func TestCountersValid(t *testing.T) {
	net := testNetwork()
	g := New(net, DefaultConfig(dailyIndex(30)))
	for _, id := range []string{net.OfKind(netsim.NodeB)[0], net.OfKind(netsim.RNC)[0], net.OfKind(netsim.MSC)[0]} {
		for i, c := range g.Counters(id) {
			if err := c.Validate(); err != nil {
				t.Fatalf("element %s bucket %d: %v", id, i, err)
			}
		}
	}
}

func TestKPIRanges(t *testing.T) {
	net := testNetwork()
	g := New(net, DefaultConfig(dailyIndex(60)))
	id := net.OfKind(netsim.NodeB)[1]
	for _, k := range []kpi.KPI{kpi.VoiceAccessibility, kpi.VoiceRetainability, kpi.DataAccessibility, kpi.DataRetainability, kpi.DroppedCallRatio, kpi.RadioBearerSuccess} {
		s := g.Series(id, k)
		for i, v := range s.Values {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%v[%d] = %v outside [0,1]", k, i, v)
			}
		}
	}
	thr := g.Series(id, kpi.DataThroughput)
	for i, v := range thr.Values {
		if v <= 0 {
			t.Fatalf("throughput[%d] = %v, want positive", i, v)
		}
	}
}

func TestHealthyBaselineLevels(t *testing.T) {
	net := testNetwork()
	g := New(net, DefaultConfig(dailyIndex(30)))
	id := net.OfKind(netsim.NodeB)[2]
	ret := stats.Mean(g.Series(id, kpi.VoiceRetainability).Values)
	if ret < 0.93 || ret > 0.999 {
		t.Errorf("baseline voice retainability = %v, want healthy ~0.98", ret)
	}
	acc := stats.Mean(g.Series(id, kpi.VoiceAccessibility).Values)
	if acc < 0.93 || acc > 0.999 {
		t.Errorf("baseline voice accessibility = %v, want healthy", acc)
	}
}

func TestSpatialCorrelationWithinRegion(t *testing.T) {
	// Observation (i) of §3.1: geographically close elements are
	// statistically correlated; cross-region pairs are less so.
	net := testNetwork()
	cfg := DefaultConfig(dailyIndex(120))
	cfg.RegionalNoiseSD = 0.5 // strengthen the shared signal for the test
	g := New(net, cfg)
	ne := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == netsim.Northeast
	})
	se := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == netsim.Southeast
	})
	a := g.Series(ne[0], kpi.VoiceRetainability).Values
	b := g.Series(ne[1], kpi.VoiceRetainability).Values
	c := g.Series(se[0], kpi.VoiceRetainability).Values
	within := stats.PearsonCorrelation(a, b)
	across := stats.PearsonCorrelation(a, c)
	if within < 0.3 {
		t.Errorf("within-region correlation = %v, want substantial", within)
	}
	if within <= across {
		t.Errorf("within-region correlation %v not above cross-region %v", within, across)
	}
}

func TestEffectShiftsKPI(t *testing.T) {
	net := testNetwork()
	id := net.OfKind(netsim.NodeB)[3]
	ix := dailyIndex(28)
	changeAt := epoch.Add(14 * 24 * time.Hour)

	base := New(net, DefaultConfig(ix))
	cfgDeg := DefaultConfig(ix)
	cfgDeg.Effects = []Effect{EffectOn("degrade", []string{id}, changeAt, time.Time{}, -2)}
	deg := New(net, cfgDeg)

	kSeries := func(g *Generator) (before, after []float64) {
		s := g.Series(id, kpi.VoiceRetainability)
		b, a := s.SplitAt(changeAt)
		return b.Values, a.Values
	}
	_, baseAfter := kSeries(base)
	_, degAfter := kSeries(deg)
	if stats.Mean(degAfter) >= stats.Mean(baseAfter)-0.005 {
		t.Errorf("quality −2 effect did not degrade retainability: %v vs %v",
			stats.Mean(degAfter), stats.Mean(baseAfter))
	}
	// Before the change the two generators must agree in distribution;
	// with identical seeds they agree exactly.
	b1, _ := kSeries(base)
	b2, _ := kSeries(deg)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("effect leaked before its start time")
		}
	}
}

func TestEffectOnDroppedCallRatioDirection(t *testing.T) {
	// Negative quality must *raise* the dropped-call ratio.
	net := testNetwork()
	id := net.OfKind(netsim.NodeB)[4]
	ix := dailyIndex(28)
	changeAt := epoch.Add(14 * 24 * time.Hour)
	cfg := DefaultConfig(ix)
	cfg.Effects = []Effect{EffectOn("bad-feature", []string{id}, changeAt, time.Time{}, -1.5)}
	g := New(net, cfg)
	s := g.Series(id, kpi.DroppedCallRatio)
	b, a := s.SplitAt(changeAt)
	if stats.Mean(a.Values) <= stats.Mean(b.Values) {
		t.Errorf("negative quality did not raise dropped-call ratio: before=%v after=%v",
			stats.Mean(b.Values), stats.Mean(a.Values))
	}
}

func TestLoadEffectRaisesVolume(t *testing.T) {
	net := testNetwork()
	id := net.OfKind(netsim.NodeB)[5]
	ix := dailyIndex(20)
	evStart := epoch.Add(10 * 24 * time.Hour)
	cfg := DefaultConfig(ix)
	cfg.Effects = []Effect{{
		Label: "event", Elements: map[string]bool{id: true},
		Start: evStart, LoadMult: 3,
	}}
	g := New(net, cfg)
	s := g.Series(id, kpi.VoiceCallVolume)
	b, a := s.SplitAt(evStart)
	if stats.Mean(a.Values) < 2*stats.Mean(b.Values) {
		t.Errorf("load 3x effect produced volume %v -> %v", stats.Mean(b.Values), stats.Mean(a.Values))
	}
}

func TestFoliageSeasonalityInGeneratedSeries(t *testing.T) {
	// Fig. 3 shape: NE summer retainability below NE winter; SE flat.
	net := testNetwork()
	ix := dailyIndex(365)
	cfg := DefaultConfig(ix)
	cfg.AnnualQualityTrend = 0 // isolate seasonality
	cfg.Factors = extfactor.Stack{extfactor.Foliage{Amplitude: 1.5}}
	g := New(net, cfg)

	seasonGap := func(id string) float64 {
		s := g.Series(id, kpi.VoiceRetainability)
		jan := s.Window(epoch, epoch.Add(60*24*time.Hour))
		jul := s.Window(epoch.Add(180*24*time.Hour), epoch.Add(240*24*time.Hour))
		return stats.Mean(jan.Values) - stats.Mean(jul.Values)
	}
	ne := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == netsim.Northeast
	})
	se := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == netsim.Southeast
	})
	if gap := seasonGap(ne[0]); gap < 0.005 {
		t.Errorf("NE seasonal gap = %v, want visible dip in summer", gap)
	}
	if gap := seasonGap(se[0]); math.Abs(gap) > 0.004 {
		t.Errorf("SE seasonal gap = %v, want ~0", gap)
	}
}

func TestDisableSamplingNoise(t *testing.T) {
	net := testNetwork()
	cfg := DefaultConfig(dailyIndex(10))
	cfg.DisableSamplingNoise = true
	cfg.ElementNoiseSD = 1e-9
	cfg.RegionalNoiseSD = 1e-9
	cfg.AnnualQualityTrend = 1e-9
	g := New(net, cfg)
	s := g.Series(net.OfKind(netsim.NodeB)[0], kpi.VoiceRetainability)
	sd := stats.StdDev(s.Values)
	if sd > 0.002 {
		t.Errorf("noise-free series has sd %v, want near 0", sd)
	}
}

func TestPanelColumnsOrdered(t *testing.T) {
	net := testNetwork()
	g := New(net, DefaultConfig(dailyIndex(10)))
	ids := net.OfKind(netsim.NodeB)[:5]
	p := g.Panel(kpi.DataRetainability, ids)
	got := p.IDs()
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("panel order %v, want %v", got, ids)
		}
	}
}

func TestCountersCached(t *testing.T) {
	net := testNetwork()
	g := New(net, DefaultConfig(dailyIndex(10)))
	id := net.OfKind(netsim.NodeB)[0]
	c1 := g.Counters(id)
	c2 := g.Counters(id)
	if &c1[0] != &c2[0] {
		t.Error("counters not cached")
	}
}

// TestSeriesForMatchesSeriesWithoutCaching pins SeriesFor, which writes
// each bucket's KPIs straight into its series, bit for bit against
// Series, which reads them off the cached counters, for every KPI. The
// configs together reach every branch of the bucket loop: a ramped
// effect with a load multiplier, an effect scaled by sensitivity, a
// coupled neighbour (share ≠ 1) beside an effect that misses the element,
// a Match-selected effect, AR and white element noise, and exact
// expectations without sampling noise.
func TestSeriesForMatchesSeriesWithoutCaching(t *testing.T) {
	net := testNetwork()
	nbs := net.OfKind(netsim.NodeB)
	id, sib, other := nbs[0], nbs[1], nbs[20]
	ix := dailyIndex(30)
	start, ramp := epoch.Add(10*24*time.Hour), 5*24*time.Hour
	ramped := EffectOn("ramp-load", []string{id}, start, time.Time{}, -1.2)
	ramped.Ramp, ramped.LoadMult = ramp, 1.8
	scaled := EffectOn("sens", []string{id}, start, epoch.Add(25*24*time.Hour), 0.9)
	scaled.ScaleWithSensitivity = true
	coupled := EffectOn("coupled", []string{sib}, start, time.Time{}, -2)
	coupled.Ramp, coupled.LoadMult = ramp, 1.5
	coupled.Coupling = map[string]float64{id: 0.4}
	missed := EffectOn("missed", []string{other}, start, time.Time{}, -3)
	matched := Effect{
		Label: "match", Start: start, Quality: 0.5, LoadMult: 0.7,
		Match: func(e *netsim.Element) bool { return e.ID == id },
	}
	storm := extfactor.Stack{extfactor.RegionWeatherEvent{
		Kind: extfactor.Thunderstorm, Region: netsim.Northeast,
		Start: epoch.Add(5 * 24 * time.Hour), End: epoch.Add(12 * 24 * time.Hour), Severity: 1.5,
	}}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"ramped effect with load multiplier", func(c *Config) {
			c.Effects = []Effect{ramped}
			c.ElementNoiseAR = 0.6
		}},
		{"scaled with sensitivity", func(c *Config) {
			c.Effects = []Effect{scaled}
			c.ElementNoiseAR = 0.3
			c.Factors = storm
		}},
		{"coupled neighbour", func(c *Config) {
			c.Effects = []Effect{missed, coupled}
			c.ElementNoiseAR = 0.6
		}},
		{"matched effect, white noise", func(c *Config) {
			c.Effects = []Effect{matched, ramped}
			c.ElementNoiseAR = 0
		}},
		{"no sampling noise", func(c *Config) {
			c.Effects = []Effect{ramped, coupled, scaled}
			c.DisableSamplingNoise = true
			c.Factors = storm
		}},
	}
	ks := kpi.All()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(ix)
			tc.edit(&cfg)
			g := New(net, cfg)
			got := g.SeriesFor(id, ks)
			if _, cached := g.counters[id]; cached {
				t.Error("SeriesFor cached the element's counters")
			}
			ref := New(net, cfg)
			for i, k := range ks {
				want := ref.Series(id, k)
				for j := range want.Values {
					if math.Float64bits(got[i].Values[j]) != math.Float64bits(want.Values[j]) {
						t.Fatalf("%v at %d: SeriesFor %v, Series %v", k, j, got[i].Values[j], want.Values[j])
					}
				}
			}
		})
	}
}

// TestSeriesForReusesOneSource pins the draw's one rand.Rand from the
// free list: each stream reseeds it instead of allocating a ~4.9 KiB
// source. On a warm region SeriesFor draws three streams (rates,
// sensitivity, series) and keeps 1 + len(ks) allocations (the result
// slice and one value slice per KPI); a source per stream would add
// three more.
func TestSeriesForReusesOneSource(t *testing.T) {
	net := testNetwork()
	g := New(net, DefaultConfig(dailyIndex(30)))
	id := net.OfKind(netsim.NodeB)[0]
	ks := []kpi.KPI{kpi.VoiceRetainability, kpi.DataAccessibility}
	g.SeriesFor(id, ks) // warm the element's regional stress path
	allocs := testing.AllocsPerRun(20, func() { g.SeriesFor(id, ks) })
	const streams = 3
	outputs := float64(1 + len(ks))
	if allocs >= outputs+streams {
		t.Errorf("SeriesFor allocates %v blocks for %v outputs: one source per stream or more, want fewer", allocs, outputs)
	}
}

// TestSeriesForBytes pins what SeriesFor allocates on the serve tier's
// grid (112 six-hour buckets): the KPIs' value slices and a little
// bookkeeping, but no per-bucket counters (112 × 80 B). With the
// counters slice, two KPIs read 11,392 B.
func TestSeriesForBytes(t *testing.T) {
	net := testNetwork()
	const n = 112
	g := New(net, DefaultConfig(timeseries.NewIndex(epoch, 6*time.Hour, n)))
	id := net.OfKind(netsim.NodeB)[0]
	ks := []kpi.KPI{kpi.VoiceRetainability, kpi.DataAccessibility}
	g.SeriesFor(id, ks) // warm the element's regional stress path
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		g.SeriesFor(id, ks)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("SeriesFor: %d B for %d KPIs at N = %d", per, len(ks), n)
	if limit := uint64(len(ks)*n*8 + 512); per > limit {
		t.Errorf("SeriesFor allocates %d B, want at most %d", per, limit)
	}
}

// generatorSink makes each generator TestNewGeneratorBytes builds escape
// to the heap, as the serve tier's do.
var generatorSink *Generator

// TestNewGeneratorBytes pins what New and WithEffects allocate: the
// generator alone, its regional cache an array inside it and its counters
// map made by the first Counters call. The rand.Rand its draws need comes
// from the free list per draw; a source per generator made New cost
// 5,728 B.
func TestNewGeneratorBytes(t *testing.T) {
	net := testNetwork()
	cfg := DefaultConfig(timeseries.NewIndex(epoch, 6*time.Hour, 112))
	base := New(net, cfg)
	base.SeriesFor(net.OfKind(netsim.NodeB)[0], []kpi.KPI{kpi.VoiceRetainability}) // a drawn region to share
	effects := []Effect{EffectOn("derived", net.OfKind(netsim.NodeB)[:3], epoch, time.Time{}, -1)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name string
		make func() *Generator
	}{
		{"New", func() *Generator { return New(net, cfg) }},
		{"WithEffects", func() *Generator { return base.WithEffects(effects) }},
	} {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			generatorSink = tc.make()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B", tc.name, per)
		if per > 1024 {
			t.Errorf("%s allocates %d B, want at most 1024", tc.name, per)
		}
	}
}

// TestWithEffectsMatchesNew pins a derived generator bit for bit against
// New with the same effects, whatever its parent has drawn: no region,
// one region, or every region of a five-region network. The derived
// generator starts with its parent's paths, the same slices, and draws
// the others into its own cache, never its parent's.
func TestWithEffectsMatchesNew(t *testing.T) {
	net := netsim.Build(netsim.DefaultTopologyConfig())
	cfg := DefaultConfig(dailyIndex(30))
	cfg.ElementNoiseAR = 0.4
	byRegion := map[netsim.Region][]string{}
	for _, id := range net.OfKind(netsim.NodeB) {
		r := net.MustElement(id).Region
		byRegion[r] = append(byRegion[r], id)
	}
	regions := netsim.Regions()
	study := byRegion[regions[1]][:3]
	start := epoch.Add(12 * 24 * time.Hour)
	effect := EffectOn("derived", study, start, time.Time{}, -1.5)
	effect.LoadMult = 1.4
	coupled := EffectOn("coupled", byRegion[regions[2]][:1], start, time.Time{}, 0.8)
	coupled.Coupling = map[string]float64{byRegion[regions[2]][1]: 0.5}
	effects := []Effect{effect, coupled}
	withEffects := cfg
	withEffects.Effects = effects
	ks := []kpi.KPI{kpi.VoiceRetainability, kpi.DataAccessibility, kpi.DroppedCallRatio}
	var ids []string // the study, coupled and plain elements of every region
	for _, r := range regions {
		ids = append(ids, byRegion[r][:4]...)
	}
	for _, tc := range []struct {
		name  string
		drawn []netsim.Region
	}{
		{"no region", nil},
		{"one region", regions[1:2]},
		{"every region", regions},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := New(net, cfg)
			for _, r := range tc.drawn {
				base.SeriesFor(byRegion[r][5], ks)
			}
			d := base.WithEffects(effects)
			ref := New(net, withEffects)
			for _, id := range ids {
				got, want := d.SeriesFor(id, ks), ref.SeriesFor(id, ks)
				for i := range ks {
					for b, v := range want[i].Values {
						if math.Float64bits(got[i].Values[b]) != math.Float64bits(v) {
							t.Fatalf("%s %v at %d: derived %v, New %v", id, ks[i], b, got[i].Values[b], v)
						}
					}
				}
			}
			for _, r := range regions {
				shared := slices.Contains(tc.drawn, r)
				if shared && &d.regional[r][0] != &base.regional[r][0] {
					t.Errorf("%v: the derived generator redrew its parent's path", r)
				}
				if !shared && base.regional[r] != nil {
					t.Errorf("%v: the derived generator drew into its parent's cache", r)
				}
			}
		})
	}
}

// TestPoolConcurrentGeneratorsMatchSequential has goroutines each draw
// series from a generator of their own on one network, so their draws
// take and return generators of the process-wide free list at once, and
// requires every series to equal a sequential run's bit for bit.
func TestPoolConcurrentGeneratorsMatchSequential(t *testing.T) {
	net := testNetwork()
	cfg := DefaultConfig(dailyIndex(30))
	cfg.ElementNoiseAR = 0.4
	ids := append(net.OfKind(netsim.NodeB)[:12], net.OfKind(netsim.Cell)[:6]...)
	ks := []kpi.KPI{kpi.VoiceRetainability, kpi.DataAccessibility}
	seq := New(net, cfg)
	want := make([][]timeseries.Series, len(ids))
	for i, id := range ids {
		want[i] = seq.SeriesFor(id, ks)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := New(net, cfg)
			for j := range ids {
				i := (j + 5*w) % len(ids) // each goroutine in its own order
				for m, s := range g.SeriesFor(ids[i], ks) {
					for b, v := range s.Values {
						if math.Float64bits(v) != math.Float64bits(want[i][m].Values[b]) {
							t.Errorf("goroutine %d, %s %v at %d: %v, sequential %v", w, ids[i], ks[m], b, v, want[i][m].Values[b])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEmptyIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(testNetwork(), Config{})
}

func TestSensitivityOverride(t *testing.T) {
	// A high-sensitivity element must respond to a regional factor more
	// strongly than a zero-sensitivity one.
	net := testNetwork()
	ids := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == netsim.Southeast
	})
	hot, cold := ids[0], ids[1]
	ix := dailyIndex(28)
	stormStart := epoch.Add(14 * 24 * time.Hour)
	cfg := DefaultConfig(ix)
	cfg.AnnualQualityTrend = 0
	cfg.Factors = extfactor.Stack{extfactor.RegionWeatherEvent{
		Kind: extfactor.Thunderstorm, Region: netsim.Southeast,
		Start: stormStart, End: ix.End(), Severity: 2,
	}}
	cfg.SensitivityOverrides = map[string]float64{hot: 2.0, cold: 0.0}
	g := New(net, cfg)
	drop := func(id string) float64 {
		s := g.Series(id, kpi.VoiceRetainability)
		b, a := s.SplitAt(stormStart)
		return stats.Mean(b.Values) - stats.Mean(a.Values)
	}
	if dh, dc := drop(hot), drop(cold); dh < dc+0.01 {
		t.Errorf("sensitivity override ineffective: hot drop %v, cold drop %v", dh, dc)
	}
}

func TestTrendImprovesQualityOverYears(t *testing.T) {
	net := testNetwork()
	ix := dailyIndex(730)
	cfg := DefaultConfig(ix)
	cfg.AnnualQualityTrend = 0.8
	g := New(net, cfg)
	id := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == netsim.Southeast // avoid seasonality
	})[0]
	s := g.Series(id, kpi.VoiceRetainability)
	firstQ := stats.Mean(s.Slice(0, 180).Values)
	lastQ := stats.Mean(s.Slice(550, 730).Values)
	if lastQ <= firstQ {
		t.Errorf("secular trend missing: %v -> %v", firstQ, lastQ)
	}
}

func TestEffectAppliesToAndWeight(t *testing.T) {
	ne := &netsim.Element{ID: "a", Region: netsim.Northeast}
	se := &netsim.Element{ID: "b", Region: netsim.Southeast}

	byID := EffectOn("x", []string{"a"}, epoch, epoch.Add(time.Hour), 1)
	if !byID.AppliesTo(ne) || byID.AppliesTo(se) {
		t.Error("ID-based effect coverage wrong")
	}
	byMatch := Effect{Match: func(e *netsim.Element) bool { return e.Region == netsim.Southeast }}
	if byMatch.AppliesTo(ne) || !byMatch.AppliesTo(se) {
		t.Error("match-based effect coverage wrong")
	}
	var none Effect
	if none.AppliesTo(ne) {
		t.Error("empty effect should cover nothing")
	}

	// Ramp weights.
	ramped := Effect{Start: epoch, End: epoch.Add(10 * time.Hour), Ramp: 4 * time.Hour}
	endless := epoch.Add(100 * time.Hour)
	if w := ramped.weightAt(epoch.Add(-time.Hour), endless); w != 0 {
		t.Errorf("weight before start = %v", w)
	}
	if w := ramped.weightAt(epoch.Add(2*time.Hour), endless); w != 0.5 {
		t.Errorf("mid-ramp weight = %v, want 0.5", w)
	}
	if w := ramped.weightAt(epoch.Add(6*time.Hour), endless); w != 1 {
		t.Errorf("post-ramp weight = %v, want 1", w)
	}
	if w := ramped.weightAt(epoch.Add(10*time.Hour), endless); w != 0 {
		t.Errorf("weight at end = %v, want 0 (half-open)", w)
	}
	// Zero End runs to the index end.
	open := Effect{Start: epoch}
	if w := open.weightAt(epoch.Add(50*time.Hour), endless); w != 1 {
		t.Errorf("open-ended weight = %v, want 1", w)
	}
	if w := open.weightAt(endless, endless); w != 0 {
		t.Errorf("weight at index end = %v, want 0", w)
	}
}

func TestEffectCouplingBleedsIntoNeighbors(t *testing.T) {
	net := testNetwork()
	id := net.OfKind(netsim.NodeB)[6]
	sibs := net.Siblings(id)
	coupled, uncoupled := sibs[0], sibs[1]
	ix := dailyIndex(28)
	changeAt := epoch.Add(14 * 24 * time.Hour)

	base := New(net, DefaultConfig(ix))
	cfg := DefaultConfig(ix)
	ef := EffectOn("congestion", []string{id}, changeAt, time.Time{}, -2)
	ef.Coupling = map[string]float64{coupled: 0.5}
	cfg.Effects = []Effect{ef}
	g := New(net, cfg)

	drop := func(g *Generator, el string) float64 {
		s := g.Series(el, kpi.VoiceRetainability)
		b, a := s.SplitAt(changeAt)
		return stats.Mean(b.Values) - stats.Mean(a.Values)
	}
	studyDrop := drop(g, id) - drop(base, id)
	coupledDrop := drop(g, coupled) - drop(base, coupled)
	if coupledDrop < 0.003 {
		t.Errorf("coupled sibling drop = %v, want visible bleed", coupledDrop)
	}
	if coupledDrop >= studyDrop {
		t.Errorf("coupled sibling drop %v not below study drop %v", coupledDrop, studyDrop)
	}
	// Elements outside the coupling map are untouched, bit for bit.
	s1 := base.Series(uncoupled, kpi.VoiceRetainability)
	s2 := g.Series(uncoupled, kpi.VoiceRetainability)
	for i := range s1.Values {
		if s1.Values[i] != s2.Values[i] {
			t.Fatalf("uncoupled sibling series differ at %d", i)
		}
	}
	// Directly covered elements take the full effect regardless of the
	// coupling map — same arithmetic as an uncoupled effect.
	cfgPlain := DefaultConfig(ix)
	cfgPlain.Effects = []Effect{EffectOn("congestion", []string{id}, changeAt, time.Time{}, -2)}
	plain := New(net, cfgPlain)
	p1 := plain.Series(id, kpi.VoiceRetainability)
	p2 := g.Series(id, kpi.VoiceRetainability)
	for i := range p1.Values {
		if p1.Values[i] != p2.Values[i] {
			t.Fatalf("study series changed by adding a coupling map at %d", i)
		}
	}
}

func TestEffectCouplingScalesLoad(t *testing.T) {
	net := testNetwork()
	id := net.OfKind(netsim.NodeB)[7]
	sib := net.Siblings(id)[0]
	ix := dailyIndex(20)
	evStart := epoch.Add(10 * 24 * time.Hour)
	cfg := DefaultConfig(ix)
	cfg.Effects = []Effect{{
		Label: "event", Elements: map[string]bool{id: true},
		Start: evStart, LoadMult: 3,
		Coupling: map[string]float64{sib: 0.5},
	}}
	g := New(net, cfg)
	base := New(net, DefaultConfig(ix))
	gain := func(g *Generator, el string) float64 {
		s := g.Series(el, kpi.VoiceCallVolume)
		b, a := s.SplitAt(evStart)
		return stats.Mean(a.Values) / stats.Mean(b.Values)
	}
	sibGain := gain(g, sib) / gain(base, sib)
	idGain := gain(g, id) / gain(base, id)
	if sibGain < 1.2 {
		t.Errorf("coupled sibling load gain = %v, want partial spillover", sibGain)
	}
	if sibGain >= idGain {
		t.Errorf("coupled load gain %v not below direct gain %v", sibGain, idGain)
	}
}

func TestGeneratorAccessors(t *testing.T) {
	net := testNetwork()
	ix := dailyIndex(5)
	g := New(net, DefaultConfig(ix))
	if g.Network() != net {
		t.Error("Network accessor wrong")
	}
	if !g.Index().Equal(ix) {
		t.Error("Index accessor wrong")
	}
}

func TestGeneratorBadARPanics(t *testing.T) {
	cfg := DefaultConfig(dailyIndex(5))
	cfg.RegionalAR = 1.0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for AR >= 1")
		}
	}()
	New(testNetwork(), cfg)
}

func TestFailureScale(t *testing.T) {
	net := testNetwork()
	ix := dailyIndex(20)
	id := net.OfKind(netsim.NodeB)[0]
	base := DefaultConfig(ix)
	scaled := DefaultConfig(ix)
	scaled.FailureScale = 3
	low := stats.Mean(New(net, base).Series(id, kpi.DroppedCallRatio).Values)
	high := stats.Mean(New(net, scaled).Series(id, kpi.DroppedCallRatio).Values)
	if high < 2*low {
		t.Errorf("FailureScale 3 raised dropped-call ratio only %v -> %v", low, high)
	}
}

func TestScaleWithSensitivityEffect(t *testing.T) {
	net := testNetwork()
	ix := dailyIndex(20)
	ids := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == netsim.Southeast
	})
	hot, cold := ids[0], ids[1]
	changeAt := epoch.Add(10 * 24 * time.Hour)
	cfg := DefaultConfig(ix)
	cfg.AnnualQualityTrend = 0
	cfg.SensitivityOverrides = map[string]float64{hot: 2.0, cold: 0.5}
	ef := EffectOn("scaled", []string{hot, cold}, changeAt, time.Time{}, -2)
	ef.ScaleWithSensitivity = true
	cfg.Effects = []Effect{ef}
	g := New(net, cfg)
	drop := func(id string) float64 {
		s := g.Series(id, kpi.VoiceRetainability)
		b, a := s.SplitAt(changeAt)
		return stats.Mean(b.Values) - stats.Mean(a.Values)
	}
	if dh, dc := drop(hot), drop(cold); dh < dc+0.01 {
		t.Errorf("sensitivity-scaled effect: hot drop %v should exceed cold drop %v", dh, dc)
	}
}
