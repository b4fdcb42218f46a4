package gen

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/extfactor"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/seedmix"
	"repro/internal/timeseries"
)

// Config parameterizes the generator. Zero values are replaced by the
// defaults documented on each field (see DefaultConfig).
type Config struct {
	// Index is the time grid every generated series lives on.
	Index timeseries.Index
	// Seed drives all randomness; equal seeds and element IDs reproduce
	// identical series.
	Seed int64
	// Factors are the external factors active during the simulation.
	Factors extfactor.Stack
	// Effects are injected change effects with known ground truth.
	Effects []Effect
	// RegionalAR is the AR(1) coefficient of the shared regional stress
	// process (default 0.7).
	RegionalAR float64
	// RegionalNoiseSD is the innovation standard deviation of the regional
	// process, in stress units (default 0.25).
	RegionalNoiseSD float64
	// ElementNoiseSD is the per-element idiosyncratic stress noise
	// (default 0.08).
	ElementNoiseSD float64
	// ElementNoiseAR is the AR(1) coefficient of the idiosyncratic noise
	// (default 0: white). Real per-element KPI noise is bursty —
	// interference episodes and local congestion persist for hours — and
	// a positive coefficient reproduces that.
	ElementNoiseAR float64
	// SensitivitySpread makes each element's response to the regional
	// process sens = 1 ± U(0, spread) (default 0.5). Heterogeneous
	// sensitivity is what biases Difference-in-Differences under
	// non-stationary external factors while leaving regression unharmed.
	SensitivitySpread float64
	// LoadStressCoeff converts excess load into congestion stress
	// (default 0.25): stress += coeff · max(0, loadMult − 1).
	LoadStressCoeff float64
	// AnnualQualityTrend is the secular stress relief per year from the
	// carrier's continuous improvements (paper Fig. 3's rising trend;
	// default 0.4).
	AnnualQualityTrend float64
	// FailureScale multiplies the baseline failure/drop probabilities
	// (default 1 when zero). Worlds that inject strong improvements use
	// values > 1 so the probabilities keep headroom above the clamp floor
	// — a saturated KPI cannot show further improvement.
	FailureScale float64
	// DisableSamplingNoise replaces binomial counter sampling with exact
	// expectations — used by tests that need noise-free series.
	DisableSamplingNoise bool
	// SensitivityOverrides pins specific elements' sensitivity to the
	// shared stress (regional process and external factors), overriding
	// the random draw. The evaluation harness uses it to reproduce the
	// paper's scenarios where a study element responds to a factor more
	// strongly than its controls ("different intensities of foliage",
	// §5.2) — the regime where Difference-in-Differences is biased.
	SensitivityOverrides map[string]float64
}

// DefaultConfig returns the generator configuration used across the
// evaluation harness, on the given index.
func DefaultConfig(ix timeseries.Index) Config {
	return Config{
		Index:              ix,
		Seed:               1,
		RegionalAR:         0.7,
		RegionalNoiseSD:    0.25,
		ElementNoiseSD:     0.08,
		SensitivitySpread:  0.5,
		LoadStressCoeff:    0.25,
		AnnualQualityTrend: 0.4,
	}
}

// Generator produces KPI series and raw counters for network elements.
// It is not safe for concurrent use: it caches what it synthesizes.
// Generators on one network may draw concurrently.
//
// A regional stress path depends only on the seed, the region and the
// index, never on effects, and is immutable once drawn. So a generator
// derived with WithEffects starts with every path its parent has drawn
// and shares them; each draws the paths it lacks into its own cache.
type Generator struct {
	net *netsim.Network
	cfg Config

	// regional caches the regional stress paths by Region, so deriving a
	// generator copies the cache by value. A Region beyond the modeled
	// ones is drawn again on every use.
	regional [netsim.Midwest + 1][]float64
	counters map[string][]kpi.Counters // cached per-element counters, made by the first Counters call
}

// New returns a Generator for the network under cfg. Callers should
// start from DefaultConfig and override fields — explicit zero values
// (e.g. a zero trend) are respected. New panics on an empty index —
// generating zero-length series indicates broken setup — and on a
// negative or ≥1 AR coefficient.
func New(net *netsim.Network, cfg Config) *Generator {
	if cfg.Index.N == 0 {
		panic("gen: config with empty index")
	}
	if cfg.RegionalAR < 0 || cfg.RegionalAR >= 1 || cfg.ElementNoiseAR < 0 || cfg.ElementNoiseAR >= 1 {
		panic("gen: AR coefficients must lie in [0, 1)")
	}
	return &Generator{net: net, cfg: cfg}
}

// WithEffects returns a generator on g's network and config with effects
// in place of g's. It draws exactly what New with that config would, bit
// for bit, but starts with every regional stress path g has drawn
// instead of drawing them again. It reads g's caches, so it must not run
// concurrently with a draw of g; the two generators are independent
// afterwards.
func (g *Generator) WithEffects(effects []Effect) *Generator {
	d := &Generator{net: g.net, cfg: g.cfg, regional: g.regional}
	d.cfg.Effects = effects
	return d
}

// Network returns the underlying network.
func (g *Generator) Network() *netsim.Network { return g.net }

// Index returns the generation time grid.
func (g *Generator) Index() timeseries.Index { return g.cfg.Index }

// hashSeed derives a child RNG seed from the generator seed and a label,
// so each (seed, element) pair gets an independent, reproducible stream.
func (g *Generator) hashSeed(parts ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(g.cfg.Seed >> (8 * i))
	}
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// stream reseeds rng for the stream labeled by parts. A draw takes one
// rand.Rand from the process-wide free list (seedmix.TakeRand) for all
// of its streams: Rand.Seed rebuilds exactly the state rand.NewSource
// builds, so every stream draws what a fresh source would, without a
// ~4.9 KiB source per stream or per generator. One stream is live at a
// time: each caller consumes its draws before the next stream starts.
func (g *Generator) stream(rng *rand.Rand, parts ...string) {
	rng.Seed(g.hashSeed(parts...))
}

// regionalStress returns (computing once, on rng) the shared AR(1)
// stress path of a region.
func (g *Generator) regionalStress(rng *rand.Rand, r netsim.Region) []float64 {
	cached := r >= 0 && int(r) < len(g.regional)
	if cached && g.regional[r] != nil {
		return g.regional[r]
	}
	g.stream(rng, "region", r.String())
	n := g.cfg.Index.N
	path := make([]float64, n)
	// Stationary start.
	sd := g.cfg.RegionalNoiseSD
	ar := g.cfg.RegionalAR
	path[0] = rng.NormFloat64() * sd / math.Sqrt(1-ar*ar)
	for i := 1; i < n; i++ {
		path[i] = ar*path[i-1] + rng.NormFloat64()*sd
	}
	if cached {
		g.regional[r] = path
	}
	return path
}

// sensitivity returns element e's multiplier on the shared stress
// (regional process and external factors), deterministic in (seed,
// element ID) unless overridden; it draws on rng.
func (g *Generator) sensitivity(rng *rand.Rand, id string) float64 {
	if s, ok := g.cfg.SensitivityOverrides[id]; ok {
		return s
	}
	g.stream(rng, "sens", id)
	return 1 + (rng.Float64()*2-1)*g.cfg.SensitivitySpread
}

// baseRates holds an element's offered-traffic scale.
type baseRates struct {
	voicePerHour float64
	dataPerHour  float64
	mbpsBase     float64 // per-user throughput baseline
	pVoiceFail   float64 // baseline voice setup failure probability
	pVoiceDrop   float64 // baseline voice drop probability
	pDataFail    float64
	pDataDrop    float64
	pBearerFail  float64
}

// ratesFor derives an element's baseline rates from its kind and identity.
// Controllers and core elements aggregate more traffic than single
// towers. It draws on rng.
func (g *Generator) ratesFor(rng *rand.Rand, e *netsim.Element) baseRates {
	g.stream(rng, "base", e.ID)
	scale := 1.0
	switch {
	case e.Kind == netsim.Cell:
		scale = 0.35
	case e.Kind.IsTower() && e.Kind != netsim.ENodeB:
		scale = 1
	case e.Kind == netsim.ENodeB:
		scale = 1.4
	case e.Kind.IsController():
		scale = 12
	case e.Kind.IsCore():
		scale = 120
	}
	jitter := func(base, spread float64) float64 {
		return base * (1 + (rng.Float64()*2-1)*spread)
	}
	fs := g.cfg.FailureScale
	if fs <= 0 {
		fs = 1
	}
	return baseRates{
		voicePerHour: jitter(420*scale, 0.3),
		dataPerHour:  jitter(900*scale, 0.3),
		mbpsBase:     jitter(7.5, 0.25),
		pVoiceFail:   jitter(0.016*fs, 0.25),
		pVoiceDrop:   jitter(0.014*fs, 0.25),
		pDataFail:    jitter(0.020*fs, 0.25),
		pDataDrop:    jitter(0.017*fs, 0.25),
		pBearerFail:  jitter(0.010*fs, 0.25),
	}
}

// stressToProb converts one unit of stress into added failure probability.
// One stress unit ≈ one percentage point of degradation on ratio KPIs,
// matching the scale external factors and injected effects are written in.
const stressToProb = 0.010

// Counters returns the raw per-bucket performance counters for element id,
// computing and caching them on first use.
func (g *Generator) Counters(id string) []kpi.Counters {
	if cs, ok := g.counters[id]; ok {
		return cs
	}
	cs := make([]kpi.Counters, g.cfg.Index.N)
	g.draw(id, func(i int, c kpi.Counters) { cs[i] = c })
	if g.counters == nil {
		g.counters = make(map[string][]kpi.Counters)
	}
	g.counters[id] = cs
	return cs
}

// draw synthesizes element id's counters bucket by bucket and hands
// bucket i's to emit, in order. It is deterministic in (seed, element
// ID), so a cached and an uncached draw are bit-identical.
func (g *Generator) draw(id string, emit func(i int, c kpi.Counters)) {
	e := g.net.MustElement(id)
	// The draw's streams share one generator from the free list, taken
	// unseeded: each stream seeds it.
	rng := seedmix.TakeRand()
	defer seedmix.PutRand(rng)
	rates := g.ratesFor(rng, e)
	regional := g.regionalStress(rng, e.Region)
	sens := g.sensitivity(rng, id)
	// An effect's share depends on the element alone. A few effects'
	// shares fit on the stack.
	var buf [4]float64
	shares := buf[:0]
	for _, ef := range g.cfg.Effects {
		shares = append(shares, ef.shareFor(e))
	}
	// The series stream starts after the rates, regional and sensitivity
	// streams have drawn theirs (see stream).
	g.stream(rng, "series", id)
	n := g.cfg.Index.N
	end := g.cfg.Index.End()
	stepHours := g.cfg.Index.Step.Hours()
	var elemNoise float64
	if g.cfg.ElementNoiseAR > 0 {
		// Stationary start for the AR noise path.
		elemNoise = g.cfg.ElementNoiseSD * rng.NormFloat64() / math.Sqrt(1-g.cfg.ElementNoiseAR*g.cfg.ElementNoiseAR)
	}
	for i := 0; i < n; i++ {
		t := g.cfg.Index.TimeAt(i)

		// Load: external factors × injected load effects × mild noise.
		loadMult := g.cfg.Factors.LoadMultiplier(e, t)
		quality := 0.0
		for j, ef := range g.cfg.Effects {
			share := shares[j]
			if share == 0 {
				continue
			}
			w := ef.weightAt(t, end)
			if w == 0 {
				continue
			}
			q := ef.Quality
			if ef.ScaleWithSensitivity {
				q *= sens
			}
			if share != 1 {
				// Coupled neighbor: the effect arrives attenuated. The
				// share == 1 direct path keeps the exact pre-coupling
				// arithmetic, so worlds without Coupling are bit-identical.
				q *= share
			}
			quality += q * w
			if ef.LoadMult > 0 {
				lw := w
				if share != 1 {
					lw = w * share
				}
				loadMult *= 1 + (ef.LoadMult-1)*lw
			}
		}
		loadMult *= 1 + 0.04*rng.NormFloat64()
		if loadMult < 0.05 {
			loadMult = 0.05
		}

		// Stress: sensitivity-scaled shared stress (external factors and
		// the regional latent process — elements respond to both with
		// their own intensity, §5.2) + idiosyncratic noise + congestion −
		// secular trend − injected quality.
		stress := sens * (g.cfg.Factors.Stress(e, t) + regional[i])
		if ar := g.cfg.ElementNoiseAR; ar > 0 {
			elemNoise = ar*elemNoise + g.cfg.ElementNoiseSD*rng.NormFloat64()
			stress += elemNoise
		} else {
			stress += g.cfg.ElementNoiseSD * rng.NormFloat64()
		}
		if loadMult > 1 {
			stress += g.cfg.LoadStressCoeff * (loadMult - 1)
		}
		years := t.Sub(g.cfg.Index.Start).Hours() / (24 * 365)
		stress -= g.cfg.AnnualQualityTrend * years
		stress -= quality

		emit(i, g.sampleCounters(rng, rates, stepHours, loadMult, stress))
	}
}

// sampleCounters draws one bucket of counters from the latent state.
func (g *Generator) sampleCounters(rng *rand.Rand, r baseRates, stepHours, loadMult, stress float64) kpi.Counters {
	addP := stress * stressToProb
	prob := func(base float64) float64 {
		p := base + addP
		if p < 0.0002 {
			p = 0.0002
		}
		if p > 0.95 {
			p = 0.95
		}
		return p
	}
	voiceAttempts := g.count(rng, r.voicePerHour*stepHours*loadMult)
	voiceFails := g.binomial(rng, voiceAttempts, prob(r.pVoiceFail))
	established := voiceAttempts - voiceFails
	voiceDrops := g.binomial(rng, established, prob(r.pVoiceDrop))
	bearers := g.count(rng, r.voicePerHour*stepHours*loadMult*0.9)
	bearerFails := g.binomial(rng, bearers, prob(r.pBearerFail))

	dataAttempts := g.count(rng, r.dataPerHour*stepHours*loadMult)
	dataFails := g.binomial(rng, dataAttempts, prob(r.pDataFail))
	dataEst := dataAttempts - dataFails
	dataDrops := g.binomial(rng, dataEst, prob(r.pDataDrop))

	// Throughput: baseline Mbps degraded by stress, mildly by overload.
	mbps := r.mbpsBase * (1 - 0.06*stress)
	if loadMult > 1 {
		mbps /= 1 + 0.15*(loadMult-1)
	}
	if mbps < 0.1 {
		mbps = 0.1
	}
	activeSeconds := int64(3600 * stepHours * loadMult / 4)
	if activeSeconds < 1 {
		activeSeconds = 1
	}
	bytes := int64(mbps * 1e6 / 8 * float64(activeSeconds))

	return kpi.Counters{
		VoiceAttempts:     voiceAttempts,
		VoiceSetupFails:   voiceFails,
		VoiceDrops:        voiceDrops,
		VoiceRadioBearers: bearers,
		VoiceBearerFails:  bearerFails,
		DataAttempts:      dataAttempts,
		DataSetupFails:    dataFails,
		DataDrops:         dataDrops,
		BytesDelivered:    bytes,
		ActiveSeconds:     activeSeconds,
	}
}

// count draws a Poisson-like count via a normal approximation (exact mean
// when sampling noise is disabled).
func (g *Generator) count(rng *rand.Rand, mean float64) int64 {
	if mean < 0 {
		mean = 0
	}
	if g.cfg.DisableSamplingNoise {
		return int64(math.Round(mean))
	}
	v := mean + math.Sqrt(mean)*rng.NormFloat64()
	if v < 0 {
		v = 0
	}
	return int64(math.Round(v))
}

// binomial draws Binomial(n, p) via a normal approximation (exact mean
// when sampling noise is disabled), clamped to [0, n].
func (g *Generator) binomial(rng *rand.Rand, n int64, p float64) int64 {
	if n <= 0 {
		return 0
	}
	mean := float64(n) * p
	if g.cfg.DisableSamplingNoise {
		return clampInt64(int64(math.Round(mean)), 0, n)
	}
	sd := math.Sqrt(float64(n) * p * (1 - p))
	v := int64(math.Round(mean + sd*rng.NormFloat64()))
	return clampInt64(v, 0, n)
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Series returns the KPI time-series for element id, derived from the
// element's generated counters.
func (g *Generator) Series(id string, k kpi.KPI) timeseries.Series {
	return g.seriesOf(g.Counters(id), k)
}

// SeriesFor returns element id's series for each KPI of ks, in order,
// bit-identical to Series. The series share one backing array, each
// capped at its length, so an append to one cannot write into the next.
// It neither keeps nor caches the element's counters: it serves callers
// that keep the series themselves.
func (g *Generator) SeriesFor(id string, ks []kpi.KPI) []timeseries.Series {
	n := g.cfg.Index.N
	vals := make([]float64, len(ks)*n)
	g.SeriesInto(id, ks, vals)
	out := make([]timeseries.Series, len(ks))
	for i := range out {
		out[i] = timeseries.Series{Index: g.cfg.Index, Values: vals[i*n : (i+1)*n : (i+1)*n]}
	}
	return out
}

// SeriesInto writes element id's values for each KPI of ks into dst, KPI
// i's at dst[i·N:(i+1)·N] for the index length N, bit-identical to
// SeriesFor. It writes each bucket's KPIs straight into dst and keeps
// nothing, so a caller that owns dst allocates nothing but the draw's
// bookkeeping. It panics unless len(dst) is len(ks)·N.
func (g *Generator) SeriesInto(id string, ks []kpi.KPI, dst []float64) {
	n := g.cfg.Index.N
	if len(dst) != len(ks)*n {
		panic(fmt.Sprintf("gen: %d values for %d KPIs of %d points", len(dst), len(ks), n))
	}
	g.draw(id, func(b int, c kpi.Counters) {
		for i, k := range ks {
			dst[i*n+b] = c.Compute(k)
		}
	})
}

func (g *Generator) seriesOf(cs []kpi.Counters, k kpi.KPI) timeseries.Series {
	vals := make([]float64, len(cs))
	for i, c := range cs {
		vals[i] = c.Compute(k)
	}
	return timeseries.NewSeries(g.cfg.Index, vals)
}

// Panel returns the KPI panel for the given element IDs, columns in the
// given order.
func (g *Generator) Panel(k kpi.KPI, ids []string) *timeseries.Panel {
	p := timeseries.NewPanel(g.cfg.Index)
	for _, id := range ids {
		p.Add(id, g.Series(id, k))
	}
	return p
}
