package eval

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/extfactor"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// Scenario is one injection pattern: the five benign patterns of
// Table 3 plus the two adversarial families that attack the method's
// core assumptions.
type Scenario int

// Injection scenarios: Table 3 rows first (their order and semantics are
// pinned), then the adversarial families. numScenarios is the sentinel
// every exhaustiveness check is written against — add new scenarios
// immediately before it and wire them into scenarioNames, ExpectsImpact
// and runSyntheticCase, or the scenario invariant tests fail loudly.
const (
	// InjectNone injects nothing; expected outcome no impact.
	InjectNone Scenario = iota
	// InjectStudy injects a level shift at the study element only.
	InjectStudy
	// InjectControl injects a level shift at every control element; the
	// study element then has a *relative* change in the opposite
	// direction.
	InjectControl
	// InjectBothSame injects the same-magnitude shift at study and
	// controls; expected outcome no impact (no relative change).
	InjectBothSame
	// InjectBothDifferent injects different magnitudes at study and
	// controls; the relative change direction differs from the study's
	// own absolute change direction, so study-only analysis reports the
	// wrong direction (a false negative under Table 1).
	InjectBothDifferent
	// InjectCongestionCoupled injects at the study element while a
	// distance-decayed fraction of the effect bleeds into the sibling
	// controls through shared load (gen.Effect.Coupling) — interference
	// that violates the independence assumption the control regression
	// relies on, attenuating the measured relative shift. Ground truth
	// stays the injected direction: the controls did not change, they
	// absorbed leakage.
	InjectCongestionCoupled
	// InjectHeterogeneous draws the study element's effect from a seeded
	// mixture of nulls and responders with spread magnitudes instead of
	// one uniform shift (parameter changes produce heterogeneous
	// per-element effect sizes, arXiv:2408.15516). Ground truth is the
	// aggregate direction of the mixture, so null and weak responders
	// count against recall.
	InjectHeterogeneous

	numScenarios // sentinel — keep last
)

// scenarioNames is indexed by Scenario; the array length is tied to
// numScenarios so adding a scenario without naming it fails to compile.
var scenarioNames = [numScenarios]string{
	InjectNone:              "none",
	InjectStudy:             "study",
	InjectControl:           "control",
	InjectBothSame:          "study+control-same",
	InjectBothDifferent:     "study+control-different",
	InjectCongestionCoupled: "congestion-coupled",
	InjectHeterogeneous:     "heterogeneous",
}

func (s Scenario) String() string {
	if s >= 0 && s < numScenarios {
		return scenarioNames[s]
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Scenarios returns all scenarios: the Table 3 five in table order,
// then the adversarial families.
func Scenarios() []Scenario {
	out := make([]Scenario, numScenarios)
	for i := range out {
		out[i] = Scenario(i)
	}
	return out
}

// BenignScenarios returns the original Table 3 five, in table order.
func BenignScenarios() []Scenario {
	return []Scenario{InjectNone, InjectStudy, InjectControl, InjectBothSame, InjectBothDifferent}
}

// AdversarialScenarios returns the assumption-attacking families.
func AdversarialScenarios() []Scenario {
	return []Scenario{InjectCongestionCoupled, InjectHeterogeneous}
}

// ExpectsImpact reports whether the scenario's ground truth is a relative
// performance impact at the study group (Table 3, column 3; for the
// adversarial families, the aggregate injected direction).
func (s Scenario) ExpectsImpact() bool {
	switch s {
	case InjectNone, InjectBothSame:
		return false
	case InjectStudy, InjectControl, InjectBothDifferent, InjectCongestionCoupled, InjectHeterogeneous:
		return true
	default:
		panic(fmt.Sprintf("eval: ExpectsImpact on invalid scenario %d", int(s)))
	}
}

// SyntheticConfig parameterizes the synthetic-injection evaluation
// (§4.3). DefaultSyntheticConfig reproduces the paper's case volume.
type SyntheticConfig struct {
	// Seed drives all case randomization.
	Seed int64
	// CasesPerScenario is the case count for each injection scenario. The
	// paper's Table 4 totals imply 6000 impact-expected and 2010
	// no-impact cases; the split across scenarios is not given, so the
	// default weights study-only injection most heavily (the natural way
	// to exercise real changes) while keeping those totals.
	CasesPerScenario map[Scenario]int
	// Regions are cycled across cases (the paper uses four geographically
	// diverse regions).
	Regions []netsim.Region
	// KPIs are cycled across cases (voice/data accessibility and
	// retainability).
	KPIs []kpi.KPI
	// WindowDays is the before/after comparison window (paper: 14 days).
	WindowDays int
	// StepHours is the KPI aggregation bucket; the paper assesses daily
	// aggregates over 14-day windows.
	StepHours int
	// ContaminationFraction is the fraction of cases whose control group
	// receives unrelated level changes in a small number of elements
	// ("noise component", §4.3).
	ContaminationFraction float64
	// ContaminatedControls is how many control elements get contaminated
	// in an affected case.
	ContaminatedControls int
	// InjectLo/InjectHi bound the injected level-shift magnitude (quality
	// units; one unit ≈ one percentage point on ratio KPIs).
	InjectLo, InjectHi float64
	// FactorLo/FactorHi bound the common-mode external-factor severity.
	FactorLo, FactorHi float64
	// ContamLo/ContamHi bound the contamination shift magnitude.
	ContamLo, ContamHi float64
	// InjectSign pins the injection direction: −1 degradations only,
	// +1 improvements only, 0 (default) random per case. Success-ratio
	// KPIs saturate near 100%, so large improvement injections clip;
	// tests that need exact ground truth pin the sign negative.
	InjectSign int
	// CouplingLo/CouplingHi bound the per-case congestion coupling
	// strength of InjectCongestionCoupled cases: the fraction of the
	// study injection a zero-distance sibling control would receive
	// (netsim.CouplingWeights decays it with distance). Higher strength
	// means the control group absorbs more of the change and the
	// measured relative shift attenuates toward zero.
	CouplingLo, CouplingHi float64
	// HetNullFraction is the probability an InjectHeterogeneous case
	// draws a null responder: an element the parameter change does not
	// move at all, even though the aggregate (ground-truth) direction is
	// an impact.
	HetNullFraction float64
	// HetLo/HetHi bound the responder effect magnitude of
	// InjectHeterogeneous cases. HetLo is deliberately small, so weak
	// responders sit near the detection floor.
	HetLo, HetHi float64
	// Faults optionally corrupts every case's observed data — the study
	// series and control panel — after generation and before assessment,
	// the way production telemetry breaks (internal/faults). Each case
	// derives its own fault stream from (Faults' seed, case ordinal), so
	// corruption varies across cases while the run stays a pure function
	// of the configuration. Algorithms that fail on corrupted data with a
	// typed degradation error are recorded in CaseResult.Failures instead
	// of aborting the run. Nil (the default) is the clean path,
	// bit-identical to the pre-fault harness.
	Faults *faults.Set
	// Assessor configures the Litmus algorithm.
	Assessor core.Config
	// Alpha is the significance level for the two baselines.
	Alpha float64
	// EffectFloor is a practical-significance floor (KPI units) applied
	// uniformly to all three algorithms: verdicts whose estimated shift
	// is smaller in magnitude are reported as no impact. Operators only
	// act on material shifts; without a floor, 6-hourly windows give the
	// rank tests enough power to flag sub-0.1pp artifacts.
	EffectFloor float64
	// RegionalAR overrides the generator's regional AR(1) coefficient; a
	// value near 1 (per hourly step) gives the slow multi-day wander real
	// operational KPIs exhibit, which study-only analysis cannot tell
	// from change impact.
	RegionalAR float64
	// ElementNoiseAR sets the burstiness (AR(1) coefficient) of
	// per-element noise.
	ElementNoiseAR float64
	// SensitivitySpread overrides the generator's per-element sensitivity
	// spread; topological control groups (towers under one RNC) are close
	// to exchangeable, so the default harness uses a modest spread.
	SensitivitySpread float64
	// RegionalNoiseSD and ElementNoiseSD override the generator's shared
	// and idiosyncratic noise scales. A strong shared signal relative to
	// idiosyncratic noise is the regime the paper documents (§3.1:
	// "geographically close network elements exhibit a high degree of
	// spatial auto-correlation").
	RegionalNoiseSD float64
	ElementNoiseSD  float64
	// Obs is the optional observability scope: the run records one
	// scenario span per injection scenario (with the per-case assessment
	// spans beneath it) and per-scenario case counters. Nil costs
	// nothing; case outcomes are bit-identical either way.
	Obs *obs.Scope
}

// DefaultSyntheticConfig reproduces the paper's 8010-case volume.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Seed: 1,
		CasesPerScenario: map[Scenario]int{
			InjectNone:          1505,
			InjectStudy:         4900,
			InjectControl:       550,
			InjectBothSame:      505,
			InjectBothDifferent: 550,
		},
		Regions:               []netsim.Region{netsim.Northeast, netsim.Southeast, netsim.West, netsim.Southwest},
		KPIs:                  kpi.Core(),
		WindowDays:            14,
		StepHours:             6,
		ContaminationFraction: 0.5,
		ContaminatedControls:  2,
		Alpha:                 0.05,
		Assessor:              core.Config{SampleFraction: 0.55},
		RegionalAR:            0.7,
		SensitivitySpread:     0.25,
		RegionalNoiseSD:       0.7,
		ElementNoiseSD:        0.05,
		ElementNoiseAR:        0,
		InjectLo:              1.4,
		InjectHi:              2.2,
		FactorLo:              0.8,
		FactorHi:              1.8,
		ContamLo:              5.0,
		ContamHi:              10.0,
		CouplingLo:            0.3,
		CouplingHi:            0.8,
		HetNullFraction:       0.35,
		HetLo:                 0.3,
		HetHi:                 2.8,
	}
}

// AdversarialCasesPerScenario is the default case volume of each
// adversarial family in WithAdversarialCases — sized like the smaller
// benign rows of Table 4 so the families are measured, not dominant.
const AdversarialCasesPerScenario = 550

// WithAdversarialCases returns a copy of cfg that additionally runs the
// two adversarial families at AdversarialCasesPerScenario cases each.
// The Table-4 five keep their configured counts, and because the
// adversarial scenarios run after them on the shared case stream, the
// five's results are bit-identical with or without this call.
func (cfg SyntheticConfig) WithAdversarialCases() SyntheticConfig {
	scaled := make(map[Scenario]int, len(cfg.CasesPerScenario)+2)
	for s, n := range cfg.CasesPerScenario {
		scaled[s] = n
	}
	for _, s := range AdversarialScenarios() {
		scaled[s] = AdversarialCasesPerScenario
	}
	cfg.CasesPerScenario = scaled
	return cfg
}

// scaleCases returns a copy of cfg with every scenario's case count
// scaled by f (minimum 1 case per scenario) — used by tests and
// benchmarks that need a quick run with the same mix.
func (cfg SyntheticConfig) scaleCases(f float64) SyntheticConfig {
	scaled := make(map[Scenario]int, len(cfg.CasesPerScenario))
	for s, n := range cfg.CasesPerScenario {
		m := int(float64(n) * f)
		if m < 1 {
			m = 1
		}
		scaled[s] = m
	}
	cfg.CasesPerScenario = scaled
	return cfg
}

// ScaleCases is the exported form of scaleCases for callers (benchmarks,
// cmd tools) that want the paper's scenario mix at reduced volume.
func (cfg SyntheticConfig) ScaleCases(f float64) SyntheticConfig { return cfg.scaleCases(f) }

// CaseResult records one synthetic case and every algorithm's verdict.
type CaseResult struct {
	Scenario Scenario
	Region   netsim.Region
	KPI      kpi.KPI
	Expected kpi.Impact
	Observed map[Algorithm]kpi.Impact
	Outcomes map[Algorithm]Outcome
	// Failures records the algorithms that could not produce a verdict
	// on this case's (fault-corrupted) data, keyed to the same taxonomy
	// the canonical assessment JSON carries. An algorithm appears in
	// either Outcomes or Failures, never both. Nil on clean runs.
	Failures map[Algorithm]core.Failure
	// FaultKinds lists, in canonical order, the injectors whose
	// selection draw fired for this case's study or control elements —
	// the case's damage profile. Nil on clean runs and for cases no
	// injector touched.
	FaultKinds []faults.Kind
}

// Degraded reports whether any algorithm failed to assess this case.
func (c CaseResult) Degraded() bool { return len(c.Failures) > 0 }

// SyntheticResult aggregates a synthetic-injection run.
type SyntheticResult struct {
	Matrices map[Algorithm]*Matrix
	Cases    []CaseResult
}

// TotalCases returns the number of evaluated cases.
func (r SyntheticResult) TotalCases() int { return len(r.Cases) }

// RunSynthetic executes the synthetic-injection evaluation: for every
// scenario it draws cases cycling regions and KPIs, injects level shifts
// per the scenario into KPI series generated on the shared topology, runs
// the three algorithms on the study element against its topological
// control group, and labels the outcomes per Table 1.
func RunSynthetic(cfg SyntheticConfig) (SyntheticResult, error) {
	if cfg.WindowDays < 2 {
		return SyntheticResult{}, fmt.Errorf("eval: window of %d days too short", cfg.WindowDays)
	}
	if len(cfg.Regions) == 0 || len(cfg.KPIs) == 0 {
		return SyntheticResult{}, fmt.Errorf("eval: empty regions or KPIs")
	}
	topo := netsim.DefaultTopologyConfig()
	topo.Regions = cfg.Regions
	// A slightly larger sibling pool puts the control groups in the
	// paper's "10s" regime.
	topo.TowersPerController = 16
	net := netsim.Build(topo)
	assessor, err := core.NewAssessor(cfg.Assessor)
	if err != nil {
		return SyntheticResult{}, err
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = core.DefaultAlpha
	}

	res := SyntheticResult{Matrices: map[Algorithm]*Matrix{}}
	for _, a := range Algorithms() {
		res.Matrices[a] = &Matrix{}
	}
	run := cfg.Obs.Child("synthetic-eval")
	defer run.End()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ordinal := 0 // case position in the run-wide stream, for fault derivation
	for _, sc := range Scenarios() {
		n := cfg.CasesPerScenario[sc]
		if n == 0 {
			continue
		}
		scenarioScope := run.Child("scenario")
		scenarioScope.SetAttr("scenario", sc.String())
		scenarioScope.SetAttr("cases", n)
		caseAssessor := assessor.WithObserver(scenarioScope)
		for i := 0; i < n; i++ {
			region := cfg.Regions[i%len(cfg.Regions)]
			metric := cfg.KPIs[(i/len(cfg.Regions))%len(cfg.KPIs)]
			c, err := runSyntheticCase(net, caseAssessor, alpha, cfg, rng, sc, region, metric, ordinal)
			ordinal++
			if err != nil {
				scenarioScope.End()
				return SyntheticResult{}, fmt.Errorf("eval: scenario %v case %d: %w", sc, i, err)
			}
			for _, a := range Algorithms() {
				if o, ok := c.Outcomes[a]; ok {
					res.Matrices[a].Add(o)
				}
			}
			res.Cases = append(res.Cases, c)
			scenarioScope.Registry().LabeledCounter(obs.MetricEvalCases, "scenario", sc.String()).Add(1)
		}
		scenarioScope.End()
	}
	return res, nil
}

// epoch anchors all synthetic timelines; June keeps the foliage factor
// active for Northeastern cases.
var epoch = time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)

func runSyntheticCase(net *netsim.Network, assessor *core.Assessor, alpha float64, cfg SyntheticConfig, rng *rand.Rand, sc Scenario, region netsim.Region, metric kpi.KPI, ordinal int) (CaseResult, error) {
	// Pick a study NodeB in the region and its topological control group
	// (siblings under the same RNC, §4.2).
	towers := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == region
	})
	study := towers[rng.Intn(len(towers))]
	controls := net.Siblings(study)
	if len(controls) < 4 {
		return CaseResult{}, fmt.Errorf("only %d sibling controls for %s", len(controls), study)
	}

	steps := cfg.WindowDays * 2 * 24 / cfg.StepHours
	ix := timeseries.NewIndex(epoch, time.Duration(cfg.StepHours)*time.Hour, steps)
	changeAt := epoch.Add(time.Duration(cfg.WindowDays) * 24 * time.Hour)

	gcfg := gen.DefaultConfig(ix)
	gcfg.Seed = rng.Int63()
	if cfg.RegionalAR > 0 {
		gcfg.RegionalAR = cfg.RegionalAR
	}
	if cfg.ElementNoiseAR > 0 {
		gcfg.ElementNoiseAR = cfg.ElementNoiseAR
	}
	if cfg.SensitivitySpread > 0 {
		gcfg.SensitivitySpread = cfg.SensitivitySpread
	}
	if cfg.RegionalNoiseSD > 0 {
		gcfg.RegionalNoiseSD = cfg.RegionalNoiseSD
	}
	if cfg.ElementNoiseSD > 0 {
		gcfg.ElementNoiseSD = cfg.ElementNoiseSD
	}

	// One external factor overlapping the change window: a common-mode
	// stress shift across the region (weather, holiday congestion or a
	// region-wide network event), representative of §2.5. Magnitude and
	// sign vary per case.
	factorSeverity := (cfg.FactorLo + (cfg.FactorHi-cfg.FactorLo)*rng.Float64()) * sign(rng)
	gcfg.Factors = extfactor.Stack{extfactor.RegionWeatherEvent{
		Kind: extfactor.Thunderstorm, Label: "case-factor", Region: region,
		Start: changeAt, End: ix.End(), Severity: factorSeverity,
	}}

	// Scenario injections.
	dir := sign(rng)
	if cfg.InjectSign != 0 {
		dir = float64(cfg.InjectSign)
	}
	mag := (cfg.InjectLo + (cfg.InjectHi-cfg.InjectLo)*rng.Float64()) * dir
	var studyQ, controlQ float64
	var coupling map[string]float64
	aggregateTruth := false // ground truth pinned to dir even when studyQ == 0
	switch sc {
	case InjectNone:
	case InjectStudy:
		studyQ = mag
	case InjectControl:
		controlQ = mag
	case InjectBothSame:
		studyQ, controlQ = mag, mag
	case InjectBothDifferent:
		studyQ, controlQ = mag, 2.2*mag
	case InjectCongestionCoupled:
		// The study element changes by mag; a distance-decayed share of
		// that change bleeds into each sibling control through shared
		// load. The controls did not change — ground truth remains the
		// study injection — but the regression's forecast absorbs the
		// leakage and the measured relative shift attenuates.
		studyQ = mag
		strength := cfg.CouplingLo + (cfg.CouplingHi-cfg.CouplingLo)*rng.Float64()
		coupling = net.CouplingWeights(study, strength)
		aggregateTruth = true
	case InjectHeterogeneous:
		// Per-element effect sizes are a mixture of nulls and responders
		// with spread magnitudes; the ground truth is the mixture's
		// aggregate direction, so nulls and weak responders are honest
		// recall losses, not relabeled as no-impact.
		if rng.Float64() < cfg.HetNullFraction {
			studyQ = 0
		} else {
			studyQ = (cfg.HetLo + (cfg.HetHi-cfg.HetLo)*rng.Float64()) * dir
		}
		aggregateTruth = true
	default:
		return CaseResult{}, fmt.Errorf("eval: scenario %v not wired into runSyntheticCase", sc)
	}
	// Injections are representative of external-factor impact (§4.3), so
	// they act through the same sensitivity-scaled channel: an element
	// that responds strongly to weather responds strongly to the injected
	// level shift too.
	var effects []gen.Effect
	if studyQ != 0 {
		ef := gen.EffectOn("inject-study", []string{study}, changeAt, time.Time{}, studyQ)
		ef.ScaleWithSensitivity = true
		ef.Coupling = coupling
		effects = append(effects, ef)
	}
	if controlQ != 0 {
		ef := gen.EffectOn("inject-control", controls, changeAt, time.Time{}, controlQ)
		ef.ScaleWithSensitivity = true
		effects = append(effects, ef)
	}
	// Control-group contamination: unrelated level changes in a small
	// number of control elements.
	if rng.Float64() < cfg.ContaminationFraction {
		k := cfg.ContaminatedControls
		if k <= 0 {
			k = 2
		}
		// One unrelated event (an outage, another maintenance activity)
		// hits a few control elements together, so the contamination
		// shares a sign — the small-set sensitivity of §3.2.
		contamSign := sign(rng)
		perm := rng.Perm(len(controls))
		for j := 0; j < k && j < len(controls); j++ {
			contaminated := controls[perm[j]]
			effects = append(effects, gen.EffectOn("contaminate", []string{contaminated}, changeAt, time.Time{},
				(cfg.ContamLo+(cfg.ContamHi-cfg.ContamLo)*rng.Float64())*contamSign))
		}
	}
	gcfg.Effects = effects

	g := gen.New(net, gcfg)
	studySeries := g.Series(study, metric)
	controlPanel := g.Panel(metric, controls)

	// Ground truth: the relative quality shift at the study group; the
	// adversarial families pin it to the aggregate injected direction
	// (a null responder is still a case the change "should" have moved).
	relative := studyQ - controlQ
	expected := kpi.NoImpact
	if relative != 0 {
		expected = kpi.ImpactOfShift(metric, signOf(relative))
	}
	if aggregateTruth {
		expected = kpi.ImpactOfShift(metric, signOf(dir))
	}

	failures := map[Algorithm]core.Failure{}
	var drawnKinds []faults.Kind
	if cfg.Faults.Active() {
		// Corrupt the observed data the way production telemetry breaks,
		// on a per-case stream derived from (fault seed, case ordinal).
		// Injection happens on the world; faults happen on the
		// observation of it — ground truth is untouched.
		cf := cfg.Faults.Derive(uint64(ordinal))
		drawnKinds = cf.DrawnKinds(append([]string{study}, controls...))
		if cf.DropsElement(study) {
			for _, a := range Algorithms() {
				failures[a] = core.Failure{Element: study, Reason: core.ReasonNoData, Detail: "study element dropped by fault injection"}
			}
			return CaseResult{
				Scenario: sc, Region: region, KPI: metric, Expected: expected,
				Observed: map[Algorithm]kpi.Impact{}, Outcomes: map[Algorithm]Outcome{},
				Failures: failures, FaultKinds: drawnKinds,
			}, nil
		}
		studySeries = cf.Series(study, studySeries)
		kept := timeseries.NewPanel(controlPanel.Index())
		kept.Grow(controlPanel.Len())
		for j := 0; j < controlPanel.Len(); j++ {
			if id, s := controlPanel.Column(j); !cf.DropsElement(id) {
				kept.Add(id, s)
			}
		}
		controlPanel = cf.Panel(kept)
	}

	// record files an algorithm's verdict, or — under fault injection —
	// its typed degradation. Unexpected errors still abort the run: on
	// clean data the harness treats any failure as a bug.
	observed := map[Algorithm]kpi.Impact{}
	record := func(a Algorithm, imp kpi.Impact, err error) error {
		if err != nil {
			if cfg.Faults.Active() && core.IsDegradation(err) {
				failures[a] = core.Failure{Element: study, Reason: core.ReasonOf(err), Detail: err.Error()}
				return nil
			}
			return err
		}
		observed[a] = imp
		return nil
	}
	so, err := core.StudyOnly(studySeries, changeAt, metric, alpha)
	if err := record(StudyOnlyAnalysis, applyFloor(so, cfg.EffectFloor), err); err != nil {
		return CaseResult{}, err
	}
	did, _, err := core.DiD(studySeries, controlPanel, changeAt, metric, alpha)
	if err := record(DifferenceInDifferences, applyFloor(did, cfg.EffectFloor), err); err != nil {
		return CaseResult{}, err
	}
	lit, err := assessor.AssessElement(study, studySeries, controlPanel, changeAt, metric)
	if err := record(LitmusRegression, lit.Impact, err); err != nil {
		return CaseResult{}, err
	}

	outcomes := map[Algorithm]Outcome{}
	for _, a := range Algorithms() {
		if imp, ok := observed[a]; ok {
			outcomes[a] = Label(expected, imp)
		}
	}
	if len(failures) == 0 {
		failures = nil
	}
	return CaseResult{
		Scenario: sc, Region: region, KPI: metric,
		Expected: expected, Observed: observed, Outcomes: outcomes,
		Failures: failures, FaultKinds: drawnKinds,
	}, nil
}

// applyFloor demotes a verdict to no impact when its estimated shift is
// below the practical-significance floor (the Litmus assessor applies the
// same floor internally via core.Config.EffectFloor).
func applyFloor(v core.Verdict, floor float64) kpi.Impact {
	if floor > 0 && v.Shift < floor && v.Shift > -floor {
		return kpi.NoImpact
	}
	return v.Impact
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

func signOf(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
