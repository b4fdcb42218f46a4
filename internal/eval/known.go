package eval

import (
	"fmt"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/extfactor"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// This file reproduces Table 2 of the paper: the evaluation on known
// assessments of real network changes. The 19 change rows are encoded
// with the time-series pathology the paper's narrative attributes to each
// (foliage masking a SON gain, a holiday inflating data retainability, a
// handover change whose study elements responded to weather more strongly
// than their controls, ...), and the three algorithms are run on
// synthetic worlds exhibiting exactly those pathologies.
//
// Ground truth per case is the "Impact Assessment" column (the outcome
// the Engineering and Operations teams established manually). NOTE: the
// published table's per-row outcome labels are not mutually consistent
// for the study-group-only column (its TP+FN and FP+TN totals do not
// partition the same 234/79 split the other two columns follow); this
// reproduction uses a consistent labeling throughout and documents the
// resulting deltas in EXPERIMENTS.md.

// RowKPI describes one KPI's ground truth and confounding structure
// within a Table 2 row.
type RowKPI struct {
	// KPI is the metric assessed.
	KPI kpi.KPI
	// Truth is the ground-truth impact (the manual assessment).
	Truth kpi.Impact
	// FactorSeverity is the external-factor stress step that begins at
	// the change time (positive degrades, negative improves, 0 none).
	FactorSeverity float64
	// StudySensOffset is added to each study element's sensitivity to
	// the shared stress. A non-zero offset with a non-zero factor is the
	// regime that biases Difference-in-Differences (§3.2): the pair
	// differences absorb (offset · factor), canceling the true effect.
	StudySensOffset float64
	// UnexposedStudyElements makes the first k study elements nearly
	// insensitive to the shared stress (sensitivity 0.05) — the paper's
	// "different intensities" (§5.2): those elements show the change
	// plainly while the exposed ones are masked.
	UnexposedStudyElements int
}

// KnownRow is one change of Table 2.
type KnownRow struct {
	// Name is the change-type label from the table's first column.
	Name string
	// Change classifies the change for the changelog record.
	Change changelog.Type
	// Location is the element kind the change applies to.
	Location netsim.Kind
	// Region hosts the study group.
	Region netsim.Region
	// NumElements is the study group size.
	NumElements int
	// Expectation is the engineering teams' expected impact (column 3);
	// recorded for reporting, not used in labeling.
	Expectation kpi.Impact
	// ExternalFactor names the confounding factor (column 5), "" if none.
	ExternalFactor string
	// KPIs lists the assessed KPIs with their ground truth and
	// confounding structure.
	KPIs []RowKPI
}

// Cases returns the number of labeled cases the row contributes
// (elements × KPIs).
func (r KnownRow) Cases() int { return r.NumElements * len(r.KPIs) }

// trueQuality is the injected latent quality shift for rows with a real
// impact, in stress units (≈ 1.2 percentage points on ratio KPIs).
const trueQuality = 1.2

// maskSeverity is the factor stress used where the narrative says the
// factor over-shadowed the change (strong foliage, severe weather):
// large enough that study-only analysis sees the factor, not the change.
const maskSeverity = 4.0

// lightSeverity is the factor stress for rows where the factor merely
// moved the KPIs with no real change present (seasonality, holidays):
// plainly visible to study-only analysis but well within what the
// study/control comparison cancels.
const lightSeverity = 1.2

// maskOffset is the study-group sensitivity offset used in the
// DiD-breaking rows, chosen so offset × maskSeverity ≈ trueQuality: the
// pair differences then absorb the true effect entirely.
const maskOffset = trueQuality / maskSeverity

// improveMask is the severity of improvement-direction masking factors
// (leaves falling, §5.2): gentler than maskSeverity so the success-ratio
// probabilities keep headroom above their floor.
const improveMask = 2.4

// improveMaskOffset cancels the true effect in DiD pairs under an
// improvement-direction factor.
const improveMaskOffset = trueQuality / improveMask

// KnownRows returns the 19 changes of Table 2 with their confounding
// structure.
func KnownRows() []KnownRow {
	return []KnownRow{
		{
			Name: "SON load balancing", Change: changelog.FeatureActivation,
			Location: netsim.RNC, Region: netsim.Northeast, NumElements: 18,
			Expectation: kpi.Improvement, ExternalFactor: "foliage",
			KPIs: []RowKPI{
				{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity},
				{KPI: kpi.DataRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity, StudySensOffset: maskOffset},
				{KPI: kpi.DataThroughput, Truth: kpi.NoImpact, FactorSeverity: lightSeverity},
			},
		},
		{
			Name: "Radio link failure timer", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.Northeast, NumElements: 3,
			Expectation: kpi.Improvement, ExternalFactor: "foliage",
			KPIs: []RowKPI{{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement}},
		},
		{
			Name: "Power", Change: changelog.ConfigChange,
			Location: netsim.NodeB, Region: netsim.Northeast, NumElements: 1,
			Expectation: kpi.Improvement, ExternalFactor: "foliage",
			KPIs: []RowKPI{{KPI: kpi.DataThroughput, Truth: kpi.NoImpact}},
		},
		{
			Name: "Radio link", Change: changelog.ConfigChange,
			Location: netsim.NodeB, Region: netsim.Southeast, NumElements: 25,
			Expectation: kpi.Improvement, ExternalFactor: "other change",
			KPIs: []RowKPI{{KPI: kpi.VoiceRetainability, Truth: kpi.NoImpact, FactorSeverity: -lightSeverity}},
		},
		{
			Name: "Power change", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.Southeast, NumElements: 16,
			Expectation: kpi.NoImpact, ExternalFactor: "other change",
			KPIs: []RowKPI{
				{KPI: kpi.DataRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity},
				{KPI: kpi.DataAccessibility, Truth: kpi.Improvement, FactorSeverity: maskSeverity},
			},
		},
		{
			Name: "Update new UE types", Change: changelog.ConfigChange,
			Location: netsim.MSC, Region: netsim.Northeast, NumElements: 3,
			Expectation: kpi.Improvement, ExternalFactor: "seasonality",
			KPIs: []RowKPI{{KPI: kpi.VoiceRetainability, Truth: kpi.NoImpact, FactorSeverity: -lightSeverity}},
		},
		{
			Name: "Data parameter", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.Northeast, NumElements: 2,
			Expectation: kpi.Improvement, ExternalFactor: "seasonality",
			KPIs: []RowKPI{
				{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement},
				{KPI: kpi.DataRetainability, Truth: kpi.Improvement, FactorSeverity: -improveMask, StudySensOffset: -improveMaskOffset},
				{KPI: kpi.DataAccessibility, Truth: kpi.Improvement},
			},
		},
		{
			Name: "Limit max power", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.West, NumElements: 3,
			Expectation: kpi.Improvement, ExternalFactor: "holiday",
			KPIs: []RowKPI{{KPI: kpi.DataThroughput, Truth: kpi.NoImpact, FactorSeverity: lightSeverity}},
		},
		{
			Name: "Access threshold", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.West, NumElements: 1,
			Expectation: kpi.Improvement, ExternalFactor: "holiday",
			KPIs: []RowKPI{{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement}},
		},
		{
			Name: "Time to trigger", Change: changelog.ConfigChange,
			Location: netsim.ENodeB, Region: netsim.Southwest, NumElements: 1,
			Expectation: kpi.Improvement, ExternalFactor: "",
			KPIs: []RowKPI{{KPI: kpi.DataAccessibility, Truth: kpi.Improvement}},
		},
		{
			Name: "Radio link (BSC)", Change: changelog.ConfigChange,
			Location: netsim.BSC, Region: netsim.Midwest, NumElements: 1,
			Expectation: kpi.Improvement, ExternalFactor: "weather",
			KPIs: []RowKPI{{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity}},
		},
		{
			Name: "Timer changes", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.Southwest, NumElements: 5,
			Expectation: kpi.Improvement, ExternalFactor: "seasonality",
			KPIs: []RowKPI{
				{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement, FactorSeverity: -lightSeverity},
				{KPI: kpi.DataRetainability, Truth: kpi.NoImpact, FactorSeverity: -lightSeverity},
				{KPI: kpi.VoiceAccessibility, Truth: kpi.NoImpact, FactorSeverity: -lightSeverity},
				{KPI: kpi.DataAccessibility, Truth: kpi.NoImpact, FactorSeverity: -lightSeverity},
				{KPI: kpi.DataThroughput, Truth: kpi.NoImpact, FactorSeverity: -lightSeverity},
			},
		},
		{
			Name: "State transition features", Change: changelog.FeatureActivation,
			Location: netsim.RNC, Region: netsim.Southeast, NumElements: 1,
			Expectation: kpi.Improvement, ExternalFactor: "",
			KPIs: []RowKPI{{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement}},
		},
		{
			Name: "SON neighbor discovery & load balancing", Change: changelog.FeatureActivation,
			Location: netsim.RNC, Region: netsim.Midwest, NumElements: 2,
			Expectation: kpi.Improvement, ExternalFactor: "weather",
			KPIs: []RowKPI{
				{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity},
				{KPI: kpi.DataRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity},
				{KPI: kpi.VoiceAccessibility, Truth: kpi.Improvement, FactorSeverity: maskSeverity},
				{KPI: kpi.DataAccessibility, Truth: kpi.Improvement, FactorSeverity: maskSeverity},
			},
		},
		{
			Name: "Reduce downlink interference", Change: changelog.ConfigChange,
			Location: netsim.ENodeB, Region: netsim.West, NumElements: 30,
			Expectation: kpi.Improvement, ExternalFactor: "",
			KPIs: []RowKPI{
				{KPI: kpi.DataAccessibility, Truth: kpi.Improvement},
				{KPI: kpi.DataRetainability, Truth: kpi.Improvement},
				{KPI: kpi.DataThroughput, Truth: kpi.Improvement},
			},
		},
		{
			Name: "Handover", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.Northeast, NumElements: 19,
			Expectation: kpi.Improvement, ExternalFactor: "weather",
			KPIs: []RowKPI{
				{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity, StudySensOffset: maskOffset, UnexposedStudyElements: 5},
				{KPI: kpi.DataRetainability, Truth: kpi.Improvement, FactorSeverity: maskSeverity, StudySensOffset: maskOffset, UnexposedStudyElements: 5},
			},
		},
		{
			Name: "Inter-system handover", Change: changelog.ConfigChange,
			Location: netsim.RNC, Region: netsim.Midwest, NumElements: 3,
			Expectation: kpi.Improvement, ExternalFactor: "",
			KPIs: []RowKPI{{KPI: kpi.VoiceRetainability, Truth: kpi.Improvement}},
		},
		{
			Name: "Software (data retainability)", Change: changelog.SoftwareUpgrade,
			Location: netsim.ENodeB, Region: netsim.Southeast, NumElements: 9,
			Expectation: kpi.Improvement, ExternalFactor: "",
			KPIs: []RowKPI{{KPI: kpi.DataRetainability, Truth: kpi.Improvement}},
		},
		{
			Name: "Software (radio bearer)", Change: changelog.SoftwareUpgrade,
			Location: netsim.ENodeB, Region: netsim.Northeast, NumElements: 9,
			Expectation: kpi.NoImpact, ExternalFactor: "seasonality",
			KPIs: []RowKPI{{KPI: kpi.RadioBearerSuccess, Truth: kpi.NoImpact, FactorSeverity: lightSeverity}},
		},
	}
}

// KnownConfig parameterizes the Table 2 reproduction.
type KnownConfig struct {
	// Seed drives the synthetic worlds.
	Seed int64
	// WindowDays and StepHours define each assessment window.
	WindowDays int
	StepHours  int
	// EffectFloor is the uniform practical-significance floor (KPI
	// units) applied to all three algorithms, matching how the
	// engineering teams judge materiality.
	EffectFloor float64
	// Alpha is the two-sided significance level.
	Alpha float64
	// Workers bounds the assessor's worker pool (0 = GOMAXPROCS); the
	// results are bit-identical for every value.
	Workers int
	// Obs is the optional observability scope: the run records one span
	// per Table 2 row (with per-element assessment spans beneath it) and
	// per-row case counters. Nil costs nothing; outcomes are
	// bit-identical either way.
	Obs *obs.Scope
}

// DefaultKnownConfig returns the configuration used for the Table 2
// reproduction: 14-day windows of 6-hourly KPIs with a 0.4pp floor.
func DefaultKnownConfig() KnownConfig {
	return KnownConfig{Seed: 3, WindowDays: 14, StepHours: 3, EffectFloor: 0.004, Alpha: 0.05}
}

// KnownRowResult is one row's outcome counts per algorithm.
type KnownRowResult struct {
	Row      KnownRow
	Matrices map[Algorithm]*Matrix
}

// KnownResult aggregates the Table 2 reproduction.
type KnownResult struct {
	Rows     []KnownRowResult
	Matrices map[Algorithm]*Matrix
}

// TotalCases returns the number of labeled cases (paper: 313).
func (r KnownResult) TotalCases() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Row.Cases()
	}
	return n
}

// RunKnownAssessments executes the Table 2 evaluation: each row gets its
// own synthetic world exhibiting the row's confounding structure; every
// (study element, KPI) case is assessed by the three algorithms and
// labeled against the ground truth.
func RunKnownAssessments(cfg KnownConfig) (KnownResult, error) {
	if cfg.WindowDays <= 0 || cfg.StepHours <= 0 {
		return KnownResult{}, fmt.Errorf("eval: invalid window %dd/%dh", cfg.WindowDays, cfg.StepHours)
	}
	topo := netsim.TopologyConfig{
		Regions:              netsim.Regions(),
		ControllersPerRegion: 40,
		TowersPerController:  8,
		CellsPerTower:        1,
		ENodeBsPerRegion:     48,
		MSCsPerRegion:        8,
		ScatterKm:            120,
		SONFraction:          0.3,
		Seed:                 cfg.Seed,
	}
	net := netsim.Build(topo)
	assessor, err := core.NewAssessor(core.Config{EffectFloor: cfg.EffectFloor, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return KnownResult{}, err
	}

	out := KnownResult{Matrices: map[Algorithm]*Matrix{}}
	for _, a := range Algorithms() {
		out.Matrices[a] = &Matrix{}
	}
	run := cfg.Obs.Child("known-eval")
	defer run.End()
	for _, row := range KnownRows() {
		rowScope := run.Child("known-row")
		rowScope.SetAttr("row", row.Name)
		rr, err := runKnownRow(net, assessor.WithObserver(rowScope), cfg, row)
		rowScope.Registry().LabeledCounter(obs.MetricEvalCases, "row", row.Name).Add(int64(row.Cases()))
		rowScope.End()
		if err != nil {
			return KnownResult{}, fmt.Errorf("eval: row %q: %w", row.Name, err)
		}
		for _, a := range Algorithms() {
			out.Matrices[a].Merge(*rr.Matrices[a])
		}
		out.Rows = append(out.Rows, rr)
	}
	return out, nil
}

// studyGroupFor picks the row's study elements and control group.
func studyGroupFor(net *netsim.Network, row KnownRow) (study, controls []string, err error) {
	candidates := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == row.Location && e.Region == row.Region
	})
	if len(candidates) < row.NumElements {
		return nil, nil, fmt.Errorf("only %d %v elements in %s, need %d", len(candidates), row.Location, row.Region, row.NumElements)
	}
	if row.Location == netsim.ENodeB {
		// Spread LTE study elements across zip groups so every element
		// keeps same-zip peers available as controls (an FFA rollout
		// covers a market, not one street).
		for i := 0; len(study) < row.NumElements && i < len(candidates); i++ {
			if i%8 < 5 {
				study = append(study, candidates[i])
			}
		}
		if len(study) < row.NumElements {
			return nil, nil, fmt.Errorf("could not spread %d eNodeBs across zips", row.NumElements)
		}
	} else {
		study = candidates[:row.NumElements]
	}

	var pred control.Predicate
	switch {
	case row.Location == netsim.ENodeB:
		// Geographic predicate (same zip) for LTE (§4.2).
		pred = control.And(control.SameKind(), control.SameZip())
	case row.Location == netsim.NodeB:
		// Topological predicate for UMTS towers: same upstream RNC.
		pred = control.And(control.SameKind(), control.SameParent())
	default:
		// Controllers and core elements: same kind within the region.
		pred = control.And(control.SameKind(), control.SameRegion())
	}
	sel := &control.Selector{Net: net, Predicate: pred, MaxSize: 40}
	controls, err = sel.Select(study)
	if err != nil {
		return nil, nil, err
	}
	return study, controls, nil
}

// floorFor scales the practical-significance floor to the KPI's units:
// ratio KPIs use the configured floor directly; throughput (Mbit/s) uses
// a quarter of a megabit.
func floorFor(k kpi.KPI, base float64) float64 {
	if k == kpi.DataThroughput {
		return 0.25
	}
	return base
}

// runKnownRow assesses one Table 2 row.
func runKnownRow(net *netsim.Network, assessor *core.Assessor, cfg KnownConfig, row KnownRow) (KnownRowResult, error) {
	study, controls, err := studyGroupFor(net, row)
	if err != nil {
		return KnownRowResult{}, err
	}
	steps := row2steps(cfg)
	ix := timeseries.NewIndex(knownEpoch, time.Duration(cfg.StepHours)*time.Hour, steps)
	changeAt := knownEpoch.Add(time.Duration(cfg.WindowDays) * 24 * time.Hour)

	rr := KnownRowResult{Row: row, Matrices: map[Algorithm]*Matrix{}}
	for _, a := range Algorithms() {
		rr.Matrices[a] = &Matrix{}
	}

	for _, rk := range row.KPIs {
		gcfg := gen.DefaultConfig(ix)
		gcfg.Seed = cfg.Seed ^ int64(rk.KPI)<<8 ^ int64(len(row.Name))<<16
		gcfg.RegionalNoiseSD = 0.5
		gcfg.ElementNoiseSD = 0.05
		gcfg.SensitivitySpread = 0.25
		gcfg.AnnualQualityTrend = 0
		// Keep failure probabilities clear of the clamp floor: a
		// saturated success ratio cannot exhibit the injected
		// improvements.
		gcfg.FailureScale = 3

		// The external factor: a common-mode stress step starting at the
		// change time across the row's region.
		if rk.FactorSeverity != 0 {
			gcfg.Factors = extfactor.Stack{extfactor.RegionWeatherEvent{
				Kind: extfactor.Thunderstorm, Label: "row-factor", Region: row.Region,
				Start: changeAt, End: ix.End(), Severity: rk.FactorSeverity,
			}}
		}

		// Study-group sensitivity structure: pinned so the row exhibits
		// exactly the narrative's pathology — unexposed elements barely
		// feel the factor, offset elements respond more strongly than
		// their controls, and all others respond at the control average.
		overrides := make(map[string]float64, len(study))
		for i, id := range study {
			switch {
			case i < rk.UnexposedStudyElements:
				overrides[id] = 0.05
			default:
				overrides[id] = 1 + rk.StudySensOffset
			}
		}
		gcfg.SensitivityOverrides = overrides

		// The true effect of the change.
		if rk.Truth != kpi.NoImpact {
			q := trueQuality * float64(kpi.ShiftOfImpact(rk.KPI, rk.Truth))
			if !rk.KPI.HigherIsBetter() {
				// ShiftOfImpact returns the KPI-value direction; quality
				// units are "goodness", so undo the inversion.
				q = -q
			}
			gcfg.Effects = []gen.Effect{gen.EffectOn("row-change", study, changeAt, time.Time{}, q)}
		}

		floor := floorFor(rk.KPI, cfg.EffectFloor)
		kpiAssessor := assessor
		if floor != cfg.EffectFloor {
			var err error
			kpiAssessor, err = core.NewAssessor(core.Config{EffectFloor: floor, Seed: cfg.Seed, Workers: cfg.Workers})
			if err != nil {
				return KnownRowResult{}, err
			}
			// The floor-specific assessor inherits the row's observer so
			// its assessments land in the same trace.
			kpiAssessor = kpiAssessor.WithObserver(assessor.Observer())
		}
		g := gen.New(net, gcfg)
		controlPanel := g.Panel(rk.KPI, controls)
		for _, id := range study {
			series := g.Series(id, rk.KPI)

			so, err := core.StudyOnly(series, changeAt, rk.KPI, cfg.Alpha)
			if err != nil {
				return KnownRowResult{}, err
			}
			rr.Matrices[StudyOnlyAnalysis].AddLabel(rk.Truth, applyFloor(so, floor))

			did, _, err := core.DiD(series, controlPanel, changeAt, rk.KPI, cfg.Alpha)
			if err != nil {
				return KnownRowResult{}, err
			}
			rr.Matrices[DifferenceInDifferences].AddLabel(rk.Truth, applyFloor(did, floor))

			lit, err := kpiAssessor.AssessElement(id, series, controlPanel, changeAt, rk.KPI)
			if err != nil {
				return KnownRowResult{}, err
			}
			rr.Matrices[LitmusRegression].AddLabel(rk.Truth, lit.Impact)
		}
	}
	return rr, nil
}

// knownEpoch anchors Table 2 worlds in winter so the explicit factor
// steps are the only confounders.
var knownEpoch = time.Date(2012, 1, 9, 0, 0, 0, 0, time.UTC)

func row2steps(cfg KnownConfig) int {
	return cfg.WindowDays * 2 * 24 / cfg.StepHours
}
