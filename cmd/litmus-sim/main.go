// Command litmus-sim generates a synthetic assessment dataset: a study
// element's KPI series with an injected change of known ground truth, and
// its control group's series, written as the CSV pair cmd/litmus
// consumes. It exercises the full substrate: topology generation,
// spatially correlated KPI synthesis, external factors, and
// domain-knowledge-guided control selection.
//
// Usage:
//
//	litmus-sim -out ./data -quality -1.5 -factor 2.0 -seed 42
//	litmus -study ./data/study.csv -controls ./data/controls.csv \
//	       -change $(cat ./data/change_time.txt) -kpi voice-retainability
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/extfactor"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obscli"
	"repro/internal/timeseries"
)

// logger carries the command's structured diagnostics (stderr); the
// dataset summary stays on stdout. Initialized from -log-format/-log-level.
var logger *slog.Logger

func main() {
	var (
		outDir    = flag.String("out", "litmus-data", "output directory")
		seed      = flag.Int64("seed", 42, "generation seed")
		days      = flag.Int("days", 14, "window days before and after the change")
		stepH     = flag.Int("step", 6, "KPI bucket size in hours")
		quality   = flag.Float64("quality", -1.5, "true change effect in quality units (+ improves, - degrades, 0 none)")
		factor    = flag.Float64("factor", 1.5, "external factor severity overlapping the change (0 none)")
		region    = flag.String("region", "Northeast", "region for the study element")
		kpiName   = flag.String("kpi", "voice-retainability", "KPI to emit")
		controlsN = flag.Int("controls", 0, "cap control group size (0 = all matching)")
		faultSpec = flag.String("faults", "", "corrupt the emitted dataset: name[=rate],... or \"all\" (names: "+strings.Join(faults.KindNames(), ", ")+")")
		faultSeed = flag.Int64("fault-seed", 1, "fault-injection seed (same seed, same corruption)")
		faultRate = flag.Float64("fault-rate", 0, "default rate for -faults entries without an explicit rate (0 = "+fmt.Sprint(faults.DefaultRate)+")")
	)
	obsFlags := obscli.Register()
	logFlags := obscli.RegisterLog("text")
	flag.Parse()
	var err error
	logger, err = logFlags.Logger("litmus-sim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus-sim:", err)
		os.Exit(2)
	}
	scope, err := obsFlags.Scope("litmus-sim")
	if err != nil {
		fatalf("%v", err)
	}

	metric := kpi.VoiceRetainability
	found := false
	for _, k := range kpi.All() {
		if k.String() == *kpiName {
			metric, found = k, true
		}
	}
	if !found {
		fatalf("unknown KPI %q; known: %v", *kpiName, kpi.All())
	}
	var reg netsim.Region
	for _, r := range netsim.Regions() {
		if r.String() == *region {
			reg = r
		}
	}
	if reg == 0 {
		fatalf("unknown region %q; known: %v", *region, netsim.Regions())
	}

	topoScope := scope.Child("topology-build")
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = *seed
	net := netsim.Build(topo)
	towers := net.Filter(func(e *netsim.Element) bool {
		return e.Kind == netsim.NodeB && e.Region == reg
	})
	topoScope.SetAttr("elements", fmt.Sprint(net.Len()))
	topoScope.End()
	if len(towers) == 0 {
		fatalf("no towers in region %s", reg)
	}
	study := towers[0]

	sel := &control.Selector{
		Net:       net,
		Predicate: control.And(control.SameKind(), control.SameParent()),
		MaxSize:   *controlsN,
		Obs:       scope,
	}
	controls, err := sel.Select([]string{study})
	if err != nil {
		fatalf("control selection: %v", err)
	}

	epoch := time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	steps := *days * 2 * 24 / *stepH
	ix := timeseries.NewIndex(epoch, time.Duration(*stepH)*time.Hour, steps)
	changeAt := epoch.Add(time.Duration(*days) * 24 * time.Hour)

	gcfg := gen.DefaultConfig(ix)
	gcfg.Seed = *seed
	if *quality != 0 {
		gcfg.Effects = append(gcfg.Effects, gen.EffectOn("injected-change", []string{study}, changeAt, time.Time{}, *quality))
	}
	if *factor != 0 {
		gcfg.Factors = append(gcfg.Factors, extfactor.RegionWeatherEvent{
			Kind: extfactor.Thunderstorm, Label: "sim-factor", Region: reg,
			Start: changeAt, End: ix.End(), Severity: *factor,
		})
	}
	g := gen.New(net, gcfg)

	synthScope := scope.Child("series-synthesis")
	studySeries := g.Series(study, metric)
	panel := timeseries.NewPanel(ix)
	for _, id := range controls {
		panel.Add(id, g.Series(id, metric))
	}
	synthScope.SetAttr("series", fmt.Sprint(1+len(controls)))
	synthScope.End()

	// Optional fault injection: corrupt the emitted dataset so cmd/litmus
	// (and any other consumer) can be exercised against broken inputs
	// with a known clean twin one seed away. Missing observations are
	// written as empty CSV cells — the loader's missing-value convention.
	fset, err := faults.Parse(*faultSpec, *faultSeed, *faultRate)
	if err != nil {
		fatalf("%v", err)
	}
	if fset.Active() {
		fmt.Printf("fault injection:   %s (seed %d)\n", fset, *faultSeed)
		studySeries = fset.Series(study, studySeries)
		panel = fset.Panel(panel)
		if panel.Len() == 0 {
			fatalf("fault injection dropped every control element; raise -controls or lower the rate")
		}
	}
	controls = make([]string, panel.Len())
	cols := map[string][]float64{}
	for j := range controls {
		id, s := panel.Column(j)
		controls[j] = id
		cols[id] = s.Values
	}

	writeScope := scope.Child("csv-write")
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := writeSeriesCSV(filepath.Join(*outDir, "study.csv"), ix, map[string][]float64{"value": studySeries.Values}, []string{"value"}); err != nil {
		fatalf("%v", err)
	}
	if err := writeSeriesCSV(filepath.Join(*outDir, "controls.csv"), ix, cols, controls); err != nil {
		fatalf("%v", err)
	}
	changeFile := filepath.Join(*outDir, "change_time.txt")
	if err := os.WriteFile(changeFile, []byte(changeAt.Format(time.RFC3339)+"\n"), 0o644); err != nil {
		fatalf("%v", err)
	}
	writeScope.End()

	fmt.Printf("study element:   %s (%s, %s)\n", study, metric, reg)
	fmt.Printf("control group:   %d siblings under %s\n", len(controls), net.MustElement(study).Parent)
	fmt.Printf("change time:     %s (written to %s)\n", changeAt.Format(time.RFC3339), changeFile)
	fmt.Printf("ground truth:    quality %+.2f (%s), factor severity %+.2f\n", *quality, truthLabel(metric, *quality), *factor)
	fmt.Printf("wrote %s and %s\n", filepath.Join(*outDir, "study.csv"), filepath.Join(*outDir, "controls.csv"))

	if err := obsFlags.Report(os.Stdout, scope); err != nil {
		fatalf("writing observability report: %v", err)
	}
}

func truthLabel(metric kpi.KPI, quality float64) string {
	switch {
	case quality == 0:
		return "no impact"
	case (quality > 0) == metric.HigherIsBetter() || quality > 0:
		// Positive quality improves every KPI's goodness.
		return "improvement expected"
	default:
		return "degradation expected"
	}
}

func writeSeriesCSV(path string, ix timeseries.Index, cols map[string][]float64, order []string) error {
	var sb strings.Builder
	sb.WriteString("timestamp")
	for _, id := range order {
		sb.WriteString("," + id)
	}
	sb.WriteString("\n")
	for i := 0; i < ix.N; i++ {
		sb.WriteString(ix.TimeAt(i).Format(time.RFC3339))
		for _, id := range order {
			// Missing observations are empty cells: the cmd/litmus loader
			// rejects literal "NaN" tokens as malformed data.
			if v := cols[id][i]; math.IsNaN(v) {
				sb.WriteString(",")
			} else {
				sb.WriteString(fmt.Sprintf(",%.6g", v))
			}
		}
		sb.WriteString("\n")
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
