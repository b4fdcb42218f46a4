// Command litmus assesses the service-performance impact of a network
// change from CSV time-series: the study element's KPI series and the
// control group's series, split at the change time, are compared with
// the Litmus robust spatial regression (plus the study-only and
// Difference-in-Differences baselines for contrast).
//
// Usage:
//
//	litmus -study study.csv -controls controls.csv \
//	       -change 2012-06-15T00:00:00Z -kpi voice-retainability
//
// study.csv has a header "timestamp,value"; controls.csv has
// "timestamp,<id1>,<id2>,...". Timestamps must be RFC 3339 on a regular
// grid. Use cmd/litmus-sim to generate a matching pair.
//
// Changelog mode: -changelog changes.json assesses every entry of a
// JSON changelog (one change time per entry) against the same
// study/controls pair — one verdict line per entry. The entries go
// through the engine's batch path (Pipeline.AssessChangelog), which
// shares control selection, panel assembly and before-window
// factorizations across entries with equal signatures and prints what
// it shared; results are bit-identical to assessing each entry alone.
//
// Observability: -trace out.json writes the assessment's span tree as
// JSON, -metrics prints a flame summary, per-stage timing table and a
// Prometheus-text metrics dump on exit, and -pprof addr serves
// net/http/pprof (plus expvar under /debug/vars) for live profiling.
// Without these flags the engine runs its zero-overhead path; results
// are bit-identical either way.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/kpi"
	"repro/internal/obscli"

	litmus "repro"
)

// logger carries the command's structured diagnostics (stderr); program
// output stays on stdout. Initialized from -log-format/-log-level.
var logger *slog.Logger

// options holds the parsed command line. Flag registration is split from
// main so tests can drive parsing and validation on a private FlagSet
// (same pattern as cmd/litmus-eval).
type options struct {
	studyPath     string
	controlsPath  string
	changeStr     string
	changelogPath string
	kpiName       string
	alpha         float64
	floor         float64
	iterations    int
	fraction      float64
	workers       int
	windowDays    int
	diagnose      bool
	faultSpec     string
	faultSeed     int64
	faultRate     float64

	// changeAt is the parsed form of changeStr, filled by validate in
	// single-change mode.
	changeAt time.Time
}

func registerOptions(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.studyPath, "study", "", "CSV file with the study element's series (timestamp,value)")
	fs.StringVar(&o.controlsPath, "controls", "", "CSV file with control series (timestamp,id1,id2,...)")
	fs.StringVar(&o.changeStr, "change", "", "change time, RFC 3339 (single-change mode)")
	fs.StringVar(&o.changelogPath, "changelog", "", "JSON changelog file: assess every entry against the same study/controls pair")
	fs.StringVar(&o.kpiName, "kpi", "voice-retainability", "KPI name (controls direction semantics)")
	fs.Float64Var(&o.alpha, "alpha", 0.05, "two-sided significance level")
	fs.Float64Var(&o.floor, "floor", 0, "practical-significance floor in KPI units (0 disables)")
	fs.IntVar(&o.iterations, "iterations", 0, "sampling iterations (0 = default 50)")
	fs.Float64Var(&o.fraction, "fraction", 0, "control sample fraction per iteration (0 = default 2/3)")
	fs.IntVar(&o.workers, "workers", 0, "assessment worker pool size (0 = GOMAXPROCS; results are identical for any value)")
	fs.IntVar(&o.windowDays, "window-days", 14, "changelog mode: before/after assessment window in days")
	fs.BoolVar(&o.diagnose, "diagnose", false, "also print per-control quality diagnostics (single-change mode)")
	fs.StringVar(&o.faultSpec, "faults", "", "inject data faults after loading: name[=rate],... or \"all\" (names: "+strings.Join(faults.KindNames(), ", ")+")")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed (same seed, same corruption)")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "default rate for -faults entries without an explicit rate (0 = "+fmt.Sprint(faults.DefaultRate)+")")
	return o
}

// validate rejects inconsistent flag combinations and parses the change
// time. It does not touch the filesystem — file errors surface at load
// time, not here.
func (o *options) validate() error {
	if o.studyPath == "" || o.controlsPath == "" {
		return fmt.Errorf("-study and -controls are required")
	}
	switch {
	case o.changeStr == "" && o.changelogPath == "":
		return fmt.Errorf("need -change (single-change mode) or -changelog (changelog mode)")
	case o.changeStr != "" && o.changelogPath != "":
		return fmt.Errorf("-change and -changelog are mutually exclusive")
	}
	if o.diagnose && o.changelogPath != "" {
		return fmt.Errorf("-diagnose applies to single-change mode only")
	}
	if o.changelogPath != "" && o.windowDays < 2 {
		return fmt.Errorf("-window-days %d too short (need at least 2)", o.windowDays)
	}
	if o.changeStr != "" {
		at, err := time.Parse(time.RFC3339, o.changeStr)
		if err != nil {
			return fmt.Errorf("invalid -change %q: %v", o.changeStr, err)
		}
		o.changeAt = at
	}
	return nil
}

func main() {
	o := registerOptions(flag.CommandLine)
	obsFlags := obscli.Register()
	logFlags := obscli.RegisterLog("text")
	flag.Parse()
	var err error
	logger, err = logFlags.Logger("litmus")
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		flag.Usage()
		os.Exit(2)
	}
	metric, err := kpi.Parse(o.kpiName)
	if err != nil {
		fatalf("%v", err)
	}

	study, err := loadSingleSeriesCSV(o.studyPath)
	if err != nil {
		fatalf("loading study series: %v", err)
	}
	controls, err := loadPanelCSV(o.controlsPath)
	if err != nil {
		fatalf("loading controls: %v", err)
	}
	if !study.Index.Equal(controls.Index()) {
		fatalf("study and control files are on different time grids")
	}

	// Optional fault injection: corrupt the loaded data deterministically
	// before assessment, to demonstrate (and let operators rehearse) the
	// engine's graceful degradation on broken inputs.
	fset, err := faults.Parse(o.faultSpec, o.faultSeed, o.faultRate)
	if err != nil {
		fatalf("%v", err)
	}
	if fset.Active() {
		fmt.Printf("fault injection: %s (seed %d)\n", fset, o.faultSeed)
		if fset.DropsElement(studyElementID) {
			fatalf("fault injection dropped the study element; nothing to assess")
		}
		study = fset.Series(studyElementID, study)
		controls = fset.Panel(controls)
		if controls.Len() == 0 {
			fatalf("fault injection dropped every control element; nothing to regress against")
		}
	}

	assessor, err := litmus.NewAssessor(litmus.Config{
		Alpha:          o.alpha,
		EffectFloor:    o.floor,
		Iterations:     o.iterations,
		SampleFraction: o.fraction,
		Workers:        o.workers,
	})
	if err != nil {
		fatalf("%v", err)
	}
	// nil scope (no -trace/-metrics/-pprof) keeps the zero-overhead
	// path; the result is bit-identical either way.
	scope, err := obsFlags.Scope("litmus")
	if err != nil {
		fatalf("%v", err)
	}
	assessor = assessor.WithObserver(scope)

	if o.changelogPath != "" {
		failed := runChangelog(o, scope, metric, assessor, study, controls)
		if err := obsFlags.Report(os.Stdout, scope); err != nil {
			fatalf("writing observability report: %v", err)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	res, err := assessor.AssessElement(studyElementID, study, controls, o.changeAt, metric)
	if err != nil {
		// Degradations are data-caused and machine-classified; surface
		// the reason code so scripts can dispatch on it.
		if litmus.IsDegradation(err) {
			fatalf("assessment degraded (reason %s): %v", litmus.ReasonOf(err), err)
		}
		fatalf("assessment failed: %v", err)
	}
	fmt.Printf("litmus robust spatial regression: %s\n", res.Verdict)
	fmt.Printf("  pre-change fit R²: %.3f  (control group: %d elements)\n", res.FitR2, controls.Len())

	if so, err := litmus.StudyOnly(study, o.changeAt, metric, o.alpha); err == nil {
		fmt.Printf("study-group-only baseline:        %s\n", so)
	}
	if did, _, err := litmus.DiD(study, controls, o.changeAt, metric, o.alpha); err == nil {
		fmt.Printf("difference-in-differences:        %s\n", did)
	}

	if o.diagnose {
		d, err := litmus.DiagnoseControlsObserved(scope, study, controls, o.changeAt)
		if err != nil {
			fatalf("diagnostics failed: %v", err)
		}
		health := "healthy"
		if !d.Healthy() {
			health = "POORLY SELECTED (majority of controls are bad predictors)"
		}
		fmt.Printf("\ncontrol group diagnostics: joint R²=%.3f, %d/%d flagged — %s\n",
			d.JointR2, d.FlaggedCount, len(d.PerControl), health)
		for _, c := range d.PerControl {
			flag := ""
			if c.Flagged {
				flag = "  <- bad predictor"
			}
			fmt.Printf("  %-20s corr=%+.3f  r²=%.3f%s\n", c.ControlID, c.Correlation, c.UnivariateR2, flag)
		}
	}

	if err := obsFlags.Report(os.Stdout, scope); err != nil {
		fatalf("writing observability report: %v", err)
	}
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
