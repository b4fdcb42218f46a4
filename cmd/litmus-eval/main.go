// Command litmus-eval reproduces the paper's evaluation tables end to
// end: Table 2 (known assessments of 313 real-change cases) and Table 4
// (8010 synthetic-injection cases), comparing the study-group-only
// baseline, Difference in Differences, and the Litmus robust spatial
// regression. A fault sweep mode re-runs the synthetic grid — including
// the adversarial congestion-coupled and heterogeneous-effect families —
// across telemetry corruption rates and reports robustness as a curve.
//
// Usage:
//
//	litmus-eval -table 2          # Table 2 (known assessments, exact)
//	litmus-eval -table 4          # Table 4 (full 8010 cases; minutes)
//	litmus-eval -table 4 -scale 0.1   # Table 4 at 10% volume (seconds)
//	litmus-eval -table all
//	litmus-eval -sweep -scale 0.05 -sweep-out sweep.json   # fault sweep, writes sweep.json
//	litmus-eval -sweep -sweep-rates 0,0.1 -faults gap,dropcol
//
// The shared observability flags -trace, -metrics and -pprof (see
// internal/obscli) instrument the whole evaluation run; the reported
// tables are bit-identical with and without them.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/report"
)

// logger carries the command's structured diagnostics (stderr); the
// evaluation tables stay on stdout. Initialized from
// -log-format/-log-level.
var logger *slog.Logger

// options holds the parsed command line. Flag registration is split from
// main so tests can drive parsing and validation on a private FlagSet.
type options struct {
	table      string
	scale      float64
	rows       bool
	ablation   bool
	workers    int
	sweep      bool
	sweepRates string
	sweepOut   string
	faultSpec  string
	faultSeed  int64

	// rates is the parsed form of sweepRates, filled by validate.
	rates []float64
}

func registerOptions(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.table, "table", "all", `which table to reproduce: "2", "4" or "all"`)
	fs.Float64Var(&o.scale, "scale", 1.0, "case-volume scale for the synthetic grid (1.0 = the paper's 8010 cases)")
	fs.BoolVar(&o.rows, "rows", false, "also print Table 2's per-change rows")
	fs.BoolVar(&o.ablation, "ablation", false, "run the design-choice ablation grid instead of the tables")
	fs.IntVar(&o.workers, "workers", 0, "assessment worker pool size (0 = GOMAXPROCS; results are identical for any value)")
	fs.BoolVar(&o.sweep, "sweep", false, "run the fault sweep: the synthetic grid plus adversarial families across corruption rates")
	fs.StringVar(&o.sweepRates, "sweep-rates", "0,0.01,0.05,0.1,0.2", "comma-separated fault rates for -sweep, each in [0, 1]")
	fs.StringVar(&o.sweepOut, "sweep-out", "", "path for the machine-readable sweep result (empty = don't write)")
	fs.StringVar(&o.faultSpec, "faults", "all", "fault injector spec for -sweep (internal/faults syntax)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the per-case fault streams")
	return o
}

// validate rejects inconsistent flag combinations and parses the sweep
// rate list.
func (o *options) validate() error {
	if o.scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %v", o.scale)
	}
	switch o.table {
	case "2", "4", "all":
	default:
		return fmt.Errorf("unknown table %q (want 2, 4 or all)", o.table)
	}
	if o.sweep && o.ablation {
		return fmt.Errorf("-sweep and -ablation are mutually exclusive")
	}
	if o.sweep && o.table == "2" {
		return fmt.Errorf("-sweep runs the synthetic grid; it cannot reproduce Table 2")
	}
	if o.sweep {
		rates, err := parseRates(o.sweepRates)
		if err != nil {
			return err
		}
		o.rates = rates
	}
	return nil
}

// parseRates parses a comma-separated fault-rate list.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep rate %q: %v", f, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("sweep rate %v outside [0, 1]", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sweep-rates %q contains no rates", s)
	}
	return out, nil
}

func main() {
	o := registerOptions(flag.CommandLine)
	obsFlags := obscli.Register()
	logFlags := obscli.RegisterLog("text")
	flag.Parse()
	var err error
	logger, err = logFlags.Logger("litmus-eval")
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus-eval:", err)
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "litmus-eval:", err)
		os.Exit(2)
	}
	scope, err := obsFlags.Scope("litmus-eval")
	if err != nil {
		fatal(err)
	}
	logger.Debug("starting", "table", o.table, "scale", o.scale, "sweep", o.sweep)

	switch {
	case o.ablation:
		runAblation(o.scale, o.workers, scope)
	case o.sweep:
		runSweep(o, scope)
	default:
		switch o.table {
		case "2":
			runTable2(o.rows, o.workers, scope)
		case "4":
			runTable4(o.scale, o.workers, scope)
		case "all":
			runTable2(o.rows, o.workers, scope)
			fmt.Println()
			runTable4(o.scale, o.workers, scope)
		}
	}
	if err := obsFlags.Report(os.Stdout, scope); err != nil {
		fatal(err)
	}
}

func runSweep(o *options, scope *obs.Scope) {
	base := eval.DefaultSyntheticConfig().WithAdversarialCases()
	if o.scale != 1.0 {
		base = base.ScaleCases(o.scale)
	}
	base.Assessor.Workers = o.workers
	start := time.Now()
	res, err := eval.RunSweep(eval.SweepConfig{
		Base:      base,
		Rates:     o.rates,
		FaultSpec: o.faultSpec,
		FaultSeed: o.faultSeed,
		Obs:       scope,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Robustness curve — %d rates × %d cases, %v\n",
		len(res.Rates), res.CasesPerRate, time.Since(start).Round(time.Millisecond))
	if err := report.WriteSweepTable(os.Stdout, res); err != nil {
		fatal(err)
	}
	if o.sweepOut != "" {
		f, err := os.Create(o.sweepOut)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", o.sweepOut)
	}
}

func runAblation(scale float64, workers int, scope *obs.Scope) {
	cfg := eval.DefaultSyntheticConfig()
	if scale != 1.0 {
		cfg = cfg.ScaleCases(scale)
	}
	cfg.Assessor.Workers = workers
	cfg.Obs = scope
	start := time.Now()
	res, err := eval.RunAblation(cfg, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Design-choice ablation (%d cases per variant, %v)\n",
		res.Cases, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%-20s %10s %10s %10s %10s\n", "variant", "precision", "recall", "tnr", "accuracy")
	for _, v := range res.Variants {
		m := res.Matrices[v.Name]
		fmt.Printf("%-20s %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n", v.Name,
			100*m.Precision(), 100*m.Recall(), 100*m.TrueNegativeRate(), 100*m.Accuracy())
	}
}

func runTable2(rows bool, workers int, scope *obs.Scope) {
	start := time.Now()
	cfg := eval.DefaultKnownConfig()
	cfg.Workers = workers
	cfg.Obs = scope
	res, err := eval.RunKnownAssessments(cfg)
	if err != nil {
		fatal(err)
	}
	title := fmt.Sprintf("Table 2 — evaluation using known assessments (%d cases, %v)",
		res.TotalCases(), time.Since(start).Round(time.Millisecond))
	if err := report.WriteSummaryTable(os.Stdout, title, res.Matrices); err != nil {
		fatal(err)
	}
	if rows {
		fmt.Println()
		if err := report.WriteKnownRows(os.Stdout, res); err != nil {
			fatal(err)
		}
	}
}

func runTable4(scale float64, workers int, scope *obs.Scope) {
	cfg := eval.DefaultSyntheticConfig()
	if scale != 1.0 {
		cfg = cfg.ScaleCases(scale)
	}
	cfg.Assessor.Workers = workers
	cfg.Obs = scope
	start := time.Now()
	res, err := eval.RunSynthetic(cfg)
	if err != nil {
		fatal(err)
	}
	title := fmt.Sprintf("Table 4 — evaluation using synthetic injection (%d cases, %v)",
		res.TotalCases(), time.Since(start).Round(time.Millisecond))
	if err := report.WriteSummaryTable(os.Stdout, title, res.Matrices); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
