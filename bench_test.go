package litmus

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark
// regenerates the corresponding experiment's data/outcomes; the reported
// ns/op measures the cost of one full regeneration. Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable4 runs the synthetic-injection harness at 2% of the
// paper's 8010-case volume per iteration so the suite stays interactive;
// cmd/litmus-eval reproduces the full volume.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/timeseries"
)

// benchWorld builds the assessment inputs shared by the core benchmarks.
func benchWorld(b *testing.B, controls int) (Series, *Panel, time.Time) {
	b.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.TowersPerController = controls + 1
	net := netsim.Build(topo)
	rnc := net.OfKind(netsim.RNC)[0]
	towers := net.Children(rnc)
	study := towers[0]

	start := time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	ix := timeseries.NewIndex(start, 6*time.Hour, 28*4)
	changeAt := start.AddDate(0, 0, 14)
	gcfg := gen.DefaultConfig(ix)
	gcfg.Effects = []gen.Effect{gen.EffectOn("bench-change", []string{study}, changeAt, time.Time{}, -1.5)}
	g := gen.New(net, gcfg)
	return g.Series(study, kpi.VoiceRetainability), g.Panel(kpi.VoiceRetainability, towers[1:]), changeAt
}

// BenchmarkAssessElement measures one robust spatial regression
// assessment (50 sampling iterations over a 15-element control group) —
// the unit of work behind every table cell.
func BenchmarkAssessElement(b *testing.B) {
	study, controls, changeAt := benchWorld(b, 15)
	assessor := MustNewAssessor(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assessor.AssessElement("s", study, controls, changeAt, kpi.VoiceRetainability); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGroupWorld builds a multi-element study panel plus control panel
// for the worker-scaling benchmarks.
func benchGroupWorld(b *testing.B, studies, controls int) (*Panel, *Panel, time.Time) {
	b.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.TowersPerController = studies + controls
	net := netsim.Build(topo)
	rnc := net.OfKind(netsim.RNC)[0]
	towers := net.Children(rnc)

	start := time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	ix := timeseries.NewIndex(start, 6*time.Hour, 28*4)
	changeAt := start.AddDate(0, 0, 14)
	gcfg := gen.DefaultConfig(ix)
	gcfg.Effects = []gen.Effect{gen.EffectOn("bench-change", towers[:studies], changeAt, time.Time{}, -1.5)}
	g := gen.New(net, gcfg)
	studyPanel := g.Panel(kpi.VoiceRetainability, towers[:studies])
	controlPanel := g.Panel(kpi.VoiceRetainability, towers[studies:])
	return studyPanel, controlPanel, changeAt
}

// BenchmarkWorkerScaling measures the parallel assessment engine on the
// acceptance workload: a 50-iteration (default), 6-element assessment
// over a 30-element control group, swept across worker counts. The
// equivalence suite guarantees every row computes bit-identical output;
// this benchmark shows what the worker pool buys in wall-clock. (On a
// single-CPU machine all rows collapse to sequential throughput.)
func BenchmarkWorkerScaling(b *testing.B) {
	studies, controls, changeAt := benchGroupWorld(b, 6, 30)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			assessor := MustNewAssessor(Config{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := assessor.AssessGroup(studies, controls, changeAt, kpi.VoiceRetainability); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssessGroupInstrumented quantifies the observability
// overhead on the group-assessment workload: the nil-scope row is the
// zero-overhead fast path (every obs call no-ops on a nil receiver),
// the instrumented row pays for span bookkeeping and atomic counter
// updates. The delta between the two is the number to quote when
// deciding whether tracing can stay on in production runs.
func BenchmarkAssessGroupInstrumented(b *testing.B) {
	studies, controls, changeAt := benchGroupWorld(b, 6, 30)
	b.Run("nil-scope", func(b *testing.B) {
		assessor := MustNewAssessor(Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := assessor.AssessGroup(studies, controls, changeAt, kpi.VoiceRetainability); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		scope := NewScope("bench", NewMetricsRegistry())
		assessor := MustNewAssessor(Config{}).WithObserver(scope)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := assessor.AssessGroup(studies, controls, changeAt, kpi.VoiceRetainability); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAssessElementWorkers isolates the iteration-level fan-out of
// a single element's 50 sampling regressions.
func BenchmarkAssessElementWorkers(b *testing.B) {
	study, controls, changeAt := benchWorld(b, 30)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			assessor := MustNewAssessor(Config{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := assessor.AssessElement("s", study, controls, changeAt, kpi.VoiceRetainability); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStudyOnly measures the study-group-only baseline.
func BenchmarkStudyOnly(b *testing.B) {
	study, _, changeAt := benchWorld(b, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StudyOnly(study, changeAt, kpi.VoiceRetainability, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiD measures the Difference-in-Differences baseline.
func BenchmarkDiD(b *testing.B) {
	study, controls, changeAt := benchWorld(b, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DiD(study, controls, changeAt, kpi.VoiceRetainability, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlGroupScaling measures assessment cost across the
// paper's control group size range (10s–100s, §3.3).
func BenchmarkControlGroupScaling(b *testing.B) {
	for _, n := range []int{10, 30, 100} {
		b.Run(fmt.Sprintf("controls-%d", n), func(b *testing.B) {
			study, controls, changeAt := benchWorld(b, n)
			assessor := MustNewAssessor(Config{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := assessor.AssessElement("s", study, controls, changeAt, kpi.VoiceRetainability); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates the full Table 2 evaluation: 313 known-
// assessment cases across 19 change types, three algorithms each.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunKnownAssessments(eval.DefaultKnownConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalCases() != 313 {
			b.Fatalf("cases = %d, want 313", res.TotalCases())
		}
	}
}

// BenchmarkTable3 regenerates the Table 3 case matrix: the five injection
// scenarios on clean worlds.
func BenchmarkTable3(b *testing.B) {
	cfg := eval.DefaultSyntheticConfig()
	cfg.CasesPerScenario = map[eval.Scenario]int{
		eval.InjectNone: 4, eval.InjectStudy: 4, eval.InjectControl: 4,
		eval.InjectBothSame: 4, eval.InjectBothDifferent: 4,
	}
	cfg.ContaminationFraction = 0
	cfg.InjectSign = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunSynthetic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the synthetic-injection evaluation at 2% of
// the paper's volume (~160 cases per iteration; the full 8010 cases take
// a few minutes via cmd/litmus-eval).
func BenchmarkTable4(b *testing.B) {
	cfg := eval.DefaultSyntheticConfig().ScaleCases(0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunSynthetic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFigure measures one figure's regeneration.
func benchFigure(b *testing.B, f func(figures.Config) (figures.Figure, error)) {
	b.Helper()
	cfg := figures.DefaultConfig()
	for i := 0; i < b.N; i++ {
		fig, err := f(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("figure without series")
		}
	}
}

// BenchmarkFig01 regenerates Fig. 1 (config change under strong winds).
func BenchmarkFig01(b *testing.B) { benchFigure(b, figures.Figure01) }

// BenchmarkFig03 regenerates Fig. 3 (two-year foliage seasonality).
func BenchmarkFig03(b *testing.B) { benchFigure(b, figures.Figure03) }

// BenchmarkFig04 regenerates Fig. 4 (storm degradation across RNCs).
func BenchmarkFig04(b *testing.B) { benchFigure(b, figures.Figure04) }

// BenchmarkFig05 regenerates Fig. 5 (big-event traffic and retainability).
func BenchmarkFig05(b *testing.B) { benchFigure(b, figures.Figure05) }

// BenchmarkFig06 regenerates Fig. 6 (upstream upgrade improving towers).
func BenchmarkFig06(b *testing.B) { benchFigure(b, figures.Figure06) }

// BenchmarkFig07 regenerates Fig. 7 (the three intuition scenarios with
// study-only vs Litmus verdicts).
func BenchmarkFig07(b *testing.B) { benchFigure(b, figures.Figure07) }

// BenchmarkFig08 regenerates Fig. 8 (§5.1 feature-activation regression).
func BenchmarkFig08(b *testing.B) { benchFigure(b, figures.Figure08) }

// BenchmarkFig09 regenerates Fig. 9 (§5.2 foliage-confounded MSC change).
func BenchmarkFig09(b *testing.B) { benchFigure(b, figures.Figure09) }

// BenchmarkFig10 regenerates Fig. 10 (§5.3 SON through hurricane Sandy).
func BenchmarkFig10(b *testing.B) { benchFigure(b, figures.Figure10) }

// BenchmarkFig11 regenerates Fig. 11 (§5.4 holiday false positive).
func BenchmarkFig11(b *testing.B) { benchFigure(b, figures.Figure11) }

// BenchmarkAblation runs the design-choice ablation grid (median vs mean
// aggregation, alternative tests, sampling settings) on a small shared
// case stream — the quantified version of the paper's §3.2 design
// arguments.
func BenchmarkAblation(b *testing.B) {
	cfg := eval.DefaultSyntheticConfig().ScaleCases(0.005)
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunAblation(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKPIGeneration measures raw KPI synthesis throughput: one
// element-month of 6-hourly counters and derived series.
func BenchmarkKPIGeneration(b *testing.B) {
	net := netsim.Build(netsim.DefaultTopologyConfig())
	tower := net.OfKind(netsim.NodeB)[0]
	ix := timeseries.NewIndex(time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC), 6*time.Hour, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gcfg := gen.DefaultConfig(ix)
		gcfg.Seed = int64(i + 1)
		g := gen.New(net, gcfg)
		s := g.Series(tower, kpi.VoiceRetainability)
		if s.Len() != 120 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkTopologyBuild measures generative topology construction.
func BenchmarkTopologyBuild(b *testing.B) {
	cfg := netsim.DefaultTopologyConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		net := netsim.Build(cfg)
		if net.Len() == 0 {
			b.Fatal("empty network")
		}
	}
}
