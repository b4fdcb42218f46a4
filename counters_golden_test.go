package litmus

// Golden pin of the engine's counters. Result bytes are pinned by the
// assessment fixtures; this pins the work behind them: every registry
// counter after the golden change through AssessChangeContext, and
// after the gappy batch world (missing runs and scattered gaps, as in
// TestGappyPipelineGolden) through AssessChangelog and change by
// change, at workers 1 and 4. The fixture was rendered by the
// element-major engine that preceded the factor-group kernel, so it is
// an independent reference for how many designs the kernel factors,
// samples and resamples, and for which elements fit on a shared
// design. Regenerate after an intentional change with:
//
//	go test -run TestCounterGolden -update

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/faults"
)

// renderCounters writes every counter of reg, name-sorted, one
// "name value" line each. Histograms are left out: span timings vary.
// Snapshot holds counters as int64, gauges as float64 and histograms
// as maps.
func renderCounters(w *bytes.Buffer, reg *MetricsRegistry) {
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if _, ok := v.(int64); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, snap[name])
	}
}

func TestCounterGolden(t *testing.T) {
	ctx := context.Background()
	gappy := func(p SeriesProvider) SeriesProvider {
		fset, err := faults.Parse("missing=0.3,gap=0.2", 99, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return faultyProvider(p, fset)
	}
	scenarios := []struct {
		name string
		run  func(workers int, scope *Scope)
	}{
		{"golden change", func(workers int, scope *Scope) {
			if _, err := goldenPipelineObserved(workers, scope); err != nil {
				t.Fatal(err)
			}
		}},
		{"gappy changelog batch", func(workers int, scope *Scope) {
			net, changes, provider := batchWorld()
			if _, err := batchPipeline(workers, gappy(provider), net, scope).AssessChangelog(ctx, changes, batchKPIs, 14); err != nil {
				t.Fatal(err)
			}
		}},
		{"gappy changelog singles", func(workers int, scope *Scope) {
			net, changes, provider := batchWorld()
			p := batchPipeline(workers, gappy(provider), net, scope)
			for _, c := range changes {
				p.AssessChangeContext(ctx, c, batchKPIs, 14) // errors are pinned by the gappy golden
			}
		}},
	}
	var docs [][]byte
	for _, workers := range []int{1, 4} {
		var doc bytes.Buffer
		for _, sc := range scenarios {
			reg := NewMetricsRegistry()
			sc.run(workers, NewScope("counters", reg))
			fmt.Fprintf(&doc, "== %s\n", sc.name)
			renderCounters(&doc, reg)
		}
		docs = append(docs, doc.Bytes())
	}

	golden := filepath.Join("testdata", "golden_counters.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, docs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	for i, got := range docs {
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: counters differ from %s:\ngot:\n%s\nwant:\n%s", [...]int{1, 4}[i], golden, got, want)
		}
	}
}
