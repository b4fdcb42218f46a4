package core

// Golden pin of the engine on gappy data. Studies with missing
// before-window observations fit on factors prepared for their own fit
// rows, beside fully observed studies on the group's shared factors;
// missing control observations are median-imputed, and a duplicated
// control column makes some draws rank deficient, so they solve through
// the fallback chain without leverages. The committed fixture was rendered
// by the per-element sampling loop that preceded the single element
// kernel, so it is an independent reference for the fallback path: the
// kernel must reproduce it byte for byte, through AssessGroup and
// through AssessElement, at every worker count. Regenerate after an
// intentional contract change with:
//
//	go test ./internal/core -run TestGappyGolden -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// gappyWorld is a 40-day panel split at day 20: ten controls, one of
// them a copy of another (rank-deficient draws) and one with before-window
// holes, and six studies whose NaN holes cover the shapes the fallback
// path meets — the first and last before-window rows, scattered rows,
// a before-window too sparse to fit, after-window holes, and none.
func gappyWorld() (studies, controls *timeseries.Panel, changeAt time.Time) {
	w := newSynthWorld(61, 40, 20)
	controls = timeseries.NewPanel(w.ix)
	for i := 0; i < 9; i++ {
		s := w.series(10, 0.7+0.07*float64(i), 0)
		if i == 4 {
			s.Values[3], s.Values[11] = math.NaN(), math.NaN()
		}
		controls.Add(controlID(i), s)
	}
	dup := controls.MustSeries(controlID(2))
	controls.Add(controlID(9), timeseries.NewSeries(w.ix, append([]float64(nil), dup.Values...)))

	holes := []struct {
		id    string
		shift float64
		rows  []int
	}{
		{"full", -0.6, nil},
		{"edges", -0.6, []int{0, 19}},
		{"scattered", 0, []int{2, 5, 6, 13, 17}},
		{"after", 0.4, []int{24, 31, 35}},
		{"sparse", 0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}},
		{"quiet", 0.1, []int{10}},
	}
	studies = timeseries.NewPanel(w.ix)
	for i, h := range holes {
		s := w.series(10, 0.85+0.06*float64(i), h.shift)
		for _, r := range h.rows {
			s.Values[r] = math.NaN()
		}
		studies.Add(h.id, s)
	}
	return studies, controls, w.changeAt
}

// renderElement writes every field of an element result and its series
// (recordSeries); %v prints each float in its shortest round-tripping
// form.
func renderElement(b *strings.Builder, r finished) {
	fmt.Fprintf(b, "element %s kpi %v impact %v z %v p %v shift %v r2 %v\n", r.ElementID, r.KPI, r.Impact, r.Statistic, r.P, r.Shift, r.FitR2)
	fmt.Fprintf(b, "  forecast before %v %v\n", r.ForecastBefore.Index, r.ForecastBefore.Values)
	fmt.Fprintf(b, "  forecast after %v %v\n", r.ForecastAfter.Index, r.ForecastAfter.Values)
	fmt.Fprintf(b, "  diff before %v\n  diff after %v\n", r.DiffBefore, r.DiffAfter)
}

// renderGappy assesses the gappy world with cfg through AssessGroup and
// then every study through AssessElement, and renders both. The group
// must fit exactly the two studies with fully observed before windows on
// its shared factors, so the fixture keeps covering the fallback.
func renderGappy(t *testing.T, cfg Config) string {
	t.Helper()
	studies, controls, changeAt := gappyWorld()
	a := MustNewAssessor(cfg)
	var b strings.Builder
	reg := obs.NewRegistry()
	ctx, log := recordSeries(context.Background())
	g, err := a.WithObserver(obs.New("test", reg)).AssessGroupContext(ctx, studies, controls, changeAt, kpi.VoiceRetainability)
	if err != nil {
		t.Fatalf("AssessGroup: %v", err)
	}
	if got := reg.Counter(obs.MetricGroupSharedElements).Value(); got != 2 {
		t.Fatalf("shared-path elements = %d, want 2 (the rest fall back)", got)
	}
	b.WriteString(groupText(log, g, nil))
	for _, id := range studies.IDs() {
		r, err := assessElementSeries(a, id, studies.MustSeries(id), controls, changeAt, kpi.VoiceRetainability)
		if err != nil {
			fmt.Fprintf(&b, "element %s error %v\n", id, err)
			continue
		}
		renderElement(&b, r)
	}
	return b.String()
}

func TestGappyGolden(t *testing.T) {
	var doc strings.Builder
	for _, cfg := range []Config{{Iterations: DefaultIterations}, {Iterations: 60, Seed: 5}} {
		var base string
		for i, workers := range []int{1, 2, 4, 8} {
			cfg.Workers = workers
			got := renderGappy(t, cfg)
			if i == 0 {
				base = got
				continue
			}
			if got != base {
				t.Fatalf("iterations %d seed %d: workers=%d renders differently from workers=1", cfg.Iterations, cfg.Seed, workers)
			}
		}
		fmt.Fprintf(&doc, "== iterations %d seed %d\n%s", cfg.Iterations, cfg.Seed, base)
	}
	got := []byte(doc.String())

	golden := filepath.Join("testdata", "golden_gappy.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gappy assessment differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
