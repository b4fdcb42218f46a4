package litmus

// Determinism golden test for the full assessment pipeline: the same
// seeded synthetic world assessed twice — and across worker counts —
// must serialize to the identical ChangeAssessment, and that
// serialization is pinned by a committed fixture so any regression in
// the (Seed, iteration) RNG-derivation contract is caught at review
// time. Regenerate the fixture after an *intentional* contract change
// with:
//
//	go test -run TestAssessChangeGolden -update

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenWorld builds the fixed world for the golden test: a config
// change on three towers, two KPIs, everything seeded.
func goldenWorld() (*netsim.Network, *changelog.Change, SeriesProvider) {
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rnc := net.OfKind(netsim.RNC)[0]
	study := net.Children(rnc)[:3]
	changeAt := epoch.Add(14 * 24 * time.Hour)
	change := &changelog.Change{
		ID: "CHG-GOLD", Type: changelog.ConfigChange,
		Description: "golden fixture change",
		Elements:    study, At: changeAt,
		TrueQuality: -1.5,
	}
	ix := timeseries.NewIndex(epoch, 6*time.Hour, 28*4)
	gcfg := gen.DefaultConfig(ix)
	gcfg.Seed = 23
	gcfg.Effects = []gen.Effect{change.Effect(net)}
	g := gen.New(net, gcfg)
	provider := ProviderFunc(func(id string, metric KPI) (Series, bool) {
		if net.Element(id) == nil {
			return Series{}, false
		}
		return g.Series(id, metric), true
	})
	return net, change, provider
}

func goldenPipeline(workers int) (*ChangeAssessment, error) {
	return goldenPipelineObserved(workers, nil)
}

func goldenPipelineObserved(workers int, scope *Scope) (*ChangeAssessment, error) {
	net, change, provider := goldenWorld()
	p := &Pipeline{
		Network:          net,
		Provider:         provider,
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
		Assessor:         MustNewAssessor(Config{Seed: 9, Workers: workers}),
		Obs:              scope,
	}
	return p.AssessChange(change, []KPI{kpi.VoiceRetainability, kpi.DataAccessibility}, 14)
}

// serializeAssessment renders a ChangeAssessment deterministically via
// the exported canonical serialization (marshal.go) — the same bytes the
// assessment service returns over HTTP.
func serializeAssessment(res *ChangeAssessment) ([]byte, error) {
	return MarshalAssessment(res)
}

func TestAssessChangeGolden(t *testing.T) {
	run1, err := goldenPipeline(0) // default worker pool
	if err != nil {
		t.Fatal(err)
	}
	ser1, err := serializeAssessment(run1)
	if err != nil {
		t.Fatal(err)
	}

	// Same seed, fresh world, second run: identical serialization.
	run2, err := goldenPipeline(0)
	if err != nil {
		t.Fatal(err)
	}
	ser2, err := serializeAssessment(run2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ser1, ser2) {
		t.Fatalf("same-seed reruns serialize differently:\nrun1:\n%s\nrun2:\n%s", ser1, ser2)
	}

	golden := filepath.Join("testdata", "golden_assessment.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(ser1, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if got := append(append([]byte(nil), ser1...), '\n'); !bytes.Equal(got, want) {
		t.Errorf("assessment deviates from the committed golden fixture — the seeding contract changed.\nIf intentional, regenerate with `go test -run TestAssessChangeGolden -update`.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAssessChangeInstrumentedEquivalence is the acceptance gate for the
// observability layer: the pipeline must serialize to the committed
// golden fixture with instrumentation off and on, at every worker
// count — attaching a *obs.Scope is strictly observational and cannot
// perturb the (Seed, iteration) RNG contract. While an instrumented
// assessment runs, another goroutine scrapes its registry as a /metrics
// client would, so (under -race, in make race-obs) concurrent reads of
// the registry must not change a result either. It also sanity-checks
// that the live scope actually recorded a trace and metrics.
func TestAssessChangeInstrumentedEquivalence(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatalf("%v (run TestAssessChangeGolden with -update to create the fixture)", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, instrumented := range []bool{false, true} {
			var scope *Scope
			stopScraping := func() {}
			if instrumented {
				scope = NewScope("golden", NewMetricsRegistry())
				reg := scope.Registry()
				stopScraping = readLoop(func() {
					_ = reg.WritePrometheus(io.Discard) // io.Discard never fails
				})
			}
			res, err := goldenPipelineObserved(workers, scope)
			stopScraping()
			if err != nil {
				t.Fatalf("workers=%d instrumented=%v: %v", workers, instrumented, err)
			}
			ser, err := serializeAssessment(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(ser, '\n'); !bytes.Equal(got, want) {
				t.Errorf("workers=%d instrumented=%v: assessment deviates from the golden fixture:\ngot:\n%s\nwant:\n%s",
					workers, instrumented, got, want)
			}
			if !instrumented {
				continue
			}
			scope.End()
			assertSingleChangeSpans(t, workers, scope.Span(), 2)
			snap := scope.Registry().Snapshot()
			if len(snap) == 0 {
				t.Errorf("workers=%d: instrumented run recorded no metrics", workers)
			}
			// A single change is the one-entry batch, but not a batch: no
			// batch counter may move.
			if _, ok := snap[obs.MetricBatchEntries]; ok {
				t.Errorf("workers=%d: single change recorded %s", workers, obs.MetricBatchEntries)
			}
		}
	}
}

// TestAssessChangeFlightRecordedEquivalence pins the read path of an
// always-on sampler of the registry, as the retired flight recorder
// was: while an instrumented assessment runs, another goroutine takes
// Registry.Snapshot over and over, and the assessment must still
// serialize to the committed golden fixture at every worker count. The
// samples must carry the run's metrics: the iterations counter never
// goes backwards from one sample to the next, and a snapshot taken
// after the run holds it positive and no lower than the last sample.
func TestAssessChangeFlightRecordedEquivalence(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatalf("%v (run TestAssessChangeGolden with -update to create the fixture)", err)
	}
	iterations := func(reg *MetricsRegistry) int64 {
		n, _ := reg.Snapshot()[obs.MetricIterations].(int64)
		return n
	}
	for _, workers := range []int{1, 2, 4, 8} {
		scope := NewScope("golden", NewMetricsRegistry())
		var samples []int64
		stopSampling := readLoop(func() {
			samples = append(samples, iterations(scope.Registry()))
		})
		res, runErr := goldenPipelineObserved(workers, scope)
		stopSampling()
		scope.End()
		if runErr != nil {
			t.Fatalf("workers=%d: %v", workers, runErr)
		}
		ser, err := serializeAssessment(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := append(ser, '\n'); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: sampled assessment deviates from the golden fixture", workers)
		}
		for i := 1; i < len(samples); i++ {
			if samples[i] < samples[i-1] {
				t.Fatalf("workers=%d: sample %d reads %s %d after %d", workers, i, obs.MetricIterations, samples[i], samples[i-1])
			}
		}
		final := iterations(scope.Registry())
		if final <= 0 {
			t.Fatalf("workers=%d: run left %s at %d", workers, obs.MetricIterations, final)
		}
		if last := samples[len(samples)-1]; last > final {
			t.Errorf("workers=%d: last sample reads %s %d, above the final %d", workers, obs.MetricIterations, last, final)
		}
	}
}

// readLoop calls read over and over on another goroutine, at least
// once, until the returned func is called; that func returns once the
// last read has finished.
func readLoop(read func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			read()
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// assertSingleChangeSpans pins the span tree of one AssessChange under
// root: exactly one assess-change child, holding exactly control-select,
// panel-assembly and one assess-group per KPI — no batch-entry level.
func assertSingleChangeSpans(t *testing.T, workers int, root *obs.Span, kpis int) {
	t.Helper()
	top := root.Children()
	if len(top) != 1 || top[0].Name != obs.SpanAssessChange {
		t.Fatalf("workers=%d: root children %v, want one %s", workers, spanNames(top), obs.SpanAssessChange)
	}
	want := []string{obs.SpanControlSelect, obs.SpanPanelAssembly}
	for i := 0; i < kpis; i++ {
		want = append(want, obs.SpanAssessGroup)
	}
	// The per-KPI groups run concurrently, so compare as sorted lists.
	got := spanNames(top[0].Children())
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workers=%d: %s children %v, want %v", workers, obs.SpanAssessChange, got, want)
	}
}

func spanNames(spans []*obs.Span) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestAssessChangeEquivalenceAcrossWorkers is the pipeline-level half of
// the equivalence suite: the full change assessment serializes
// identically for every worker count.
func TestAssessChangeEquivalenceAcrossWorkers(t *testing.T) {
	want := ""
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := goldenPipeline(workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		ser, err := serializeAssessment(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(ser)
			continue
		}
		if string(ser) != want {
			t.Errorf("workers %d: assessment differs from sequential run:\n%s\nwant:\n%s", workers, ser, want)
		}
	}
}
