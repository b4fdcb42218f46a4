package litmus

// Chaos suite: the golden world run through every fault injector. The
// invariants (run under -race in CI's chaos job, see `make chaos`):
//
//  1. An inactive fault set is bit-transparent — output identical to
//     the committed golden fixture.
//  2. Every injector, alone and stacked, terminates with a result
//     (possibly Degraded with machine-readable failures) or a typed
//     degradation error — never a panic, never an unclassified error,
//     never NaN in the canonical document (MarshalAssessment would
//     reject NaN, so a nil marshal error doubles as a NaN check).
//  3. The same fault seed produces identical output bytes at every
//     worker count — corruption is data, and data goes through the
//     same (Seed, iteration) determinism contract as everything else.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/control"
	"repro/internal/faults"
	"repro/internal/kpi"
	"repro/internal/timeseries"
)

// faultyProvider wraps the golden provider with element-level fault
// injection: dropped elements vanish, every other series is corrupted
// by the set's value injectors.
func faultyProvider(p SeriesProvider, fset *faults.Set) SeriesProvider {
	return ProviderFunc(func(id string, metric KPI) (Series, bool) {
		if fset.DropsElement(id) {
			return Series{}, false
		}
		s, ok := p.Series(id, metric)
		if !ok {
			return Series{}, false
		}
		return fset.Series(id, s), true
	})
}

// chaosPipeline runs the golden change assessment with fset injected
// between the provider and the pipeline.
func chaosPipeline(fset *faults.Set, workers int) (*ChangeAssessment, error) {
	net, change, provider := goldenWorld()
	p := &Pipeline{
		Network:          net,
		Provider:         faultyProvider(provider, fset),
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
		Assessor:         MustNewAssessor(Config{Seed: 9, Workers: workers}),
	}
	return p.AssessChange(change, []KPI{kpi.VoiceRetainability, kpi.DataAccessibility}, 14)
}

// TestChaosCleanSetIsGolden: an empty spec parses to an inactive set,
// and an inactive set must be bit-transparent end to end.
func TestChaosCleanSetIsGolden(t *testing.T) {
	fset, err := faults.Parse("", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fset.Active() {
		t.Fatal("empty spec produced an active fault set")
	}
	res, err := chaosPipeline(fset, 0)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := MarshalAssessment(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatalf("%v (run TestAssessChangeGolden with -update to create the fixture)", err)
	}
	if got := append(ser, '\n'); !bytes.Equal(got, want) {
		t.Errorf("inactive fault set perturbed the assessment:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if res.Degraded || len(res.Failures) != 0 {
		t.Errorf("clean run reports degradation: degraded=%v failures=%v", res.Degraded, res.Failures)
	}
}

// checkChaosOutcome asserts invariant 2 on one chaos run.
func checkChaosOutcome(t *testing.T, label string, res *ChangeAssessment, err error) {
	t.Helper()
	if err != nil {
		if !IsDegradation(err) {
			t.Errorf("%s: error %v is not a classified degradation (reason %s)", label, err, ReasonOf(err))
		}
		return
	}
	if res.Degraded != (len(res.Failures) > 0) {
		t.Errorf("%s: Degraded=%v inconsistent with %d failures", label, res.Degraded, len(res.Failures))
	}
	for _, f := range res.Failures {
		if f.Reason == "" {
			t.Errorf("%s: failure without a reason: %+v", label, f)
		}
	}
	if _, err := MarshalAssessment(res); err != nil {
		// encoding/json rejects NaN/Inf, so this doubles as the
		// no-NaN-escapes check on every statistic in the document.
		t.Errorf("%s: result does not marshal cleanly: %v", label, err)
	}
}

// TestChaosEveryInjectorThroughPipeline: each element-level injector
// alone, then all of them stacked, at an aggressive rate and several
// seeds. The run must end in a result or a typed degradation.
func TestChaosEveryInjectorThroughPipeline(t *testing.T) {
	specs := []string{
		"missing", "gap", "spike", "reset", "dropelem",
		"missing,gap,spike,reset,dropelem", // stacked
	}
	for _, spec := range specs {
		for _, seed := range []int64{1, 7, 99} {
			label := fmt.Sprintf("%s/seed=%d", spec, seed)
			t.Run(label, func(t *testing.T) {
				fset, err := faults.Parse(spec, seed, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				res, err := chaosPipeline(fset, 0)
				checkChaosOutcome(t, label, res, err)
			})
		}
	}
}

// TestChaosPanelInjectors: the panel-level injectors (duplicated
// columns, dropped columns, truncated histories) plus the full stack,
// applied to the assessor's group surface directly — including the
// group's shared design, on which every element must make the same
// accept/skip/resample decisions as on a design of its own.
func TestChaosPanelInjectors(t *testing.T) {
	net, change, provider := goldenWorld()
	ids := net.Children(net.MustElement(change.Elements[0]).Parent)
	var studies, controls *Panel
	for _, id := range ids {
		s, ok := provider.Series(id, kpi.VoiceRetainability)
		if !ok {
			t.Fatalf("no series for %s", id)
		}
		if studies == nil {
			studies = timeseries.NewPanel(s.Index)
			controls = timeseries.NewPanel(s.Index)
		}
		inStudy := false
		for _, sid := range change.Elements {
			if sid == id {
				inStudy = true
			}
		}
		if inStudy {
			studies.Add(id, s)
		} else {
			controls.Add(id, s)
		}
	}

	specs := append([]string{"all"}, "dupcol", "dropcol", "shorthist")
	for _, spec := range specs {
		for _, seed := range []int64{3, 41} {
			label := fmt.Sprintf("%s/seed=%d", spec, seed)
			t.Run(label, func(t *testing.T) {
				fset, err := faults.Parse(spec, seed, 0.4)
				if err != nil {
					t.Fatal(err)
				}
				fstudies := fset.Panel(studies)
				fcontrols := fset.Panel(controls)
				if fstudies.Len() == 0 || fcontrols.Len() == 0 {
					t.Skip("faults emptied a panel; nothing to assess")
				}
				a := MustNewAssessor(Config{Seed: 9})
				res, err := a.AssessGroup(fstudies, fcontrols, change.At, kpi.VoiceRetainability)
				if err != nil {
					if !IsDegradation(err) {
						t.Errorf("%s: error %v is not a classified degradation", label, err)
					}
					return
				}
				if len(res.Failures) > 0 != res.Degraded() {
					t.Errorf("%s: Degraded()=%v with %d failures", label, res.Degraded(), len(res.Failures))
				}
				for _, f := range res.Failures {
					if f.Reason == "" || f.Element == "" {
						t.Errorf("%s: underspecified failure %+v", label, f)
					}
				}
			})
		}
	}
}

// TestChaosDeterministicAcrossWorkers: invariant 3 — with faults
// active, the serialized assessment is byte-identical at workers
// 1, 2, 4 and 8, and across repeated runs.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	const spec = "missing,gap,spike,reset,dropelem"
	run := func(workers int) []byte {
		t.Helper()
		fset, err := faults.Parse(spec, 99, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chaosPipeline(fset, workers)
		if err != nil {
			if !IsDegradation(err) {
				t.Fatalf("workers=%d: unclassified error %v", workers, err)
			}
			// A typed total failure is deterministic too: encode it as
			// its message so worker counts can still be compared.
			return []byte("error: " + err.Error())
		}
		ser, err := MarshalAssessment(res)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ser
	}

	want := run(1)
	for _, workers := range []int{1, 2, 4, 8} {
		if got := run(workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: faulted assessment differs from workers=1:\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestChaosDegradedRunReportsFailures: at a rate high enough to break
// elements but not the whole assessment, the result must carry
// machine-readable failures and still decide over the surviving parts.
func TestChaosDegradedRunReportsFailures(t *testing.T) {
	// dropelem at rate 0.5: with three study elements and dozens of
	// controls, some elements vanish deterministically at this seed.
	fset, err := faults.Parse("dropelem", 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaosPipeline(fset, 0)
	if err != nil {
		if !IsDegradation(err) {
			t.Fatalf("unclassified error: %v", err)
		}
		t.Skipf("seed 5 dropped too much; total degradation %v is a valid outcome", err)
	}
	if !res.Degraded {
		t.Skip("seed 5 dropped no assessed element; nothing to verify")
	}
	if len(res.Failures) == 0 {
		t.Fatal("Degraded result carries no failures")
	}
	for _, f := range res.Failures {
		if f.Reason == "" {
			t.Errorf("failure without reason: %+v", f)
		}
	}
	if len(res.PerKPI) == 0 {
		t.Error("degraded result retained no per-KPI verdicts")
	}
}
