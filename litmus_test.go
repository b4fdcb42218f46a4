package litmus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/timeseries"
)

var epoch = time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)

// testWorld builds a network, a change with known ground truth, and a
// provider backed by the synthetic generator.
func testWorld(t *testing.T, quality float64) (*netsim.Network, *changelog.Change, SeriesProvider) {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	net := netsim.Build(topo)
	rnc := net.OfKind(netsim.RNC)[0]
	study := net.Children(rnc)[:3]
	changeAt := epoch.Add(14 * 24 * time.Hour)
	change := &changelog.Change{
		ID: "CHG-100", Type: changelog.ConfigChange,
		Description: "radio link failure timer tuning",
		Elements:    study, At: changeAt,
		Expected:    map[kpi.KPI]kpi.Impact{kpi.VoiceRetainability: kpi.Improvement},
		TrueQuality: quality,
	}
	ix := timeseries.NewIndex(epoch, 6*time.Hour, 28*4)
	gcfg := gen.DefaultConfig(ix)
	gcfg.Seed = 5
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

func TestPipelineDetectsImprovement(t *testing.T) {
	net, change, provider := testWorld(t, 2.0)
	p := &Pipeline{
		Network:          net,
		Provider:         provider,
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
	}
	res, err := p.AssessChange(change, []KPI{kpi.VoiceRetainability}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerKPI[kpi.VoiceRetainability].Overall; got != Improvement {
		t.Errorf("overall = %v, want improvement", got)
	}
	if res.Decision != Go {
		t.Errorf("decision = %v, want go", res.Decision)
	}
	if len(res.ControlGroup) < 4 {
		t.Errorf("control group = %d elements, want several siblings", len(res.ControlGroup))
	}
	for _, id := range res.ControlGroup {
		for _, s := range change.Elements {
			if id == s {
				t.Errorf("study element %s leaked into control group", id)
			}
		}
	}
}

func TestPipelineDetectsDegradation(t *testing.T) {
	net, change, provider := testWorld(t, -2.0)
	p := &Pipeline{
		Network:          net,
		Provider:         provider,
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
	}
	res, err := p.AssessChange(change, []KPI{kpi.VoiceRetainability}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != NoGo {
		t.Errorf("decision = %v, want no-go", res.Decision)
	}
}

func TestPipelineHoldOnNoImpact(t *testing.T) {
	net, change, provider := testWorld(t, 0)
	p := &Pipeline{
		Network:          net,
		Provider:         provider,
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
		Assessor:         MustNewAssessor(Config{EffectFloor: 0.004}),
	}
	res, err := p.AssessChange(change, []KPI{kpi.VoiceRetainability}, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Hold {
		t.Errorf("decision = %v (overall %v), want hold",
			res.Decision, res.PerKPI[kpi.VoiceRetainability].Overall)
	}
}

func TestPipelineValidation(t *testing.T) {
	net, change, provider := testWorld(t, 1)
	cases := []struct {
		name string
		p    *Pipeline
		kpis []KPI
		days int
	}{
		{"nil network", &Pipeline{Provider: provider}, []KPI{kpi.VoiceRetainability}, 14},
		{"nil provider", &Pipeline{Network: net}, []KPI{kpi.VoiceRetainability}, 14},
		{"no kpis", &Pipeline{Network: net, Provider: provider}, nil, 14},
		{"short window", &Pipeline{Network: net, Provider: provider}, []KPI{kpi.VoiceRetainability}, 1},
	}
	for _, c := range cases {
		if _, err := c.p.AssessChange(change, c.kpis, c.days); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Invalid change.
	p := &Pipeline{Network: net, Provider: provider}
	bad := &changelog.Change{ID: "X", Elements: []string{"ghost"}, At: epoch}
	if _, err := p.AssessChange(bad, []KPI{kpi.VoiceRetainability}, 14); err == nil {
		t.Error("unknown study element accepted")
	}
	// A nil change is an error, not a panic.
	if _, err := p.AssessChange(nil, []KPI{kpi.VoiceRetainability}, 14); err == nil {
		t.Error("nil change accepted")
	}
}

// TestPipelineRejectsRepeatedStudyElement: a change that lists a study
// element twice is an invalid change, reported as an error like an
// unknown element; the study panel's duplicate-column panic is not
// reachable from it. In a changelog only that entry fails: the golden
// change beside it still assesses to the committed fixture.
func TestPipelineRejectsRepeatedStudyElement(t *testing.T) {
	net, golden, provider := goldenWorld()
	doubled := *golden
	doubled.ID = "CHG-DOUBLED"
	doubled.Elements = append([]string{golden.Elements[0]}, golden.Elements...)
	p := &Pipeline{
		Network:          net,
		Provider:         provider,
		ControlPredicate: control.And(control.SameKind(), control.SameParent()),
		Assessor:         MustNewAssessor(Config{Seed: 9}),
	}
	kpis := []KPI{kpi.VoiceRetainability, kpi.DataAccessibility}
	want := fmt.Sprintf("changelog: change CHG-DOUBLED lists element %q twice", golden.Elements[0])
	if _, err := p.AssessChange(&doubled, kpis, 14); err == nil || err.Error() != want {
		t.Errorf("AssessChange of a repeated element: error %v, want %q", err, want)
	}
	out, err := p.AssessChangelog(context.Background(), []*changelog.Change{&doubled, golden}, kpis, 14)
	if err != nil {
		t.Fatal(err)
	}
	if out.Errors[0] == nil || !strings.Contains(out.Errors[0].Error(), "twice") {
		t.Errorf("changelog entry with a repeated element: error %v, want the repeat reported", out.Errors[0])
	}
	if out.Errors[1] != nil {
		t.Fatalf("golden entry beside it failed: %v", out.Errors[1])
	}
	got, err := MarshalAssessment(out.Results[1])
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), fixture) {
		t.Errorf("golden entry beside a repeated-element entry differs from the fixture:\n%s", got)
	}
}

// TestPipelineTooFewControlsIsDegradation: a control selection that
// matches fewer candidates than it needs is a data-caused failure. The
// pipeline's error keeps its text and classifies as
// insufficient-controls.
func TestPipelineTooFewControlsIsDegradation(t *testing.T) {
	net, change, provider := testWorld(t, 1)
	p := &Pipeline{
		Network:          net,
		Provider:         provider,
		ControlPredicate: control.NewPredicate("never", func(_, _ *netsim.Element) bool { return false }),
	}
	_, err := p.AssessChange(change, []KPI{kpi.VoiceRetainability}, 14)
	if err == nil {
		t.Fatal("a selection matching no candidate assessed")
	}
	if want := "litmus: control selection: control: only 0 candidates match never, need >= 4"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if !errors.Is(err, ErrInsufficientControls) {
		t.Error("error does not wrap ErrInsufficientControls")
	}
	if got := ReasonOf(err); got != core.ReasonInsufficientControls {
		t.Errorf("ReasonOf = %s, want %s", got, core.ReasonInsufficientControls)
	}
	if !IsDegradation(err) {
		t.Error("IsDegradation = false for a selection that matched too few candidates")
	}
}

func TestDecide(t *testing.T) {
	mk := func(impacts ...Impact) map[KPI]GroupResult {
		out := map[KPI]GroupResult{}
		for i, imp := range impacts {
			out[KPI(i)] = GroupResult{Overall: imp}
		}
		return out
	}
	cases := []struct {
		impacts []Impact
		want    Decision
	}{
		{[]Impact{Improvement, NoImpact}, Go},
		{[]Impact{Improvement, Degradation}, NoGo},
		{[]Impact{NoImpact, NoImpact}, Hold},
		{[]Impact{Degradation}, NoGo},
		{nil, Hold},
	}
	for _, c := range cases {
		if got := decide(mk(c.impacts...)); got != c.want {
			t.Errorf("decide(%v) = %v, want %v", c.impacts, got, c.want)
		}
	}
	if Go.String() != "go" || NoGo.String() != "no-go" || Hold.String() != "hold" {
		t.Error("Decision strings wrong")
	}
}

func TestParseDecisionRoundTrip(t *testing.T) {
	for _, d := range []Decision{NoGo, Hold, Go} {
		got, err := ParseDecision(d.String())
		if err != nil {
			t.Fatalf("ParseDecision(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("ParseDecision(%q) = %v, want %v", d.String(), got, d)
		}
	}
	if _, err := ParseDecision("maybe"); err == nil {
		t.Error("unknown decision string accepted")
	}
	// Out-of-range values format as Decision(n), which must not parse
	// back — only the three canonical strings round-trip.
	if _, err := ParseDecision(Decision(42).String()); err == nil {
		t.Error("out-of-range decision string accepted")
	}
}

func TestDecideEmptyPerKPI(t *testing.T) {
	// A change assessed against zero KPIs yields no evidence either way:
	// the recommendation must be Hold, not Go.
	if got := decide(map[KPI]GroupResult{}); got != Hold {
		t.Errorf("decide(empty) = %v, want Hold", got)
	}
	if got := decide(nil); got != Hold {
		t.Errorf("decide(nil) = %v, want Hold", got)
	}
}

func TestFacadeHelpers(t *testing.T) {
	ix := NewIndex(epoch, time.Hour, 3)
	s := NewSeries(ix, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Error("NewSeries wrapper broken")
	}
	p := NewPanel(ix)
	p.Add("a", s)
	if p.Len() != 1 {
		t.Error("NewPanel wrapper broken")
	}
	if _, err := NewAssessor(Config{Alpha: 2}); err == nil {
		t.Error("invalid config accepted")
	}
}
