package changelog

import (
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/netsim"
)

var epoch = time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)

func testNet() *netsim.Network {
	cfg := netsim.DefaultTopologyConfig()
	cfg.Regions = []netsim.Region{netsim.Northeast}
	return netsim.Build(cfg)
}

func validChange(net *netsim.Network, id string, at time.Time) *Change {
	return &Change{
		ID: id, Type: ConfigChange, Frequency: LowFrequency,
		Description: "radio link failure timer",
		Elements:    []string{net.OfKind(netsim.RNC)[0]},
		At:          at,
		Expected:    map[kpi.KPI]kpi.Impact{kpi.VoiceRetainability: kpi.Improvement},
		TrueQuality: 1.0,
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []Type{ConfigChange, SoftwareUpgrade, FeatureActivation, TopologyChange, HardwareUpgrade, TrafficMove} {
		if typ.String() == "" {
			t.Errorf("Type %d has empty name", int(typ))
		}
	}
	if HighFrequency.String() == LowFrequency.String() {
		t.Error("frequency strings must differ")
	}
}

func TestChangeValidate(t *testing.T) {
	net := testNet()
	good := validChange(net, "CHG-1", epoch)
	if err := good.Validate(net); err != nil {
		t.Fatal(err)
	}
	cases := []*Change{
		{ID: "", Elements: []string{"x"}, At: epoch},
		{ID: "a", Elements: []string{"x"}},                                      // no time
		{ID: "a", At: epoch},                                                    // no elements
		{ID: "a", Elements: []string{"does-not-exist"}, At: epoch},              // unknown element
		{ID: "a", Elements: append(good.Elements, good.Elements[0]), At: epoch}, // repeated element
	}
	for i, c := range cases {
		if err := c.Validate(net); err == nil {
			t.Errorf("case %d: invalid change accepted", i)
		}
	}
}

func TestImpactScope(t *testing.T) {
	net := testNet()
	rnc := net.OfKind(netsim.RNC)[0]
	c := &Change{ID: "CHG-1", Elements: []string{rnc}, At: epoch}
	scope := c.ImpactScope(net)
	if len(scope) != 1 || scope[0] != rnc {
		t.Errorf("non-propagating scope = %v, want just the element", scope)
	}
	c.PropagateToDescendants = true
	scope = c.ImpactScope(net)
	want := 1 + len(net.Descendants(rnc))
	if len(scope) != want {
		t.Errorf("propagating scope = %d elements, want %d", len(scope), want)
	}
}

func TestImpactScopeDeduplicates(t *testing.T) {
	net := testNet()
	rnc := net.OfKind(netsim.RNC)[0]
	nb := net.Children(rnc)[0]
	c := &Change{ID: "CHG-1", Elements: []string{rnc, nb}, At: epoch, PropagateToDescendants: true}
	scope := c.ImpactScope(net)
	seen := map[string]bool{}
	for _, id := range scope {
		if seen[id] {
			t.Fatalf("duplicate %q in impact scope", id)
		}
		seen[id] = true
	}
}

func TestEffectConversion(t *testing.T) {
	net := testNet()
	c := validChange(net, "CHG-1", epoch.Add(24*time.Hour))
	c.PropagateToDescendants = true
	ef := c.Effect(net)
	if ef.Label != "CHG-1" || !ef.Start.Equal(c.At) {
		t.Errorf("effect = %+v", ef)
	}
	if ef.Quality != 1.0 {
		t.Errorf("effect quality = %v", ef.Quality)
	}
	rnc := c.Elements[0]
	if !ef.Elements[rnc] {
		t.Error("effect must cover the study element")
	}
	if !ef.Elements[net.Children(rnc)[0]] {
		t.Error("propagating effect must cover descendants")
	}
}

func TestLogAddAndOrdering(t *testing.T) {
	net := testNet()
	l := NewLog()
	c2 := validChange(net, "CHG-2", epoch.Add(48*time.Hour))
	c1 := validChange(net, "CHG-1", epoch.Add(24*time.Hour))
	if err := l.Add(net, c2); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(net, c1); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	all := l.All()
	if all[0].ID != "CHG-1" || all[1].ID != "CHG-2" {
		t.Errorf("log not time-ordered: %v, %v", all[0].ID, all[1].ID)
	}
	if l.ByID("CHG-2") != c2 {
		t.Error("ByID lookup failed")
	}
	if l.ByID("nope") != nil {
		t.Error("ByID of unknown should be nil")
	}
}

func TestLogRejectsDuplicatesAndInvalid(t *testing.T) {
	net := testNet()
	l := NewLog()
	c := validChange(net, "CHG-1", epoch)
	if err := l.Add(net, c); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(net, validChange(net, "CHG-1", epoch)); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := l.Add(net, &Change{ID: "bad"}); err == nil {
		t.Error("invalid change accepted")
	}
}

func TestLogInWindow(t *testing.T) {
	net := testNet()
	l := NewLog()
	for i, h := range []int{0, 24, 48, 72} {
		c := validChange(net, string(rune('A'+i)), epoch.Add(time.Duration(h)*time.Hour))
		if err := l.Add(net, c); err != nil {
			t.Fatal(err)
		}
	}
	got := l.InWindow(epoch.Add(24*time.Hour), epoch.Add(72*time.Hour))
	if len(got) != 2 || got[0].ID != "B" || got[1].ID != "C" {
		t.Errorf("InWindow = %v", got)
	}
}

func TestTouchingElement(t *testing.T) {
	net := testNet()
	l := NewLog()
	rnc := net.OfKind(netsim.RNC)[0]
	nb := net.Children(rnc)[0]
	c := &Change{ID: "CHG-1", Elements: []string{rnc}, At: epoch, PropagateToDescendants: true}
	if err := l.Add(net, c); err != nil {
		t.Fatal(err)
	}
	if got := l.TouchingElement(net, nb); len(got) != 1 {
		t.Errorf("TouchingElement(child) = %d changes, want 1", len(got))
	}
	other := net.OfKind(netsim.RNC)[1]
	if got := l.TouchingElement(net, other); len(got) != 0 {
		t.Errorf("TouchingElement(unrelated) = %d changes, want 0", len(got))
	}
}

func TestLogEffects(t *testing.T) {
	net := testNet()
	l := NewLog()
	if err := l.Add(net, validChange(net, "CHG-1", epoch)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(net, validChange(net, "CHG-2", epoch.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	effects := l.Effects(net)
	if len(effects) != 2 {
		t.Fatalf("Effects = %d, want 2", len(effects))
	}
	if effects[0].Label != "CHG-1" {
		t.Errorf("effect label = %q", effects[0].Label)
	}
}
