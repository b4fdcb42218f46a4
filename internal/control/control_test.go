package control

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

func testNet() *netsim.Network {
	return netsim.Build(netsim.DefaultTopologyConfig())
}

func elems(net *netsim.Network, k netsim.Kind) []*netsim.Element {
	var out []*netsim.Element
	for _, id := range net.OfKind(k) {
		out = append(out, net.MustElement(id))
	}
	return out
}

func TestBasicPredicates(t *testing.T) {
	net := testNet()
	nbs := elems(net, netsim.NodeB)
	rncs := elems(net, netsim.RNC)

	if !SameKind().Matches(nbs[0], nbs[1]) {
		t.Error("same-kind should match two NodeBs")
	}
	if SameKind().Matches(nbs[0], rncs[0]) {
		t.Error("same-kind matched NodeB with RNC")
	}
	if !SameTech().Matches(nbs[0], nbs[1]) {
		t.Error("same-tech should match two UMTS towers")
	}
	sibs := net.Children(rncs[0].ID)
	a, b := net.MustElement(sibs[0]), net.MustElement(sibs[1])
	if !SameParent().Matches(a, b) {
		t.Error("same-parent should match siblings")
	}
	if SameParent().Matches(a, net.MustElement(net.Children(rncs[1].ID)[0])) {
		t.Error("same-parent matched across RNCs")
	}
	// Elements without parents never match SameParent.
	mscs := elems(net, netsim.MSC)
	if SameParent().Matches(mscs[0], mscs[1]) {
		t.Error("same-parent matched two root elements")
	}
}

func TestGeographicPredicates(t *testing.T) {
	net := testNet()
	nbs := elems(net, netsim.NodeB)
	var zipMate *netsim.Element
	for _, c := range nbs[1:] {
		if c.ZipCode == nbs[0].ZipCode {
			zipMate = c
			break
		}
	}
	if zipMate != nil && !SameZip().Matches(nbs[0], zipMate) {
		t.Error("same-zip failed on matching zips")
	}
	if !SameRegion().Matches(nbs[0], nbs[1]) != (nbs[0].Region != nbs[1].Region) {
		t.Error("same-region inconsistent")
	}
	huge := WithinKm(1e6)
	if !huge.Matches(nbs[0], nbs[len(nbs)-1]) {
		t.Error("within-1e6km should match everything")
	}
	tiny := WithinKm(0.001)
	if tiny.Matches(nbs[0], nbs[1]) && netsim.DistanceKm(nbs[0].Location, nbs[1].Location) > 0.001 {
		t.Error("within-0.001km matched distant towers")
	}
}

func TestConfigPredicates(t *testing.T) {
	net := testNet()
	nbs := elems(net, netsim.NodeB)
	a := nbs[0]
	var sameSW, diffSW *netsim.Element
	for _, c := range nbs[1:] {
		if c.Config.SoftwareVersion == a.Config.SoftwareVersion {
			sameSW = c
		} else {
			diffSW = c
		}
	}
	if sameSW != nil && !SameSoftware().Matches(a, sameSW) {
		t.Error("same-software failed on equal versions")
	}
	if diffSW != nil && SameSoftware().Matches(a, diffSW) {
		t.Error("same-software matched different versions")
	}
	if !SameVendor().Matches(a, a) || !SameModel().Matches(a, a) || !SameTerrain().Matches(a, a) || !SameTrafficProfile().Matches(a, a) {
		t.Error("reflexive attribute predicates must match self")
	}
}

func TestSONState(t *testing.T) {
	net := testNet()
	son := SONState(true)
	noSon := SONState(false)
	for _, id := range net.OfKind(netsim.NodeB) {
		e := net.MustElement(id)
		if son.Matches(nil, e) != e.Config.SONEnabled {
			t.Error("SONState(true) mismatch")
		}
		if noSon.Matches(nil, e) == e.Config.SONEnabled {
			t.Error("SONState(false) mismatch")
		}
	}
}

func TestCombinators(t *testing.T) {
	net := testNet()
	nbs := elems(net, netsim.NodeB)
	always := NewPredicate("always", func(_, _ *netsim.Element) bool { return true })
	never := NewPredicate("never", func(_, _ *netsim.Element) bool { return false })

	if !And(always, always).Matches(nbs[0], nbs[1]) {
		t.Error("And(true, true) = false")
	}
	if And(always, never).Matches(nbs[0], nbs[1]) {
		t.Error("And(true, false) = true")
	}
	if !Or(never, always).Matches(nbs[0], nbs[1]) {
		t.Error("Or(false, true) = false")
	}
	if Or(never, never).Matches(nbs[0], nbs[1]) {
		t.Error("Or(false, false) = true")
	}
	if !Not(never).Matches(nbs[0], nbs[1]) {
		t.Error("Not(false) = false")
	}
	name := And(SameZip(), SameSoftware()).Name()
	if !strings.Contains(name, "same-zip") || !strings.Contains(name, "same-software") {
		t.Errorf("combinator name %q should list members", name)
	}
}

func TestSelectorTopological(t *testing.T) {
	net := testNet()
	rnc := net.OfKind(netsim.RNC)[0]
	study := net.Children(rnc)[0]
	sel := &Selector{Net: net, Predicate: And(SameKind(), SameParent())}
	got, err := sel.Select([]string{study})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("control group size = %d, want 11 sibling NodeBs", len(got))
	}
	for _, id := range got {
		e := net.MustElement(id)
		if e.Parent != rnc || e.Kind != netsim.NodeB {
			t.Errorf("control %s is not a sibling NodeB", id)
		}
		if id == study {
			t.Error("study element selected as its own control")
		}
	}
}

func TestSelectorExcludesImpactScope(t *testing.T) {
	net := testNet()
	rnc := net.OfKind(netsim.RNC)[0]
	// Study at the RNC: its NodeB children (descendants) and its MSC
	// parent must never be controls even if the predicate matches them.
	sel := &Selector{Net: net, Predicate: SameRegion()}
	got, err := sel.Select([]string{rnc})
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{rnc: true}
	for _, d := range net.Descendants(rnc) {
		forbidden[d] = true
	}
	for _, a := range net.Ancestors(rnc) {
		forbidden[a] = true
	}
	for _, id := range got {
		if forbidden[id] {
			t.Errorf("impact-scope element %s selected as control", id)
		}
	}
}

func TestSelectorMaxSizeKeepsNearest(t *testing.T) {
	net := testNet()
	study := net.OfKind(netsim.NodeB)[0]
	sel := &Selector{Net: net, Predicate: And(SameKind(), SameRegion()), MaxSize: 5}
	got, err := sel.Select([]string{study})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("capped control group = %d, want 5", len(got))
	}
	// All selected must be at most as far as any unselected matching
	// candidate.
	sloc := net.MustElement(study).Location
	var maxSel float64
	for _, id := range got {
		if d := netsim.DistanceKm(sloc, net.MustElement(id).Location); d > maxSel {
			maxSel = d
		}
	}
	unselected := &Selector{Net: net, Predicate: And(SameKind(), SameRegion())}
	all, err := unselected.Select([]string{study})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= 5 {
		t.Skip("not enough candidates to verify nearest-first")
	}
	selSet := map[string]bool{}
	for _, id := range got {
		selSet[id] = true
	}
	for _, id := range all {
		if selSet[id] {
			continue
		}
		if d := netsim.DistanceKm(sloc, net.MustElement(id).Location); d < maxSel-1e-9 {
			t.Errorf("unselected candidate %s nearer (%.1f km) than selected max (%.1f km)", id, d, maxSel)
		}
	}
}

func TestSelectorErrors(t *testing.T) {
	net := testNet()
	study := net.OfKind(netsim.NodeB)[0]
	// Only too few candidates is a failure the data causes.
	cases := []struct {
		name   string
		sel    *Selector
		ids    []string
		tooFew bool
	}{
		{"empty study", &Selector{Net: net, Predicate: SameKind()}, nil, false},
		{"no predicate", &Selector{Net: net}, []string{study}, false},
		{"unknown study", &Selector{Net: net, Predicate: SameKind()}, []string{"ghost"}, false},
		{"too few candidates", &Selector{Net: net, Predicate: NewPredicate("never", func(_, _ *netsim.Element) bool { return false })}, []string{study}, true},
	}
	for _, c := range cases {
		_, err := c.sel.Select(c.ids)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if got := errors.Is(err, core.ErrInsufficientControls); got != c.tooFew {
			t.Errorf("%s: error %q wraps ErrInsufficientControls: %t, want %t", c.name, err, got, c.tooFew)
		}
	}
}

func TestSelectorDeterministic(t *testing.T) {
	net := testNet()
	study := net.OfKind(netsim.NodeB)[3]
	sel := &Selector{Net: net, Predicate: And(SameKind(), SameRegion()), MaxSize: 10}
	a, err := sel.Select([]string{study})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sel.Select([]string{study})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection not deterministic: %v vs %v", a, b)
		}
	}
}

func TestSelectorExplicitExclude(t *testing.T) {
	net := testNet()
	rnc := net.OfKind(netsim.RNC)[0]
	study := net.Children(rnc)[0]
	peer := net.Children(rnc)[1]
	sel := &Selector{Net: net, Predicate: And(SameKind(), SameParent()), Exclude: []string{peer}}
	got, err := sel.Select([]string{study})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		if id == peer {
			t.Error("explicitly excluded element selected")
		}
	}
	if len(got) != 10 {
		t.Errorf("control group = %d, want 10", len(got))
	}
}

// TestSelectorBytesPerSelect pins what one selection allocates on the
// default network: the exclusion set, the matched candidates and the
// result, but no copy of the network's 1970 IDs (~31 KiB).
func TestSelectorBytesPerSelect(t *testing.T) {
	net := testNet()
	study := []string{"nb1-ne-1", "nb1-ne-2", "nb1-ne-3"}
	sel := &Selector{Net: net, Predicate: And(SameKind(), SameParent())}
	if _, err := sel.Select(study); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sel.Select(study); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8<<10 {
		t.Errorf("Select allocates %d B, want < 8 KiB", per)
	}
}
