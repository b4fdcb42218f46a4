package netsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindPredicates(t *testing.T) {
	if !MSC.IsCore() || !MME.IsCore() || RNC.IsCore() {
		t.Error("IsCore classification wrong")
	}
	if !RNC.IsController() || !BSC.IsController() || !ENodeB.IsController() || NodeB.IsController() {
		t.Error("IsController classification wrong")
	}
	if !NodeB.IsTower() || !BTS.IsTower() || !ENodeB.IsTower() || RNC.IsTower() {
		t.Error("IsTower classification wrong")
	}
}

func TestStringers(t *testing.T) {
	if UMTS.String() != "UMTS" || GSM.String() != "GSM" || LTE.String() != "LTE" {
		t.Error("Technology String wrong")
	}
	if RNC.String() != "RNC" || ENodeB.String() != "eNodeB" {
		t.Error("Kind String wrong")
	}
	if TerrainUrban.String() != "urban" || TrafficVenue.String() != "venue" {
		t.Error("Terrain/TrafficProfile String wrong")
	}
	if Northeast.String() != "Northeast" || Midwest.String() != "Midwest" || vendors[1].String() != "VendorB" {
		t.Error("Region/Label String wrong")
	}
	if Region(0).String() != "" || Zip(0).String() != "" || Label(0).String() != "" {
		t.Error("zero Region, Zip and Label must print as the empty string")
	}
	for _, s := range []fmt.Stringer{Technology(99), Kind(99), Region(99), Region(-1), Zip(7), Label(99)} {
		if s.String() == "" {
			t.Errorf("out-of-range %T stringer must not be empty", s)
		}
	}
}

func TestDistanceKm(t *testing.T) {
	// New York ↔ Los Angeles ≈ 3936 km.
	ny := GeoPoint{40.7128, -74.0060}
	la := GeoPoint{34.0522, -118.2437}
	d := DistanceKm(ny, la)
	if d < 3900 || d > 3980 {
		t.Errorf("NY-LA distance = %v km, want ~3936", d)
	}
	if DistanceKm(ny, ny) != 0 {
		t.Error("distance to self must be 0")
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := GeoPoint{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := GeoPoint{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipForCell(t *testing.T) {
	z1 := ZipForCell(Northeast, 5)
	z2 := ZipForCell(Southeast, 5)
	if z1 == z2 {
		t.Error("different regions must yield different zips")
	}
	if len(z1.String()) != 5 {
		t.Errorf("zip %q not 5 digits", z1)
	}
	if ZipForCell(Northeast, 5) != z1 {
		t.Error("zips must be deterministic")
	}
	// The format is the region prefix and %03d of the cell number
	// modulo 1000, negative cells included.
	var zips []Zip
	for _, cell := range []int{0, 5, 10, 99, 100, 119, 203, 999, 1000, 1234, -1, -5, -10, -99, -100, -999, -1005} {
		for _, r := range Regions() {
			want := fmt.Sprintf("%s%03d", regionZipPrefix[r], cell%1000)
			z := ZipForCell(r, cell)
			if got := z.String(); got != want {
				t.Errorf("ZipForCell(%s, %d) = %q, want %q", r, cell, got, want)
			}
			zips = append(zips, z)
		}
	}
	// == on two zips, the zero one included, agrees with equality of
	// their texts.
	for _, a := range append(zips, 0) {
		for _, b := range zips {
			if (a == b) != (a.String() == b.String()) {
				t.Errorf("zips %q and %q: == reads %t", a, b, a == b)
			}
		}
	}
}

func TestRegionFoliageShape(t *testing.T) {
	if RegionFoliage(Northeast) <= RegionFoliage(Southeast) {
		t.Error("Northeast must have higher foliage exposure than Southeast (paper Fig. 3)")
	}
}

func TestNetworkAddValidation(t *testing.T) {
	n := NewNetwork()
	n.Add(&Element{ID: "m1", Kind: MSC})
	for _, bad := range []*Element{
		{ID: "", Kind: RNC},
		{ID: "m1", Kind: MSC},                 // duplicate
		{ID: "r1", Kind: RNC, Parent: "nope"}, // unknown parent
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%+v) should panic", bad)
				}
			}()
			n.Add(bad)
		}()
	}
}

// TestNetworkIndexMatchesMap grows a network from NewNetwork by Add
// through every rehash of its index, past 5,000 elements with IDs of
// mixed lengths, and checks each lookup against a map: present IDs,
// absent ones, "" and prefixes of present IDs. The panics keep their
// texts, and Children and Descendants answer as the parent links say.
func TestNetworkIndexMatchesMap(t *testing.T) {
	prefixes := []string{"", "n", "cell-", "a-rather-long-element-identifier-"}
	n := NewNetwork()
	pos := map[string]int{}
	var ids []string
	kids := map[string][]string{}
	check := func() {
		t.Helper()
		if size := len(n.index); size&(size-1) != 0 || size < 2*n.Len() {
			t.Fatalf("%d elements in a %d-slot index", n.Len(), size)
		}
		for _, id := range ids {
			if got := n.lookup(id); got != int32(pos[id]) {
				t.Fatalf("%d elements: lookup(%q) = %d, want %d", n.Len(), id, got, pos[id])
			}
			for _, absent := range []string{id[:len(id)-1], id + "x", id + ".c1"} {
				if _, ok := pos[absent]; !ok && n.Element(absent) != nil {
					t.Fatalf("%d elements: absent %q found", n.Len(), absent)
				}
			}
		}
		for _, absent := range []string{"", "missing", "a-rather-long-element-identifier"} {
			if n.Element(absent) != nil {
				t.Fatalf("%d elements: absent %q found", n.Len(), absent)
			}
		}
	}
	slots := len(n.index)
	for i := 0; i < 5200; i++ {
		e := &Element{ID: prefixes[i%len(prefixes)] + strconv.Itoa(i)}
		if i >= 7 {
			e.Parent = ids[(i-7)/3]
			kids[e.Parent] = append(kids[e.Parent], e.ID)
		}
		n.Add(e)
		pos[e.ID] = i
		ids = append(ids, e.ID)
		if len(n.index) != slots {
			slots = len(n.index)
			check()
		}
		if n.Element(e.ID) != e {
			t.Fatalf("Element(%q) is not the element added", e.ID)
		}
	}
	check()

	panicText := func(e *Element) (text string) {
		defer func() { text = fmt.Sprint(recover()) }()
		n.Add(e)
		return ""
	}
	for _, tc := range []struct {
		e    *Element
		want string
	}{
		{&Element{ID: ""}, "netsim: element with empty ID"},
		{&Element{ID: ids[4000]}, fmt.Sprintf("netsim: duplicate element ID %q", ids[4000])},
		{&Element{ID: "new", Parent: "n1x"}, `netsim: element "new" references unknown parent "n1x"`},
	} {
		if got := panicText(tc.e); got != tc.want {
			t.Errorf("Add(%+v) panics with %q, want %q", *tc.e, got, tc.want)
		}
	}
	if n.Len() != len(ids) || n.Element("new") != nil {
		t.Fatalf("a panicking Add changed the network: %d elements", n.Len())
	}
	check()

	for _, id := range ids {
		if got, want := n.Children(id), kids[id]; !slices.Equal(got, want) {
			t.Fatalf("Children(%q) = %v, want %v", id, got, want)
		}
	}
	for _, id := range []string{ids[0], ids[5], ids[300], ids[2000]} {
		var want []string
		for queue := []string{id}; len(queue) > 0; queue = queue[1:] {
			want = append(want, kids[queue[0]]...)
			queue = append(queue, kids[queue[0]]...)
		}
		if got := n.Descendants(id); !slices.Equal(got, want) {
			t.Fatalf("Descendants(%q): %d IDs, want %d", id, len(got), len(want))
		}
	}
}

// TestPoolConcurrentBuildsMatch builds networks on several goroutines at
// once, every build drawing from a generator of the process-wide free
// list, and requires each build's elements to equal a sequential
// build's, field by field.
func TestPoolConcurrentBuildsMatch(t *testing.T) {
	dump := func(seed int64) string {
		cfg := DefaultTopologyConfig()
		cfg.Regions = []Region{Northeast, Midwest}
		cfg.Seed = seed
		n := Build(cfg)
		var b strings.Builder
		for _, id := range n.IDs() {
			for _, f := range elementFields {
				b.WriteString(f.value(n.MustElement(id)) + " ")
			}
		}
		return b.String()
	}
	const seeds = 2
	want := make([]string, seeds)
	for s := range want {
		want[s] = dump(int64(s + 1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*seeds; g++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				if dump(int64(s+1)) != want[s] {
					t.Errorf("seed %d: a concurrent build differs from the sequential one", s+1)
					return
				}
			}
		}(g % seeds)
	}
	wg.Wait()
}

func TestBuildDeterministic(t *testing.T) {
	cfg := DefaultTopologyConfig()
	cfg.Regions = []Region{Northeast}
	a := Build(cfg)
	b := Build(cfg)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	aIDs, bIDs := a.IDs(), b.IDs()
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("ID order differs at %d: %q vs %q", i, aIDs[i], bIDs[i])
		}
		ea, eb := a.MustElement(aIDs[i]), b.MustElement(bIDs[i])
		if ea.Location != eb.Location || ea.Config != eb.Config {
			t.Fatalf("element %q differs between builds", aIDs[i])
		}
	}
	cfg.Seed = 2
	c := Build(cfg)
	same := true
	for i, id := range c.IDs() {
		if a.MustElement(aIDs[i]).Location != c.MustElement(id).Location {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placement")
	}
}

// TestElementSize pins the 96 B element: one- and two-byte fields
// instead of the 16 B string headers of Region, ZipCode and Config's
// three labels, which made it 176 B.
func TestElementSize(t *testing.T) {
	if got := unsafe.Sizeof(Element{}); got != 96 {
		t.Errorf("Element is %d B, want 96", got)
	}
}

// buildCost returns what Build allocates per element, in bytes and
// allocations, over twenty builds on one P. Before each build, prepare
// returns its config; only the build itself is measured.
func buildCost(prepare func(run int) TopologyConfig) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var b, a, elems uint64
	for run := 0; run < 20; run++ {
		cfg := prepare(run)
		runtime.ReadMemStats(&before)
		n := Build(cfg)
		runtime.ReadMemStats(&after)
		b += after.TotalAlloc - before.TotalAlloc
		a += after.Mallocs - before.Mallocs
		elems += uint64(n.Len())
	}
	return float64(b) / float64(elems), float64(a) / float64(elems)
}

// TestBuildBytesPerElement pins what a Build that replays its shape's
// layout allocates per element of the default topology (1970 elements):
// the 96 B element and an even share of the element slice, with no ID,
// no index, no links, no map, no fmt, no zip string and no new generator
// source. With map growth and fmt IDs a build cost 497 B and 4.6
// allocations per element; with 200 B elements, a map index and its own
// source, 303 B; with 176 B elements and zip strings, 221 B and 2.27;
// with each build forming its IDs, index and links, 140 B and 2.00.
func TestBuildBytesPerElement(t *testing.T) {
	cfg := DefaultTopologyConfig()
	Build(cfg)
	Build(cfg)
	bytes, allocs := buildCost(func(int) TopologyConfig { return cfg })
	t.Logf("replaying Build: %.0f B and %.2f allocations per element", bytes, allocs)
	if bytes > 110 {
		t.Errorf("replaying Build allocates %.0f B per element, want at most 110", bytes)
	}
	if allocs > 1.05 {
		t.Errorf("replaying Build makes %.2f allocations per element, want at most 1.05", allocs)
	}
}

// TestColdBuildBytesPerElement pins what the two builds of a shape that
// do not replay allocate per element of the default topology, each under
// the bound every build had before layouts were shared (150 B and 2.1
// allocations). A miss, here on shapes that alternate, allocates the
// element, its ID and an even share of the presized index and links
// (140 B and 2.00). A shape's second build allocates the element, its ID
// and a share of the layout's ID table, but no index or links.
func TestColdBuildBytesPerElement(t *testing.T) {
	shapes := [2]TopologyConfig{DefaultTopologyConfig(), DefaultTopologyConfig()}
	slices.Reverse(shapes[1].Regions)
	for _, c := range []struct {
		name    string
		prepare func(run int) TopologyConfig
	}{
		{"miss", func(run int) TopologyConfig { return shapes[run%2] }},
		{"second build", func(int) TopologyConfig {
			forgetLayout()
			Build(shapes[0])
			return shapes[0]
		}},
	} {
		forgetLayout()
		bytes, allocs := buildCost(c.prepare)
		t.Logf("%s: %.0f B and %.2f allocations per element", c.name, bytes, allocs)
		if bytes > 150 {
			t.Errorf("%s allocates %.0f B per element, want at most 150", c.name, bytes)
		}
		if allocs > 2.1 {
			t.Errorf("%s makes %.2f allocations per element, want at most 2.1", c.name, allocs)
		}
	}
}

// BenchmarkBuild times the three builds of the default topology: a
// miss, a shape's second build and a replay.
func BenchmarkBuild(b *testing.B) {
	cfg := DefaultTopologyConfig()
	for _, mode := range []struct {
		name    string
		prepare func()
	}{
		{"miss", forgetLayout},
		{"second", func() { forgetLayout(); Build(cfg) }},
		{"replay", func() {}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			Build(cfg)
			Build(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mode.prepare()
				cfg.Seed = int64(i + 1)
				b.StartTimer()
				Build(cfg)
			}
		})
	}
}

func TestBuildStructure(t *testing.T) {
	net := Build(DefaultTopologyConfig())
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	rncs := net.OfKind(RNC)
	if len(rncs) != 4*len(Regions()) {
		t.Errorf("RNC count = %d, want %d", len(rncs), 4*len(Regions()))
	}
	// Every RNC has the configured number of NodeB children.
	for _, rnc := range rncs {
		kids := net.Children(rnc)
		if len(kids) != 12 {
			t.Errorf("RNC %q has %d children, want 12", rnc, len(kids))
		}
		for _, kid := range kids {
			if net.MustElement(kid).Kind != NodeB {
				t.Errorf("RNC child %q is %s, want NodeB", kid, net.MustElement(kid).Kind)
			}
		}
	}
	// Descendants of an RNC include towers and their cells.
	desc := net.Descendants(rncs[0])
	if len(desc) != 12+12*3 {
		t.Errorf("RNC descendants = %d, want 48", len(desc))
	}
	// Ancestors of a cell climb to the core.
	cells := net.OfKind(Cell)
	anc := net.Ancestors(cells[0])
	if len(anc) < 2 {
		t.Errorf("cell ancestors = %v, want tower+controller+core chain", anc)
	}
}

func TestBuildRegionalFoliage(t *testing.T) {
	net := Build(DefaultTopologyConfig())
	neMean, seMean := 0.0, 0.0
	ne := net.InRegion(Northeast)
	se := net.InRegion(Southeast)
	for _, id := range ne {
		neMean += net.MustElement(id).FoliageExposure
	}
	for _, id := range se {
		seMean += net.MustElement(id).FoliageExposure
	}
	neMean /= float64(len(ne))
	seMean /= float64(len(se))
	if neMean <= seMean*2 {
		t.Errorf("NE foliage %v not clearly above SE %v", neMean, seMean)
	}
}

func TestSiblingsAndSameZip(t *testing.T) {
	net := Build(DefaultTopologyConfig())
	nbs := net.OfKind(NodeB)
	sibs := net.Siblings(nbs[0])
	if len(sibs) != 11 {
		t.Errorf("NodeB siblings = %d, want 11", len(sibs))
	}
	for _, s := range sibs {
		if net.MustElement(s).Parent != net.MustElement(nbs[0]).Parent {
			t.Error("sibling with different parent")
		}
	}
	// eNodeBs are generated in same-zip groups of four.
	enbs := net.OfKind(ENodeB)
	var found bool
	for _, e := range enbs {
		if len(net.SameZip(e)) >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no eNodeB has same-zip peers; zip grouping broken")
	}
	// Core element with no parent has no siblings.
	if s := net.Siblings(net.OfKind(MSC)[0]); s != nil {
		t.Errorf("MSC siblings = %v, want nil", s)
	}
}

func TestCouplingWeights(t *testing.T) {
	net := Build(DefaultTopologyConfig())
	nbs := net.OfKind(NodeB)
	study := nbs[0]
	w := net.CouplingWeights(study, 0.6)
	sibs := net.Siblings(study)
	if len(w) != len(sibs) {
		t.Fatalf("coupling covers %d elements, want all %d siblings", len(w), len(sibs))
	}
	center := net.MustElement(study).Location
	for _, s := range sibs {
		ws, ok := w[s]
		if !ok {
			t.Fatalf("sibling %q missing from coupling map", s)
		}
		if ws <= 0 || ws > 0.6 {
			t.Errorf("weight for %q = %v, want in (0, strength]", s, ws)
		}
	}
	// Weights decay with distance: the nearest sibling couples at least as
	// strongly as the farthest.
	near, far := sibs[0], sibs[0]
	for _, s := range sibs[1:] {
		d := DistanceKm(center, net.MustElement(s).Location)
		if d < DistanceKm(center, net.MustElement(near).Location) {
			near = s
		}
		if d > DistanceKm(center, net.MustElement(far).Location) {
			far = s
		}
	}
	if w[near] < w[far] {
		t.Errorf("near sibling weight %v below far sibling weight %v", w[near], w[far])
	}
	// Strength scales linearly and clamps to [0, 1].
	w2 := net.CouplingWeights(study, 0.3)
	if math.Abs(w2[near]-w[near]/2) > 1e-12 {
		t.Errorf("strength 0.3 weight %v not half of strength 0.6 weight %v", w2[near], w[near])
	}
	if over := net.CouplingWeights(study, 5); over[near] > 1 {
		t.Errorf("weight %v exceeds 1 despite clamping", over[near])
	}
	if net.CouplingWeights(study, 0) != nil {
		t.Error("strength 0 must yield no coupling")
	}
	// Core elements have no siblings, hence no coupling.
	if net.CouplingWeights(net.OfKind(MSC)[0], 0.5) != nil {
		t.Error("element without siblings must yield no coupling")
	}
	// Determinism: identical calls yield identical maps.
	w3 := net.CouplingWeights(study, 0.6)
	for k, v := range w {
		if w3[k] != v {
			t.Errorf("coupling weight for %q differs across calls: %v vs %v", k, v, w3[k])
		}
	}
}

func TestWithinKmSorted(t *testing.T) {
	net := Build(DefaultTopologyConfig())
	nbs := net.OfKind(NodeB)
	within := net.WithinKm(nbs[0], 500)
	if len(within) == 0 {
		t.Fatal("no elements within 500km of a NodeB")
	}
	center := net.MustElement(nbs[0]).Location
	last := -1.0
	for _, id := range within {
		d := DistanceKm(center, net.MustElement(id).Location)
		if d < last-1e-9 {
			t.Fatal("WithinKm not sorted by distance")
		}
		last = d
	}
}

func TestFilter(t *testing.T) {
	net := Build(DefaultTopologyConfig())
	son := net.Filter(func(e *Element) bool { return e.Config.SONEnabled && e.Kind == NodeB })
	if len(son) == 0 {
		t.Fatal("no SON-enabled NodeBs generated")
	}
	for _, id := range son {
		if !net.MustElement(id).Config.SONEnabled {
			t.Error("Filter returned non-matching element")
		}
	}
}

func TestSnapshotDiff(t *testing.T) {
	net := Build(DefaultTopologyConfig())
	at := time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	s1 := net.Snapshot(at)
	// Move one element to another tower software version.
	nb := net.OfKind(NodeB)[0]
	e := net.MustElement(nb)
	before := e.Config.SoftwareVersion
	after := towerVersions[0]
	if after == before {
		after = towerVersions[1]
	}
	e.Config.SoftwareVersion = after
	s2 := net.Snapshot(at.Add(24 * time.Hour))
	diffs := Diff(s1, s2)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v, want exactly 1", diffs)
	}
	if diffs[0].ID != nb || diffs[0].Field != "software" || diffs[0].Before != before.String() || diffs[0].After != after.String() {
		t.Errorf("diff = %+v", diffs[0])
	}
	// Identical snapshots diff to nothing.
	if d := Diff(s2, s2); len(d) != 0 {
		t.Errorf("self-diff = %v, want empty", d)
	}
}

func TestSnapshotPresenceDiff(t *testing.T) {
	a := &ConfigSnapshot{Entries: map[string]SnapshotEntry{"x": {}}}
	b := &ConfigSnapshot{Entries: map[string]SnapshotEntry{"y": {}}}
	diffs := Diff(a, b)
	if len(diffs) != 2 {
		t.Fatalf("diffs = %v", diffs)
	}
	for _, d := range diffs {
		if d.Field != "presence" {
			t.Errorf("unexpected field %q", d.Field)
		}
	}
}

func TestValidateCatchesBadTopology(t *testing.T) {
	n := NewNetwork()
	n.Add(&Element{ID: "nb-root", Kind: NodeB}) // tower at root: fine for Add...
	n.Add(&Element{ID: "cell-1", Kind: Cell, Parent: "nb-root"})
	n.Add(&Element{ID: "nb-bad", Kind: NodeB, Parent: "cell-1"}) // tower under cell
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted a tower parented to a cell")
	}
}

func TestRegionCenterUnknownPanics(t *testing.T) {
	for _, r := range []Region{0, -1, Midwest + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegionCenter(%d) did not panic", int(r))
				}
			}()
			RegionCenter(r)
		}()
	}
}
