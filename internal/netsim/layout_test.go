package netsim

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// forgetLayout empties the process-wide layout slot, so the next build
// misses.
func forgetLayout() { layoutSlot.Store(nil) }

// onLayout reports whether n shares the index and links of l.
func onLayout(n *Network, l *layout) bool {
	return l != nil && n.shared && &n.index[0] == &l.index[0] && &n.first[0] == &l.first[0]
}

// TestBuildModesMatchGolden builds every golden topology three times
// from an empty slot: a miss, which publishes its index and links as the
// layout; the second build, which names its elements on them and adds
// its IDs; and a replay. All three must dump the fixture's line and pass
// Validate, and the replay must hold the layout's ID strings themselves,
// not equal ones it formed.
func TestBuildModesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_networks.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			want[name] = line
		}
	}
	for _, gc := range goldenConfigs() {
		forgetLayout()
		miss := Build(gc.cfg)
		adopted := layoutSlot.Load()
		if !onLayout(miss, adopted) || adopted.ids != nil {
			t.Fatalf("%s: the miss did not publish its index and links alone", gc.name)
		}
		second := Build(gc.cfg)
		lay := layoutSlot.Load()
		if !onLayout(second, adopted) || !onLayout(second, lay) || len(lay.ids) != second.Len() {
			t.Fatalf("%s: the second build did not add its IDs to the miss's layout", gc.name)
		}
		replay := Build(gc.cfg)
		if layoutSlot.Load() != lay || !onLayout(replay, lay) {
			t.Fatalf("%s: the third build did not replay the layout", gc.name)
		}
		for i, e := range replay.elems {
			if unsafe.StringData(e.ID) != unsafe.StringData(lay.ids[i]) {
				t.Fatalf("%s: replayed element %d formed its ID %q", gc.name, i, e.ID)
			}
		}
		for mode, n := range map[string]*Network{"miss": miss, "second": second, "replay": replay} {
			if got := goldenLine(gc.name, n, elementFields); got != want[gc.name] {
				t.Errorf("%s build differs from the fixture:\ngot  %swant %s", mode, got, want[gc.name])
			}
			if err := n.Validate(); err != nil {
				t.Errorf("%s: %s build: %v", gc.name, mode, err)
			}
		}
	}
}

// TestAddCopiesSharedLayout adds elements to networks that share a
// layout, in every build mode, and requires every other network of the
// layout, and every later build, to answer as before.
func TestAddCopiesSharedLayout(t *testing.T) {
	cfg := DefaultTopologyConfig()
	cfg.Regions = []Region{Northeast}
	forgetLayout()
	miss, second := Build(cfg), Build(cfg)
	replayed, other := Build(cfg), Build(cfg)
	lay := layoutSlot.Load()
	want := goldenLine("other", other, elementFields)
	ids := other.IDs()
	nb := other.OfKind(NodeB)[0]
	kids := other.Children(nb)

	for _, n := range []*Network{miss, second, replayed} {
		n.Add(&Element{ID: "extra.c1", Kind: Cell, Parent: nb})
		// Enough more to grow the index past its presized table.
		for i := 0; i < len(ids); i++ {
			n.Add(&Element{ID: "extra-" + ids[i], Kind: MSC})
		}
		if n.shared || &n.first[0] == &lay.first[0] || &n.last[0] == &lay.last[0] || &n.next[0] == &lay.next[0] {
			t.Fatal("Add left the network on the layout's links")
		}
		if n.Element("extra.c1") == nil || !slices.Equal(n.Children(nb), append(slices.Clone(kids), "extra.c1")) {
			t.Fatalf("Add did not link the new cell: children %v", n.Children(nb))
		}
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for name, n := range map[string]*Network{"other": other, "later": Build(cfg)} {
		if n.Len() != len(ids) || !slices.Equal(n.IDs(), ids) || !slices.Equal(n.Children(nb), kids) {
			t.Errorf("%s network changed: %d elements, children of %s %v", name, n.Len(), nb, n.Children(nb))
		}
		if n.Element("extra.c1") != nil || n.Element("extra-"+ids[0]) != nil {
			t.Errorf("%s network finds an element added to another", name)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s network: %v", name, err)
		}
		if got := goldenLine("other", n, elementFields); got != want {
			t.Errorf("%s network dumps differently after Add on another", name)
		}
	}
	if layoutSlot.Load() != lay {
		t.Error("Add replaced the layout")
	}
}

// TestLayoutKey: configs that differ only in what the seed draws share a
// layout, configs that differ in region order or any count do not, and
// counts the build treats alike (fewer than one MSC, negative cell and
// eNodeB counts) share one.
func TestLayoutKey(t *testing.T) {
	base := DefaultTopologyConfig()
	base.Regions = []Region{Northeast, West}
	with := func(cfg TopologyConfig, f func(*TopologyConfig)) TopologyConfig {
		cfg.Regions = slices.Clone(cfg.Regions)
		f(&cfg)
		return cfg
	}
	// shares builds a twice, then b, and reports whether b replayed a's
	// layout.
	shares := func(a, b TopologyConfig) bool {
		forgetLayout()
		Build(a)
		Build(a)
		lay := layoutSlot.Load()
		n := Build(b)
		return layoutSlot.Load() == lay && onLayout(n, lay)
	}
	for name, f := range map[string]func(*TopologyConfig){
		"seed":    func(c *TopologyConfig) { c.Seed = 99 },
		"scatter": func(c *TopologyConfig) { c.ScatterKm = 10 },
		"son":     func(c *TopologyConfig) { c.SONFraction = 0.9 },
	} {
		if !shares(base, with(base, f)) {
			t.Errorf("configs differing in %s do not share a layout", name)
		}
	}
	for name, f := range map[string]func(*TopologyConfig){
		"region order": func(c *TopologyConfig) { c.Regions[0], c.Regions[1] = c.Regions[1], c.Regions[0] },
		"regions":      func(c *TopologyConfig) { c.Regions = c.Regions[:1] },
		"controllers":  func(c *TopologyConfig) { c.ControllersPerRegion++ },
		"towers":       func(c *TopologyConfig) { c.TowersPerController++ },
		"cells":        func(c *TopologyConfig) { c.CellsPerTower++ },
		"eNodeBs":      func(c *TopologyConfig) { c.ENodeBsPerRegion++ },
		"MSCs":         func(c *TopologyConfig) { c.MSCsPerRegion = 2 },
	} {
		if shares(base, with(base, f)) {
			t.Errorf("configs differing in %s share a layout", name)
		}
	}
	for name, pair := range map[string][2]func(*TopologyConfig){
		"MSCs 0 and 1":     {func(c *TopologyConfig) { c.MSCsPerRegion = 0 }, func(c *TopologyConfig) { c.MSCsPerRegion = 1 }},
		"MSCs -2 and 0":    {func(c *TopologyConfig) { c.MSCsPerRegion = -2 }, func(c *TopologyConfig) { c.MSCsPerRegion = 0 }},
		"cells -1 and 0":   {func(c *TopologyConfig) { c.CellsPerTower = -1 }, func(c *TopologyConfig) { c.CellsPerTower = 0 }},
		"eNodeBs -3 and 0": {func(c *TopologyConfig) { c.ENodeBsPerRegion = -3 }, func(c *TopologyConfig) { c.ENodeBsPerRegion = 0 }},
	} {
		if !shares(with(base, pair[0]), with(base, pair[1])) {
			t.Errorf("%s do not share a layout", name)
		}
	}
	// The layout keeps its own copy of the regions.
	forgetLayout()
	cfg := with(base, func(*TopologyConfig) {})
	Build(cfg)
	Build(cfg)
	cfg.Regions[0] = Southeast
	if !layoutSlot.Load().fits(base.Regions, shapeOf(base)) {
		t.Error("changing a built config's regions changed its layout's key")
	}
}

// TestPanickingBuildKeepsLayout: a build that panics on duplicate
// regions publishes nothing, whether the slot was empty or held a
// layout, with or without IDs.
func TestPanickingBuildKeepsLayout(t *testing.T) {
	dup := DefaultTopologyConfig()
	dup.Regions = []Region{Northeast, Northeast}
	mustPanic := func() {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("a build over duplicate regions did not panic")
			}
		}()
		Build(dup)
	}
	forgetLayout()
	mustPanic()
	if layoutSlot.Load() != nil {
		t.Error("a panicking build filled the empty slot")
	}
	for _, held := range []string{"index and links", "IDs"} {
		Build(DefaultTopologyConfig())
		lay := layoutSlot.Load()
		mustPanic()
		if layoutSlot.Load() != lay {
			t.Errorf("a panicking build replaced a layout with %s", held)
		}
	}
}

// TestPoolLayoutAlternatingShapes builds two shapes, each twice in a
// row, on several goroutines, so the layout slot is read, published,
// given IDs and replaced concurrently, and requires every build to dump
// as a sequential build of its config does.
func TestPoolLayoutAlternatingShapes(t *testing.T) {
	one := DefaultTopologyConfig()
	one.Regions = []Region{Northeast}
	two := DefaultTopologyConfig()
	two.Regions = []Region{West, Northeast} // the dump asks for nb1-ne-1
	two.ControllersPerRegion = 2
	two.CellsPerTower = 1
	two.Seed = 7
	cfgs := []TopologyConfig{one, two}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		forgetLayout()
		want[i] = goldenLine("", Build(cfg), elementFields)
	}
	const goroutines, reps = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				i := (g + rep/2) % len(cfgs)
				if goldenLine("", Build(cfgs[i]), elementFields) != want[i] {
					t.Errorf("shape %d: a concurrent build differs from the sequential one", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
