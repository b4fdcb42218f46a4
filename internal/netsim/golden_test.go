package netsim

// Golden pin of generated networks. For each topology config the
// fixture holds the element count and the SHA-256 of a canonical dump
// of everything the network answers: every element field, element by
// element in insertion order, the adjacency queries of every element,
// the predicate queries of every tower, per-kind and per-region scans,
// one radius query, an unknown ID and Validate. Each element prints its
// fields by name in a fixed order (elementFields), so the dump does not
// depend on how Element lays its fields out. Slices print with %#v, so
// a nil and an empty answer differ. The fixture was rendered by the
// map-backed network that preceded the slice-backed one, so it pins the
// build's draw order, its IDs and zips, and every query's order
// independently of the code under test. Regenerate after an intentional
// contract change with:
//
//	go test ./internal/netsim -run TestNetworkGolden -update

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_networks.txt")

type goldenConfig struct {
	name string
	cfg  TopologyConfig
}

// goldenConfigs are the default topology at seeds 1–8 and two
// non-default shapes: extra MSCs with single-cell towers, and cell-less
// towers without eNodeBs over two regions.
func goldenConfigs() []goldenConfig {
	var out []goldenConfig
	for seed := int64(1); seed <= 8; seed++ {
		cfg := DefaultTopologyConfig()
		cfg.Seed = seed
		out = append(out, goldenConfig{fmt.Sprintf("default-seed-%d", seed), cfg})
	}
	multiMSC := DefaultTopologyConfig()
	multiMSC.MSCsPerRegion = 3
	multiMSC.ControllersPerRegion = 3
	multiMSC.TowersPerController = 7
	multiMSC.CellsPerTower = 1
	multiMSC.ENodeBsPerRegion = 5
	multiMSC.Seed = 11
	noCells := DefaultTopologyConfig()
	noCells.Regions = []Region{Northeast, Southwest}
	noCells.CellsPerTower = 0
	noCells.ENodeBsPerRegion = 0
	noCells.Seed = 12
	return append(out,
		goldenConfig{"msc3-ctrl3-tower7-cell1-enb5", multiMSC},
		goldenConfig{"no-cells-no-enb-2-regions", noCells})
}

// elementField is one Element field of the canonical dump: its name and
// its value in Go syntax (%#v).
type elementField struct {
	name  string
	value func(*Element) string
}

// elementFields are the fields the dump prints, by name and in the order
// Element declared them when the fixture was rendered, so each line
// reads as %#v of that Element did then, whatever the struct's layout.
// Region, ZipCode and Config's three labels were strings then, so they
// print %#v of their String() forms.
var elementFields = []elementField{
	{"ID", func(e *Element) string { return fmt.Sprintf("%#v", e.ID) }},
	{"Kind", func(e *Element) string { return fmt.Sprintf("%#v", e.Kind) }},
	{"Tech", func(e *Element) string { return fmt.Sprintf("%#v", e.Tech) }},
	{"Region", func(e *Element) string { return fmt.Sprintf("%#v", e.Region.String()) }},
	{"Parent", func(e *Element) string { return fmt.Sprintf("%#v", e.Parent) }},
	{"Location", func(e *Element) string {
		return fmt.Sprintf("netsim.GeoPoint{Lat:%#v, Lon:%#v}", e.Location.Lat, e.Location.Lon)
	}},
	{"ZipCode", func(e *Element) string { return fmt.Sprintf("%#v", e.ZipCode.String()) }},
	{"Terrain", func(e *Element) string { return fmt.Sprintf("%#v", e.Terrain) }},
	{"Traffic", func(e *Element) string { return fmt.Sprintf("%#v", e.Traffic) }},
	{"FoliageExposure", func(e *Element) string { return fmt.Sprintf("%#v", e.FoliageExposure) }},
	{"Config", func(e *Element) string {
		c := e.Config
		return fmt.Sprintf("netsim.Config{SoftwareVersion:%#v, Vendor:%#v, EquipmentModel:%#v, AntennaTiltDeg:%#v, TxPowerDBm:%#v, FrequencyMHz:%#v, SONEnabled:%#v}",
			c.SoftwareVersion.String(), c.Vendor.String(), c.EquipmentModel.String(), c.AntennaTiltDeg, c.TxPowerDBm, c.FrequencyMHz, c.SONEnabled)
	}},
}

// dumpNetwork writes the canonical dump of n to w, each element's fields
// in the order of fields.
func dumpNetwork(w io.Writer, n *Network, fields []elementField) {
	ids := n.IDs()
	fmt.Fprintf(w, "len %d\n", n.Len())
	for _, id := range ids {
		e := n.MustElement(id)
		io.WriteString(w, "element netsim.Element{")
		for i, f := range fields {
			if i > 0 {
				io.WriteString(w, ", ")
			}
			io.WriteString(w, f.name+":"+f.value(e))
		}
		io.WriteString(w, "}\n")
	}
	for _, id := range ids {
		fmt.Fprintf(w, "children %s %#v\n", id, n.Children(id))
		fmt.Fprintf(w, "descendants %s %#v\n", id, n.Descendants(id))
		fmt.Fprintf(w, "ancestors %s %#v\n", id, n.Ancestors(id))
	}
	for _, id := range ids {
		if !n.MustElement(id).Kind.IsTower() {
			continue
		}
		fmt.Fprintf(w, "siblings %s %#v\n", id, n.Siblings(id))
		fmt.Fprintf(w, "samezip %s %#v\n", id, n.SameZip(id))
		fmt.Fprintf(w, "coupling %s %#v\n", id, n.CouplingWeights(id, 0.5))
	}
	for k := MSC; k <= Cell; k++ {
		fmt.Fprintf(w, "kind %s %#v\n", k, n.OfKind(k))
	}
	for _, r := range Regions() {
		fmt.Fprintf(w, "region %s %d\n", r, len(n.InRegion(r)))
	}
	fmt.Fprintf(w, "within nb1-ne-1 30 %#v\n", n.WithinKm("nb1-ne-1", 30))
	fmt.Fprintf(w, "children unknown %#v\n", n.Children("no-such-element"))
	fmt.Fprintf(w, "validate %v\n", n.Validate())
}

func renderGoldenNetworks(fields []elementField) []byte {
	var doc bytes.Buffer
	for _, gc := range goldenConfigs() {
		doc.WriteString(goldenLine(gc.name, Build(gc.cfg), fields))
	}
	return doc.Bytes()
}

// goldenLine returns n's line of the fixture: name, element count and the
// SHA-256 of n's dump.
func goldenLine(name string, n *Network, fields []elementField) string {
	h := sha256.New()
	bw := bufio.NewWriter(h)
	dumpNetwork(bw, n, fields)
	if err := bw.Flush(); err != nil {
		panic(err) // a hash never fails to write
	}
	return fmt.Sprintf("%s %d %x\n", name, n.Len(), h.Sum(nil))
}

// TestRegionSizeCountsBuild pins the count Build presizes its network
// with against the elements it adds.
func TestRegionSizeCountsBuild(t *testing.T) {
	for _, gc := range goldenConfigs() {
		if got, want := Build(gc.cfg).Len(), len(gc.cfg.Regions)*shapeOf(gc.cfg).regionSize(); got != want {
			t.Errorf("%s: Build added %d elements, regionSize counts %d", gc.name, got, want)
		}
	}
}

func TestNetworkGolden(t *testing.T) {
	got := renderGoldenNetworks(elementFields)
	golden := filepath.Join("testdata", "golden_networks.txt")
	if *update {
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
		t.Errorf("generated networks differ from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestNetworkGoldenDumpsEveryField requires the dump to print every
// Element field once, so a field added to Element cannot go unpinned.
func TestNetworkGoldenDumpsEveryField(t *testing.T) {
	var declared, dumped []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Element{})) {
		declared = append(declared, f.Name)
	}
	for _, f := range elementFields {
		dumped = append(dumped, f.name)
	}
	slices.Sort(declared)
	slices.Sort(dumped)
	if !slices.Equal(declared, dumped) {
		t.Errorf("Element declares %v, the dump prints %v", declared, dumped)
	}
}

// TestNetworkGoldenPinsFieldOrder swaps two fields of the dump, the two
// enums a struct layout might reorder, and requires the rendering to
// miss the fixture: the dump pins its field order and values, not just
// the set of values.
func TestNetworkGoldenPinsFieldOrder(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_networks.txt"))
	if err != nil {
		t.Fatal(err)
	}
	swapped := slices.Clone(elementFields)
	i := slices.IndexFunc(swapped, func(f elementField) bool { return f.name == "Terrain" })
	j := slices.IndexFunc(swapped, func(f elementField) bool { return f.name == "Traffic" })
	swapped[i], swapped[j] = swapped[j], swapped[i]
	if bytes.Equal(renderGoldenNetworks(swapped), want) {
		t.Error("a dump with Terrain and Traffic swapped matches the fixture")
	}
}
