// Package netsim models the cellular network that Litmus assesses: the
// GSM/UMTS/LTE element hierarchy (core switches, radio controllers, cell
// towers, cells), element geography (region, latitude/longitude, zip
// code), and element configuration (software version, vendor, antenna
// parameters, SON capability).
//
// The paper ran on AT&T's production topology; this package is the
// substitution: a deterministic generative topology that produces the same
// relational structure Litmus consumes — parent/child adjacency for
// topological control-group predicates, geography for distance/zip
// predicates, and configuration attributes for config predicates
// (CoNEXT'13 §2.1–2.2, §3.3).
package netsim

import "fmt"

// Technology identifies the radio access technology of an element.
// Technology, Kind, Terrain, TrafficProfile, Region and Label are int8
// and Zip is int16, so an Element packs them into two words. They are
// signed because %#v, which the networks golden prints the first four
// with, shows unsigned values in hex.
type Technology int8

// Radio access technologies covered by the paper.
const (
	GSM Technology = iota
	UMTS
	LTE
)

func (t Technology) String() string {
	switch t {
	case GSM:
		return "GSM"
	case UMTS:
		return "UMTS"
	case LTE:
		return "LTE"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// Kind identifies the role of a network element in the architecture of
// Fig. 2 of the paper.
type Kind int8

// Element kinds across the three architectures. Core kinds:
// circuit-switched (MSC, GMSC), packet-switched (SGSN, GGSN), and
// LTE/EPC (MME, SGW, PGW, HSS, PCRF). Radio kinds: controllers
// (BSC for GSM, RNC for UMTS), towers (BTS, NodeB, ENodeB), and cells.
const (
	// Circuit-switched core.
	MSC Kind = iota
	GMSC
	HLR
	// Packet-switched core.
	SGSN
	GGSN
	// LTE evolved packet core.
	MME
	SGW
	PGW
	HSS
	PCRF
	// Radio access network.
	BSC
	RNC
	BTS
	NodeB
	ENodeB
	Cell
)

func (k Kind) String() string {
	names := [...]string{"MSC", "GMSC", "HLR", "SGSN", "GGSN", "MME", "S-GW", "P-GW", "HSS", "PCRF", "BSC", "RNC", "BTS", "NodeB", "eNodeB", "Cell"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsCore reports whether the kind belongs to the core network domain.
func (k Kind) IsCore() bool {
	switch k {
	case MSC, GMSC, HLR, SGSN, GGSN, MME, SGW, PGW, HSS, PCRF:
		return true
	}
	return false
}

// IsController reports whether the kind is a radio controller (BSC/RNC).
// In LTE the eNodeB doubles as controller and tower (paper §2.1), so
// ENodeB is also reported as a controller.
func (k Kind) IsController() bool {
	return k == BSC || k == RNC || k == ENodeB
}

// IsTower reports whether the kind is a cell tower.
func (k Kind) IsTower() bool {
	return k == BTS || k == NodeB || k == ENodeB
}

// Region is a coarse geographic market, the granularity at which external
// factors (foliage, storms) act in the paper's examples. It is one byte;
// the zero Region is no region and prints as "".
type Region int8

// The four geographically diverse US regions the paper evaluates on
// (§4.3), plus Midwest for storm scenarios (§2.5).
const (
	Northeast Region = iota + 1
	Southeast
	West
	Southwest
	Midwest
)

var regionNames = [...]string{"", "Northeast", "Southeast", "West", "Southwest", "Midwest"}

// String returns the region's name, "" for the zero Region. Call it
// wherever the name is wanted: string(r) converts the number to a rune.
func (r Region) String() string {
	if r >= 0 && int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// known reports whether r is one of the modeled regions.
func (r Region) known() bool { return r > 0 && int(r) < len(regionNames) }

// Regions lists all modeled regions in a stable order.
func Regions() []Region {
	return []Region{Northeast, Southeast, West, Southwest, Midwest}
}

// Terrain classifies the radio environment of a tower (paper §1, §3.3).
type Terrain int8

// Terrain categories.
const (
	TerrainUrban Terrain = iota
	TerrainSuburban
	TerrainRural
	TerrainMountain
	TerrainCoastal
)

func (t Terrain) String() string {
	names := [...]string{"urban", "suburban", "rural", "mountain", "coastal"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("Terrain(%d)", int(t))
}

// TrafficProfile classifies the dominant usage pattern of the covered
// area — the business-vs-lake distinction of the paper's DiD
// counter-example (§3.2).
type TrafficProfile int8

// Traffic profiles.
const (
	TrafficBusiness TrafficProfile = iota
	TrafficResidential
	TrafficRecreational // lakes, parks: weekend/evening heavy
	TrafficHighway
	TrafficVenue // stadiums: event-driven spikes
)

func (p TrafficProfile) String() string {
	names := [...]string{"business", "residential", "recreational", "highway", "venue"}
	if int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("TrafficProfile(%d)", int(p))
}

// Label is a configuration value, a software version, vendor or
// equipment model, held in one byte: its position in labelNames, the one
// table of every value Build assigns. The zero Label is no value and
// prints as "".
type Label int8

var labelNames = [...]string{
	"",
	"CS12.1", "CS12.4", "CS13.0", // core versions
	"RN30.2", "RN31.0", "RN31.5", // controller versions
	"NB7.1", "NB7.2", "NB8.0", // tower versions
	"VendorA", "VendorB",
	"M100", "M200", "M300",
}

// String returns the label's value, "" for the zero Label.
func (l Label) String() string {
	if l >= 0 && int(l) < len(labelNames) {
		return labelNames[l]
	}
	return fmt.Sprintf("Label(%d)", int(l))
}

// Config holds the configurable attributes of an element that the paper's
// change types touch and that control-group predicates match on (§3.3).
// The three floats come first, so the three labels and SONEnabled share
// the last word.
type Config struct {
	// AntennaTiltDeg is the mechanical downtilt; positive tilts down,
	// reducing coverage (paper §2.3). Zero for core elements.
	AntennaTiltDeg float64
	// TxPowerDBm is the downlink transmission power. Zero for core
	// elements.
	TxPowerDBm float64
	// FrequencyMHz is the carrier frequency. Zero for core elements.
	FrequencyMHz float64

	SoftwareVersion Label
	Vendor          Label
	EquipmentModel  Label
	// SONEnabled marks elements with Self Optimizing Network features
	// activated (paper §2.3, §5.3).
	SONEnabled bool
}

// Element is one addressable network element, 96 B. Its one- and
// two-byte fields sit together after ID, so the five classifications and
// the zip code share one word, and Config's labels share its last word
// with SONEnabled.
type Element struct {
	ID      string
	Kind    Kind
	Tech    Technology
	Terrain Terrain
	Traffic TrafficProfile
	Region  Region
	ZipCode Zip
	// Parent is the ID of the upstream element ("" for top-level core
	// elements). Towers parent to controllers, controllers to core
	// switches.
	Parent string

	Location GeoPoint
	// FoliageExposure in [0,1] scales how strongly yearly foliage
	// seasonality affects the element's KPIs; ~0 outside deciduous
	// regions (paper Fig. 3: Northeast seasonal, Southeast not).
	FoliageExposure float64

	Config Config
}

func (e *Element) String() string {
	return fmt.Sprintf("%s(%s/%s@%s)", e.ID, e.Kind, e.Tech, e.Region)
}
