package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/seedmix"
)

// TopologyConfig parameterizes the generative topology. The defaults
// produce a network in the size regime the paper's scenarios need
// (control groups of 10s–100s of elements per region, §3.3).
type TopologyConfig struct {
	// Regions to populate. Defaults to all modeled regions.
	Regions []Region
	// ControllersPerRegion is the number of RNCs (UMTS) generated per
	// region. GSM BSCs and LTE eNodeBs are derived proportionally.
	ControllersPerRegion int
	// TowersPerController is the number of NodeBs per RNC (and BTSs per
	// BSC).
	TowersPerController int
	// CellsPerTower is the number of cells (sectors) per tower.
	CellsPerTower int
	// ENodeBsPerRegion is the number of LTE eNodeBs per region.
	ENodeBsPerRegion int
	// MSCsPerRegion is the number of MSCs per region (default 1). Radio
	// controllers attach to the first; the rest model the additional core
	// switches of a large market (the paper's §5.2 assesses multiple
	// MSCs in one region).
	MSCsPerRegion int
	// ScatterKm is the radius around the region center within which
	// elements are placed.
	ScatterKm float64
	// SONFraction is the fraction of towers with SON features enabled.
	SONFraction float64
	// Seed drives all randomized placement and attribute assignment;
	// equal seeds produce identical networks.
	Seed int64
}

// DefaultTopologyConfig returns the configuration used across the
// evaluation harness.
func DefaultTopologyConfig() TopologyConfig {
	return TopologyConfig{
		Regions:              Regions(),
		ControllersPerRegion: 4,
		TowersPerController:  12,
		CellsPerTower:        3,
		ENodeBsPerRegion:     24,
		ScatterKm:            120,
		SONFraction:          0.3,
		Seed:                 1,
	}
}

// The build's label pools, as positions in labelNames: software versions
// per element class, vendors and equipment models.
var (
	coreVersions       = []Label{1, 2, 3}
	controllerVersions = []Label{4, 5, 6}
	towerVersions      = []Label{7, 8, 9}
	vendors            = []Label{10, 11}
	models             = []Label{12, 13, 14}
)

// Build generates a deterministic multi-technology network from cfg.
// Each region holds one MSC + one SGSN (UMTS/GSM core) and one MME + one
// S-GW (LTE core); RNCs and BSCs parent to the MSC; NodeBs/BTSs parent to
// their controllers; eNodeBs parent to the MME; cells parent to towers.
// The generated network always passes Validate.
//
// Every ID, parent and child link depends only on cfg's shape (its
// regions and counts); the seed draws only attributes, so builds of one
// shape share a layout, held in a process-wide one-entry slot. A build of
// a shape the slot does not hold misses: it names each element, indexes
// it with Add and runs Validate, as every build did before layouts were
// shared, and publishes its index and links as the shape's layout. The
// next build of the shape names its elements again but shares that index
// and links instead of building its own, and adds its IDs to the layout.
// Every later build replays the layout: each element takes its ID from it
// by position. So a miss allocates what every build did before layouts
// were shared, plus the layout's header, and the later builds of its
// shape allocate less. Every mode draws the same attributes in the same
// order, so all give identical networks, each with elements of its own.
func Build(cfg TopologyConfig) *Network {
	if len(cfg.Regions) == 0 {
		cfg.Regions = Regions()
	}
	if cfg.ControllersPerRegion <= 0 || cfg.TowersPerController <= 0 {
		panic(fmt.Sprintf("netsim: non-positive topology sizes %+v", cfg))
	}
	// A source from the free list, reseeded: Rand.Seed rebuilds exactly
	// the state rand.NewSource(cfg.Seed) builds.
	rng := seedmix.TakeRand()
	defer seedmix.PutRand(rng)
	rng.Seed(cfg.Seed)
	s := shapeOf(cfg)
	w := walk{lay: layoutSlot.Load()}
	if w.lay.fits(cfg.Regions, s) {
		w.n = w.lay.network()
	} else {
		w.lay, w.n = nil, newNetwork(len(cfg.Regions)*s.regionSize())
	}
	for _, region := range cfg.Regions {
		w.region(rng, cfg, s, region)
	}
	switch {
	case w.lay == nil:
		if err := w.n.Validate(); err != nil {
			panic("netsim: generated invalid topology: " + err.Error())
		}
		layoutSlot.Store(adopt(w.n, cfg.Regions, s))
	case w.lay.ids == nil:
		layoutSlot.Store(w.lay.withIDs(w.n))
	}
	return w.n
}

// shape is the part of a TopologyConfig that decides a network's
// structure, with each count normalized the way the build reads it.
type shape struct {
	controllers, towers, cells, enodebs, mscs int
}

// shapeOf returns the shape of cfg: fewer than one MSC counts as one,
// and negative cell and eNodeB counts as zero.
func shapeOf(cfg TopologyConfig) shape {
	return shape{
		controllers: cfg.ControllersPerRegion,
		towers:      cfg.TowersPerController,
		cells:       max(cfg.CellsPerTower, 0),
		enodebs:     max(cfg.ENodeBsPerRegion, 0),
		mscs:        max(cfg.MSCsPerRegion, 1),
	}
}

// regionSize returns the number of elements a region of s holds.
func (s shape) regionSize() int {
	radio := (s.controllers + (s.controllers+1)/2) * (1 + s.towers*(1+s.cells))
	return s.mscs + 3 + radio + s.enodebs*(1+s.cells)
}

// layout is the structure of every network of one shape: the network's
// index and child links and, from the shape's second build on, the ID of
// each position. It is immutable once published; the networks built from
// it share its index and links until an Add copies them.
type layout struct {
	regions           []Region
	shape             shape
	ids               []string // nil until the shape's second build
	index             []int32
	first, last, next []int32
}

// layoutSlot holds the layout of the shape built most recently, read and
// replaced atomically. One entry, like the serve tier's world slot.
var layoutSlot atomic.Pointer[layout]

// fits reports whether l is the layout of regions at shape s.
func (l *layout) fits(regions []Region, s shape) bool {
	return l != nil && l.shape == s && slices.Equal(l.regions, regions)
}

// network returns an empty network, sized for l's elements, on l's index
// and links.
func (l *layout) network() *Network {
	return &Network{
		elems: make([]*Element, 0, len(l.first)),
		index: l.index, first: l.first, last: l.last, next: l.next,
		shared: true,
	}
}

// adopt returns a layout, without IDs, on the index and links of n, a
// validated build of regions at shape s, and marks them shared.
func adopt(n *Network, regions []Region, s shape) *layout {
	n.shared = true
	return &layout{
		regions: slices.Clone(regions), shape: s,
		index: n.index, first: n.first, last: n.last, next: n.next,
	}
}

// withIDs returns l with the IDs of n, the network of l's second build.
func (l *layout) withIDs(n *Network) *layout {
	ids := make([]string, len(n.elems))
	for i, e := range n.elems {
		ids[i] = e.ID
	}
	c := *l
	c.ids = ids
	return &c
}

// walk is one Build's pass over the topology. Without a layout it names
// each element and adds it with Add. On a layout it appends each element
// to the network, which already holds the layout's index and links, and
// takes the layout's ID for its position, or names it when the layout
// has no IDs yet.
type walk struct {
	n   *Network
	lay *layout
}

// add puts e at the network's next position and returns it. Replaying,
// e's ID is the layout's and name is not called; otherwise it is the one
// name forms.
func (w *walk) add(e *Element, name func() string) *Element {
	switch {
	case w.lay == nil:
		e.ID = name()
		w.n.Add(e)
	case w.lay.ids == nil:
		e.ID = name()
		w.n.elems = append(w.n.elems, e)
	default:
		e.ID = w.lay.ids[len(w.n.elems)]
		w.n.elems = append(w.n.elems, e)
	}
	return e
}

// regionTag holds the unique "-<code>-" infix of each region's generated
// element IDs.
var regionTag = [...]string{
	Northeast: "-ne-",
	Southeast: "-se-",
	West:      "-we-",
	Southwest: "-sw-",
	Midwest:   "-mw-",
}

func (w *walk) region(rng *rand.Rand, cfg TopologyConfig, s shape, region Region) {
	center := RegionCenter(region)
	place := func() GeoPoint {
		// ~1 degree latitude ≈ 111 km; a crude but deterministic scatter.
		dLat := (rng.Float64()*2 - 1) * cfg.ScatterKm / 111.0
		dLon := (rng.Float64()*2 - 1) * cfg.ScatterKm / 85.0
		return GeoPoint{Lat: center.Lat + dLat, Lon: center.Lon + dLon}
	}
	pick := func(pool []Label) Label { return pool[rng.Intn(len(pool))] }
	terrains := []Terrain{TerrainUrban, TerrainSuburban, TerrainRural, TerrainMountain, TerrainCoastal}
	profiles := []TrafficProfile{TrafficBusiness, TrafficResidential, TrafficRecreational, TrafficHighway, TrafficVenue}

	foliage := func() float64 {
		base := RegionFoliage(region)
		f := base * (0.7 + 0.6*rng.Float64())
		if f > 1 {
			f = 1
		}
		return f
	}

	tag := regionTag[region]

	// Core elements.
	var msc *Element
	for m := 1; m <= s.mscs; m++ {
		e := w.add(&Element{
			Kind: MSC, Tech: UMTS, Region: region,
			Location: place(), ZipCode: ZipForCell(region, 0), FoliageExposure: foliage(),
			Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
		}, func() string { return "msc" + tag + strconv.Itoa(m) })
		if m == 1 {
			msc = e
		}
	}
	w.add(&Element{
		Kind: SGSN, Tech: UMTS, Region: region,
		Location: place(), ZipCode: ZipForCell(region, 1), FoliageExposure: foliage(),
		Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
	}, func() string { return "sgsn" + tag + "1" })
	mme := w.add(&Element{
		Kind: MME, Tech: LTE, Region: region,
		Location: place(), ZipCode: ZipForCell(region, 2), FoliageExposure: foliage(),
		Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
	}, func() string { return "mme" + tag + "1" })
	w.add(&Element{
		Kind: SGW, Tech: LTE, Region: region,
		Location: place(), ZipCode: ZipForCell(region, 3), FoliageExposure: foliage(),
		Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
	}, func() string { return "sgw" + tag + "1" })

	// UMTS RNCs with NodeBs, GSM BSCs with BTSs.
	addRadioTree := func(ctrlKind, towerKind Kind, tech Technology, ctrlPrefix, towerPrefix string, count int) {
		for c := 0; c < count; c++ {
			ctrl := w.add(&Element{
				Kind: ctrlKind, Tech: tech, Region: region,
				Parent: msc.ID, Location: place(), ZipCode: ZipForCell(region, 10+c),
				Terrain: terrains[rng.Intn(len(terrains))], FoliageExposure: foliage(),
				Config: Config{SoftwareVersion: pick(controllerVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
			}, func() string { return ctrlPrefix + tag + strconv.Itoa(c+1) })
			for tw := 0; tw < s.towers; tw++ {
				loc := place()
				zipCell := 10 + c // towers share their controller's zip neighborhood
				if rng.Float64() < 0.3 {
					zipCell = 100 + rng.Intn(20)
				}
				tower := w.add(&Element{
					Kind: towerKind, Tech: tech, Region: region, Parent: ctrl.ID,
					Location: loc, ZipCode: ZipForCell(region, zipCell),
					Terrain:         terrains[rng.Intn(len(terrains))],
					Traffic:         profiles[rng.Intn(len(profiles))],
					FoliageExposure: foliage(),
					Config: Config{
						SoftwareVersion: pick(towerVersions), Vendor: ctrl.Config.Vendor,
						EquipmentModel: pick(models),
						AntennaTiltDeg: rng.Float64() * 8,
						TxPowerDBm:     40 + rng.Float64()*6,
						FrequencyMHz:   []float64{850, 1900, 2100}[rng.Intn(3)],
						SONEnabled:     rng.Float64() < cfg.SONFraction,
					},
				}, func() string { return towerPrefix + strconv.Itoa(c+1) + tag + strconv.Itoa(tw+1) })
				w.cells(tower, s.cells)
			}
		}
	}
	addRadioTree(RNC, NodeB, UMTS, "rnc", "nb", s.controllers)
	addRadioTree(BSC, BTS, GSM, "bsc", "bts", (s.controllers+1)/2)

	// LTE eNodeBs (controller+tower in one, paper §2.1) under the MME.
	for e := 0; e < s.enodebs; e++ {
		zipCell := 200 + e/8 // groups of eight share a zip: same-zip control groups
		enb := w.add(&Element{
			Kind: ENodeB, Tech: LTE, Region: region,
			Parent: mme.ID, Location: place(), ZipCode: ZipForCell(region, zipCell),
			Terrain:         terrains[rng.Intn(len(terrains))],
			Traffic:         profiles[rng.Intn(len(profiles))],
			FoliageExposure: foliage(),
			Config: Config{
				SoftwareVersion: pick(towerVersions), Vendor: pick(vendors), EquipmentModel: pick(models),
				AntennaTiltDeg: rng.Float64() * 8, TxPowerDBm: 43 + rng.Float64()*4,
				FrequencyMHz: 700, SONEnabled: rng.Float64() < cfg.SONFraction,
			},
		}, func() string { return "enb" + tag + strconv.Itoa(e+1) })
		w.cells(enb, s.cells)
	}
}

// cells adds count cells under tower, each sharing its attributes.
func (w *walk) cells(tower *Element, count int) {
	for cell := 0; cell < count; cell++ {
		w.add(&Element{
			Kind: Cell, Tech: tower.Tech, Region: tower.Region, Parent: tower.ID,
			Location: tower.Location, ZipCode: tower.ZipCode,
			Terrain: tower.Terrain, Traffic: tower.Traffic,
			FoliageExposure: tower.FoliageExposure,
			Config:          tower.Config,
		}, func() string { return tower.ID + ".c" + strconv.Itoa(cell+1) })
	}
}
