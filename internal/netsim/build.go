package netsim

import (
	"fmt"
	"math/rand"
	"strconv"

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
// The layout per region: one MSC + one SGSN (UMTS/GSM core) and one
// MME + one S-GW (LTE core); RNCs and BSCs parent to the MSC; NodeBs/BTSs
// parent to their controllers; eNodeBs parent to the MME; cells parent to
// towers. The generated network always passes Validate.
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
	n := newNetwork(len(cfg.Regions) * regionSize(cfg))
	for _, region := range cfg.Regions {
		buildRegion(n, rng, cfg, region)
	}
	if err := n.Validate(); err != nil {
		panic("netsim: generated invalid topology: " + err.Error())
	}
	return n
}

// regionSize returns the number of elements buildRegion adds per region.
func regionSize(cfg TopologyConfig) int {
	cells := max(cfg.CellsPerTower, 0)
	radio := (cfg.ControllersPerRegion + (cfg.ControllersPerRegion+1)/2) * (1 + cfg.TowersPerController*(1+cells))
	return max(cfg.MSCsPerRegion, 1) + 3 + radio + max(cfg.ENodeBsPerRegion, 0)*(1+cells)
}

// regionCode holds the unique short code embedded in each region's
// generated element IDs.
var regionCode = [...]string{
	Northeast: "ne",
	Southeast: "se",
	West:      "we",
	Southwest: "sw",
	Midwest:   "mw",
}

func buildRegion(n *Network, rng *rand.Rand, cfg TopologyConfig, region Region) {
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

	// tag is the "-<region>-" infix of every generated ID.
	tag := "-" + regionCode[region] + "-"

	// Core elements.
	mscCount := cfg.MSCsPerRegion
	if mscCount < 1 {
		mscCount = 1
	}
	var msc *Element
	for m := 1; m <= mscCount; m++ {
		e := &Element{
			ID: "msc" + tag + strconv.Itoa(m), Kind: MSC, Tech: UMTS, Region: region,
			Location: place(), ZipCode: ZipForCell(region, 0), FoliageExposure: foliage(),
			Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
		}
		n.Add(e)
		if m == 1 {
			msc = e
		}
	}
	sgsn := &Element{
		ID: "sgsn" + tag + "1", Kind: SGSN, Tech: UMTS, Region: region,
		Location: place(), ZipCode: ZipForCell(region, 1), FoliageExposure: foliage(),
		Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
	}
	n.Add(sgsn)
	mme := &Element{
		ID: "mme" + tag + "1", Kind: MME, Tech: LTE, Region: region,
		Location: place(), ZipCode: ZipForCell(region, 2), FoliageExposure: foliage(),
		Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
	}
	n.Add(mme)
	sgw := &Element{
		ID: "sgw" + tag + "1", Kind: SGW, Tech: LTE, Region: region,
		Location: place(), ZipCode: ZipForCell(region, 3), FoliageExposure: foliage(),
		Config: Config{SoftwareVersion: pick(coreVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
	}
	n.Add(sgw)

	// UMTS RNCs with NodeBs, GSM BSCs with BTSs.
	addRadioTree := func(ctrlKind, towerKind Kind, tech Technology, ctrlPrefix, towerPrefix string, count int) {
		for c := 0; c < count; c++ {
			ctrlNum := strconv.Itoa(c + 1)
			ctrl := &Element{
				ID: ctrlPrefix + tag + ctrlNum, Kind: ctrlKind, Tech: tech, Region: region,
				Parent: msc.ID, Location: place(), ZipCode: ZipForCell(region, 10+c),
				Terrain: terrains[rng.Intn(len(terrains))], FoliageExposure: foliage(),
				Config: Config{SoftwareVersion: pick(controllerVersions), Vendor: pick(vendors), EquipmentModel: pick(models)},
			}
			n.Add(ctrl)
			for tw := 0; tw < cfg.TowersPerController; tw++ {
				loc := place()
				zipCell := 10 + c // towers share their controller's zip neighborhood
				if rng.Float64() < 0.3 {
					zipCell = 100 + rng.Intn(20)
				}
				tower := &Element{
					ID:   towerPrefix + ctrlNum + tag + strconv.Itoa(tw+1),
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
				}
				n.Add(tower)
				for cell := 0; cell < cfg.CellsPerTower; cell++ {
					n.Add(&Element{
						ID:   tower.ID + ".c" + strconv.Itoa(cell+1),
						Kind: Cell, Tech: tech, Region: region, Parent: tower.ID,
						Location: tower.Location, ZipCode: tower.ZipCode,
						Terrain: tower.Terrain, Traffic: tower.Traffic,
						FoliageExposure: tower.FoliageExposure,
						Config:          tower.Config,
					})
				}
			}
		}
	}
	addRadioTree(RNC, NodeB, UMTS, "rnc", "nb", cfg.ControllersPerRegion)
	addRadioTree(BSC, BTS, GSM, "bsc", "bts", (cfg.ControllersPerRegion+1)/2)

	// LTE eNodeBs (controller+tower in one, paper §2.1) under the MME.
	for e := 0; e < cfg.ENodeBsPerRegion; e++ {
		zipCell := 200 + e/8 // groups of eight share a zip: same-zip control groups
		enb := &Element{
			ID: "enb" + tag + strconv.Itoa(e+1), Kind: ENodeB, Tech: LTE, Region: region,
			Parent: mme.ID, Location: place(), ZipCode: ZipForCell(region, zipCell),
			Terrain:         terrains[rng.Intn(len(terrains))],
			Traffic:         profiles[rng.Intn(len(profiles))],
			FoliageExposure: foliage(),
			Config: Config{
				SoftwareVersion: pick(towerVersions), Vendor: pick(vendors), EquipmentModel: pick(models),
				AntennaTiltDeg: rng.Float64() * 8, TxPowerDBm: 43 + rng.Float64()*4,
				FrequencyMHz: 700, SONEnabled: rng.Float64() < cfg.SONFraction,
			},
		}
		n.Add(enb)
		for cell := 0; cell < cfg.CellsPerTower; cell++ {
			n.Add(&Element{
				ID:   enb.ID + ".c" + strconv.Itoa(cell+1),
				Kind: Cell, Tech: LTE, Region: region, Parent: enb.ID,
				Location: enb.Location, ZipCode: enb.ZipCode,
				Terrain: enb.Terrain, Traffic: enb.Traffic,
				FoliageExposure: enb.FoliageExposure,
				Config:          enb.Config,
			})
		}
	}
}
