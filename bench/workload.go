package main

// Input generation. Every workload is a pure function of (name, seed,
// size): the same seed gives the same requests, in the same order, with
// the same arrival schedule. All requests share the golden request's
// shape — a 112-point 6h index from 2012-03-01, the two golden KPIs,
// 14-day windows, assessor seed 9, same-kind+same-parent controls — and
// differ only in the world seeds and the change (study towers, time,
// ground-truth quality).

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/serve"
)

var (
	indexStart  = time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	goldenAt    = time.Date(2012, 3, 15, 0, 0, 0, 0, time.UTC)
	qualities   = []float64{-1.5, -0.8, 0, 0.8}
	regionCodes = []string{"ne", "se", "we", "sw", "mw"}
)

const (
	indexPoints   = 112
	windowDays    = 14
	assessorSeed  = 9
	changeStep    = 6 * time.Hour
	towersPerRNC  = 12 // netsim.DefaultTopologyConfig
	rncsPerRegion = 4
)

// change is one change under assessment together with the world it is
// assessed in — everything the service request and the library replay
// are built from.
type change struct {
	topo, gen       int64 // topology and generator seeds, both non-zero
	assessorWorkers int   // worker pool the request asks for; 0 = GOMAXPROCS
	id              string
	study           []string
	at              time.Time
	quality         float64
}

func (c change) spec() serve.ChangeSpec {
	return serve.ChangeSpec{ID: c.id, Elements: c.study, At: c.at.Format(time.RFC3339), TrueQuality: c.quality}
}

// request is the single-change POST /v1/assess body.
func (c change) request() *serve.AssessRequest {
	return &serve.AssessRequest{
		Topology:   &serve.TopologySpec{Seed: c.topo},
		Generator:  &serve.GeneratorSpec{Seed: c.gen},
		Index:      serve.IndexSpec{Start: indexStart.Format(time.RFC3339), Step: "6h", N: indexPoints},
		Change:     c.spec(),
		KPIs:       []string{"voice-retainability", "data-accessibility"},
		WindowDays: windowDays,
		Assessor:   &serve.AssessorSpec{Seed: assessorSeed, Workers: c.assessorWorkers},
		Controls:   &serve.ControlsSpec{Predicates: []string{"same-kind", "same-parent"}},
	}
}

// batchRequest is the POST /v1/assess/batch body for changes sharing one
// world.
func batchRequest(changes []change) *serve.BatchAssessRequest {
	single := changes[0].request()
	b := &serve.BatchAssessRequest{
		Topology: single.Topology, Generator: single.Generator, Index: single.Index,
		KPIs: single.KPIs, WindowDays: single.WindowDays,
		Assessor: single.Assessor, Controls: single.Controls,
	}
	for _, c := range changes {
		b.Changes = append(b.Changes, c.spec())
	}
	return b
}

// golden is the change of testdata/golden_assessment.json.
var golden = change{
	topo: 17, gen: 23, id: "CHG-GOLD",
	study: []string{"nb1-ne-1", "nb1-ne-2", "nb1-ne-3"}, at: goldenAt, quality: -1.5,
}

// triples lists every study group of three sibling NodeBs in the default
// topology. netsim names elements by position, not by seed, so these IDs
// exist in every world without building one.
func triples() [][]string {
	var out [][]string
	for _, r := range regionCodes {
		for c := 1; c <= rncsPerRegion; c++ {
			for t := 1; t+2 <= towersPerRNC; t += 3 {
				out = append(out, []string{
					fmt.Sprintf("nb%d-%s-%d", c, r, t),
					fmt.Sprintf("nb%d-%s-%d", c, r, t+1),
					fmt.Sprintf("nb%d-%s-%d", c, r, t+2),
				})
			}
		}
	}
	return out
}

// combo is one (study, change time, quality) point of a shared world.
type combo struct {
	study   []string
	at      time.Time
	quality float64
}

// combos enumerates study × time × quality (over qs) with at least n
// points, shuffled by rng. Change times step forward from the golden time
// so the before-window always lies inside the index.
func combos(rng *rand.Rand, n int, qs []float64) []combo {
	ts := triples()
	times := (n + len(ts)*len(qs) - 1) / (len(ts) * len(qs))
	var out []combo
	for _, s := range ts {
		for k := 0; k < times; k++ {
			for _, q := range qs {
				out = append(out, combo{study: s, at: goldenAt.Add(time.Duration(k) * changeStep), quality: q})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mix is splitmix64 over (seed, salt): the derivation of every
// per-workload seed from -seed.
func mix(seed int64, salt uint64) uint64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// worldSeed returns a positive seed below 2^31 derived from (seed, salt),
// leaving room for `span` consecutive seeds above it.
func worldSeed(seed int64, salt uint64, span int) int64 {
	return 1 + int64(mix(seed, salt)%uint64(1<<31-1-span))
}

// item is one unit of client work: a single request or a batch, plus its
// open-loop due time.
type item struct {
	single *change
	batch  []change
	due    time.Duration // offset from the start of the timed phase (open loop)
}

// assessments is how many assessments the item asks for.
func (it item) assessments() int {
	if it.batch != nil {
		return len(it.batch)
	}
	return 1
}

// size scales a workload. Real runs use sizeFor; tests shrink it.
type size struct {
	items   int // requests, or batches for changelog-batch
	entries int // entries per batch
	hot     int // routed: warmed hot-set digests
	replay  int // traced run: assessments replayed through the library
	setups  int // set-up repetitions; setup_s is their median
}

// Per-second rates that make a timed phase last about -seconds on a
// 2-CPU machine today. The work is fixed by (seconds, seed), so two
// commits always do identical work.
const (
	closedPerSecond  = 220 // single requests
	batchesPerSecond = 6.5 // 100-entry batches
	routedRate       = 150 // open-loop arrivals per second
	readShare        = 0.75
)

func sizeFor(workload string, seconds int) size {
	sz := size{entries: 100, hot: 64, replay: 50, setups: 7}
	switch workload {
	case "changelog-batch":
		sz.items = int(batchesPerSecond*float64(seconds) + 0.5)
	case "routed-mixed":
		sz.items = routedRate * seconds
	default:
		sz.items = closedPerSecond * seconds
	}
	return sz
}

// workload is one generated workload: its inputs and the stack shape it
// runs against.
type workload struct {
	name    string
	clients int // closed-loop clients; 0 means open loop
	nodes   int
	workers int // serve workers per node
	journal bool
	items   []item
	warm    []change // routed: the hot set, computed during set-up
	// checks maps each item whose answer is verified to the entry checked
	// (0 for a single request): a deterministic 1-in-verifyStride sample
	// of the single requests, and one entry of every batch.
	checks map[int]int
}

// verifyStride is one over the share of single requests verified.
const verifyStride = 50

func newWorkload(name string, seed int64, sz size) (*workload, error) {
	rng := rand.New(rand.NewSource(int64(mix(seed, 3))))
	topo := worldSeed(seed, 1, sz.items)
	genSeed := worldSeed(seed, 2, sz.items)
	w := &workload{name: name, clients: 2, nodes: 1, workers: 2}
	switch name {
	case "fresh-world":
		// Unique topology and generator seed per request: every request
		// builds its own world.
		ts := triples()
		for i := 0; i < sz.items; i++ {
			c := change{
				topo: topo + int64(i), gen: genSeed + int64(i), id: fmt.Sprintf("CHG-FW-%05d", i),
				study: ts[rng.Intn(len(ts))], at: goldenAt, quality: qualities[i%len(qualities)],
			}
			w.items = append(w.items, item{single: &c})
		}
	case "shared-world":
		cs := combos(rng, sz.items, qualities)
		for i := 0; i < sz.items; i++ {
			c := change{topo: topo, gen: genSeed, id: fmt.Sprintf("CHG-SW-%05d", i), study: cs[i].study, at: cs[i].at, quality: cs[i].quality}
			w.items = append(w.items, item{single: &c})
		}
	case "changelog-batch":
		// 24 (study, time) signatures shared by every batch; a fresh
		// generator seed per batch keeps batches from hitting each
		// other's cached entries.
		const signatures = 24
		sigs := combos(rng, 2*len(triples()), []float64{0})[:signatures] // two change times
		w.clients = 1
		for b := 0; b < sz.items; b++ {
			var entries []change
			for e := 0; e < sz.entries; e++ {
				s := sigs[e%signatures]
				entries = append(entries, change{
					topo: topo, gen: genSeed + int64(b), id: fmt.Sprintf("CHG-CB-%04d-%03d", b, e),
					study: s.study, at: s.at, quality: qualities[(e/signatures)%len(qualities)],
				})
			}
			w.items = append(w.items, item{batch: entries})
		}
	case "routed-mixed":
		w.clients, w.nodes, w.workers, w.journal = 0, 3, 1, true
		cs := combos(rng, sz.hot+sz.items, qualities)
		// Routed requests ask for one assessor worker: three nodes on two
		// CPUs already compute in parallel, and a one-worker job keeps a
		// miss's latency from hinging on whether another node happens to
		// be computing at the same moment. Workers is outside the
		// canonical digest, so the answers and cache keys are unchanged.
		for i := 0; i < sz.hot; i++ {
			w.warm = append(w.warm, change{assessorWorkers: 1, topo: topo, gen: genSeed, id: fmt.Sprintf("CHG-RM-HOT-%03d", i), study: cs[i].study, at: cs[i].at, quality: cs[i].quality})
		}
		// Poisson arrivals conditioned on their count: sorted uniform times
		// over items/rate seconds. Exactly readShare of the items are
		// reads, in random order. Both keep the offered load identical
		// across seeds; only the burst pattern varies.
		span := float64(sz.items) / routedRate
		due := make([]float64, sz.items)
		for i := range due {
			due[i] = rng.Float64() * span
		}
		sort.Float64s(due)
		reads := make([]bool, sz.items)
		for i := 0; i < int(readShare*float64(sz.items)+0.5); i++ {
			reads[i] = true
		}
		rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		next := sz.hot
		for i := 0; i < sz.items; i++ {
			it := item{due: time.Duration(due[i] * float64(time.Second))}
			if reads[i] {
				c := w.warm[rng.Intn(len(w.warm))]
				it.single = &c
			} else {
				c := change{assessorWorkers: 1, topo: topo, gen: genSeed, id: fmt.Sprintf("CHG-RM-%05d", i), study: cs[next].study, at: cs[next].at, quality: cs[next].quality}
				next++
				it.single = &c
			}
			w.items = append(w.items, it)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	off := int(mix(seed, 4) % verifyStride)
	w.checks = map[int]int{}
	for i, it := range w.items {
		switch {
		case it.batch != nil:
			w.checks[i] = (off + i) % len(it.batch)
		case (i+off)%min(verifyStride, len(w.items)) == 0:
			w.checks[i] = 0
		}
	}
	return w, nil
}

// assessments is the total number of assessments the workload asks for.
func (w *workload) assessments() int {
	n := 0
	for _, it := range w.items {
		n += it.assessments()
	}
	return n
}
