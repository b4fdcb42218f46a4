package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/serve"
)

func digest(t *testing.T, c change) string {
	t.Helper()
	id, err := serve.CanonicalJobID(c.request())
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustWorkload(t *testing.T, name string, seed int64, sz size) *workload {
	t.Helper()
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, def := range workloadDefs {
		sz := size{items: 40, entries: 10, hot: 8}
		a, b := mustWorkload(t, def.name, 1, sz), mustWorkload(t, def.name, 1, sz)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 1 differ", def.name)
		}
		if c := mustWorkload(t, def.name, 2, sz); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", def.name)
		}
	}
	if _, err := newWorkload("no-such-workload", 1, size{items: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSizeForTwentySeconds(t *testing.T) {
	for name, want := range map[string]int{
		"fresh-world": 4400, "shared-world": 4400, "changelog-batch": 130, "routed-mixed": 3000,
	} {
		if got := sizeFor(name, 20).items; got != want {
			t.Errorf("%s: %d items at 20 s, want %d", name, got, want)
		}
	}
}

func TestTriplesExistInEveryWorld(t *testing.T) {
	for _, seed := range []int64{1, 17, 987654321} {
		net := netsim.Build(topology(seed))
		for _, tr := range triples() {
			for _, id := range tr {
				e := net.Element(id)
				if e == nil || e.Kind != netsim.NodeB || e.Parent != net.Element(tr[0]).Parent {
					t.Fatalf("seed %d: %s is not a NodeB sibling of %s", seed, id, tr[0])
				}
			}
		}
	}
}

func TestFreshWorldIsAllDistinct(t *testing.T) {
	w := mustWorkload(t, "fresh-world", 3, size{items: 300})
	topos, gens, digests := map[int64]bool{}, map[int64]bool{}, map[string]bool{}
	for _, it := range w.items {
		c := *it.single
		topos[c.topo], gens[c.gen], digests[digest(t, c)] = true, true, true
	}
	if len(topos) != 300 || len(gens) != 300 || len(digests) != 300 {
		t.Errorf("distinct worlds %d/%d, digests %d; want 300 each", len(topos), len(gens), len(digests))
	}
}

func TestSharedWorldIsOneWorldDistinctChanges(t *testing.T) {
	w := mustWorkload(t, "shared-world", 3, size{items: 3000})
	digests, changes := map[string]bool{}, map[string]bool{}
	for _, it := range w.items {
		c := *it.single
		if c.topo != w.items[0].single.topo || c.gen != w.items[0].single.gen {
			t.Fatalf("%s is assessed in another world", c.id)
		}
		digests[digest(t, c)] = true
		changes[strings.Join(c.study, ",")+c.at.String()+time.Duration(c.quality*1e9).String()] = true
	}
	if len(digests) != 3000 || len(changes) != 3000 {
		t.Errorf("distinct digests %d, distinct changes %d; want 3000", len(digests), len(changes))
	}
}

func TestBatchEntriesNeverRepeatAcrossBatches(t *testing.T) {
	w := mustWorkload(t, "changelog-batch", 3, size{items: 6, entries: 100})
	seen := map[string]bool{}
	for _, it := range w.items {
		sigs := map[string]bool{}
		for _, c := range it.batch {
			d := digest(t, c)
			if seen[d] {
				t.Fatalf("entry %s repeats a digest", c.id)
			}
			seen[d] = true
			sigs[strings.Join(c.study, ",")+c.at.String()] = true
		}
		if len(sigs) != 24 {
			t.Errorf("batch has %d (study, time) signatures, want 24", len(sigs))
		}
	}
}

func TestRoutedReadsAreHotAndThreeQuarters(t *testing.T) {
	w := mustWorkload(t, "routed-mixed", 3, size{items: 3000, hot: 64})
	hot := map[string]bool{}
	for _, c := range w.warm {
		hot[digest(t, c)] = true
	}
	if len(hot) != 64 {
		t.Fatalf("%d distinct hot digests, want 64", len(hot))
	}
	reads, misses := 0, map[string]bool{}
	var last time.Duration
	for _, it := range w.items {
		if it.due < last {
			t.Fatal("arrival schedule goes back in time")
		}
		last = it.due
		switch d := digest(t, *it.single); {
		case hot[d]:
			reads++
		case misses[d]:
			t.Fatalf("write %s repeats a digest", it.single.id)
		default:
			misses[d] = true
		}
	}
	if reads != 2250 {
		t.Errorf("%d reads of 3000, want 2250", reads)
	}
	if rate := 3000 / last.Seconds(); rate < 149 || rate > 151 {
		t.Errorf("arrival rate %.1f/s, want %d", rate, routedRate)
	}
}

func TestVerificationSampleIsOneInFiftyAndOneEntryPerBatch(t *testing.T) {
	w := mustWorkload(t, "shared-world", 4, size{items: 3000})
	if len(w.checks) != 3000/verifyStride {
		t.Errorf("%d single requests verified, want %d", len(w.checks), 3000/verifyStride)
	}
	w = mustWorkload(t, "changelog-batch", 4, size{items: 30, entries: 100})
	if len(w.checks) != 30 {
		t.Fatalf("%d of 30 batches verified", len(w.checks))
	}
	entries := map[int]bool{}
	for i, e := range w.checks {
		if e < 0 || e >= len(w.items[i].batch) {
			t.Fatalf("batch %d: entry %d out of range", i, e)
		}
		entries[e] = true
	}
	if len(entries) != 30 {
		t.Errorf("batches verify %d distinct entry positions, want 30", len(entries))
	}
}

func TestPercentileNearestRankWithTenBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true},
		{100, 0.91, 91, false}, // only 9 samples beyond
		{100, 0.99, 99, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(xs[:c.n], c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d p=%v: got (%v, %v), want (%v, %v)", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// root 0–100: children a 10–40 and b 30–60 overlap (50 ms covered),
	// c 90–120 runs past the root (10 ms inside it). a has a grandchild
	// 15–25.
	tree := traceNode{Name: "root", Start: at(0), DurationMs: 100, Children: []traceNode{
		{Name: "a", Start: at(10), DurationMs: 30, Children: []traceNode{{Name: "g", Start: at(15), DurationMs: 10}}},
		{Name: "b", Start: at(30), DurationMs: 30},
		{Name: "c", Start: at(90), DurationMs: 30},
	}}
	if got := selfMs(tree); math.Abs(got-40) > 1e-9 {
		t.Errorf("root self time %v ms, want 40", got)
	}
	into := map[string]float64{}
	addSelfTimes(tree, into)
	want := map[string]float64{"root": 40, "a": 20, "g": 10, "b": 30, "c": 30}
	for name, v := range want {
		if math.Abs(into[name]-v) > 1e-9 {
			t.Errorf("%s self time %v ms, want %v", name, into[name], v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.4, 7.7, 2.2, 9.0, 5.5, 1.3}, 1.3, 7.7},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParsePromSumsSeriesWithSpacedLabels(t *testing.T) {
	text := `# HELP litmus_http_requests_total Requests.
# TYPE litmus_http_requests_total counter
litmus_http_requests_total{code="200",path="GET /v1/jobs/{id}/trace"} 4
litmus_http_requests_total{code="202",path="POST /v1/assess"} 7
litmus_cache_hits_total 3
`
	before, after := map[string]float64{}, map[string]float64{}
	if err := parseProm(strings.NewReader(text), after); err != nil {
		t.Fatal(err)
	}
	if err := parseProm(strings.NewReader("litmus_cache_hits_total 1\n"), before); err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, "litmus_cache_hits_total", nil); d != 2 {
		t.Errorf("cache hit delta %v, want 2", d)
	}
	noTrace := func(s string) bool { return !strings.Contains(s, "/trace") }
	if d := delta(before, after, "litmus_http_requests_total", noTrace); d != 7 {
		t.Errorf("request delta %v, want 7", d)
	}
	if err := parseProm(strings.NewReader("garbage\n"), after); err == nil {
		t.Error("malformed exposition accepted")
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, catalogue has %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: %+v, catalogue %+v", i, w, workloadDefs[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics, catalogue has %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, catalogue %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, catalogue %+v", i, m, d)
		}
	}
}

// tinyOptions runs a workload at a size that finishes in about a second.
func tinyOptions(t *testing.T, name string) options {
	sz := size{items: 8, entries: 6, hot: 4, replay: 2, setups: 2}
	if name == "routed-mixed" {
		sz.items = 40
	}
	dir := t.TempDir()
	return options{
		workload: name, seed: 5, trace: true, size: sz,
		golden:   filepath.Join("..", "testdata", "golden_assessment.json"),
		traceOut: filepath.Join(dir, "trace.json"), tmp: dir,
	}
}

func TestSmokeEveryWorkloadTraced(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			opts := tinyOptions(t, def.name)
			res, rep, err := runWorkload(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			if v := rep.values["verified"].Value; v < 1 {
				t.Errorf("verified %v answers, want at least one", v)
			}
			for _, d := range perLayer {
				if strings.Contains(d.name, "latency_p") {
					continue // a percentile needs 10 samples beyond it; a tiny run has fewer
				}
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("per-layer %s = %+v (present %v)", d.name, v, ok)
				}
			}
			for _, name := range []string{"setup_s", "assess_per_s", "cpu_ms_per_assessment", "alloc_kb_per_assessment", "peak_rss_mb"} {
				if v := rep.values[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			hit := res.Metrics["serve.cache_hit_ratio"].Value
			if routed := def.name == "routed-mixed"; routed != (hit > 0.5) || (!routed && hit != 0) {
				t.Errorf("cache hit ratio %v", hit)
			}
			if _, err := os.Stat(opts.traceOut); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func TestVerificationCatchesAFlippedByte(t *testing.T) {
	opts := tinyOptions(t, "fresh-world")
	opts.trace = false
	opts.corrupt = func(i int, body []byte) { body[len(body)/2] ^= 1 }
	res, rep, err := runWorkload(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || rep.values["wrong_results"].Value < 1 {
		t.Errorf("flipped answers passed verification: %+v", res)
	}

	golden, err := os.ReadFile(opts.golden)
	if err != nil {
		t.Fatal(err)
	}
	golden[len(golden)/2] ^= 1
	opts.corrupt = nil
	opts.golden = filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(opts.golden, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, _, err = runWorkload(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a golden answer differing from the fixture passed verification")
	}
}
