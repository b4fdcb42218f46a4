package serve

// Tests of the study-series buffers (world.go): the free list's bound and
// choice of buffer, what a warm world's provider allocates, and, with
// every released buffer NaN-filled, that no answer reads a buffer after
// its job released it: the golden request on a batch's buffer, a batch
// against single submissions, and concurrent jobs against worlds built
// from scratch. The studies overlap, so a study series that leaked into
// the world memo would be read as another change's control.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"

	litmus "repro"
)

// forgetStudyBufs empties the process-wide free list.
func forgetStudyBufs() {
	studyBufs.mu.Lock()
	studyBufs.free, studyBufs.bytes = nil, 0
	studyBufs.mu.Unlock()
}

// studyBufCaps lists the capacities of the listed buffers, ascending.
func studyBufCaps() []int {
	studyBufs.mu.Lock()
	defer studyBufs.mu.Unlock()
	var caps []int
	for _, b := range studyBufs.free {
		caps = append(caps, cap(b))
	}
	slices.Sort(caps)
	return caps
}

// poisonedServer starts a server whose jobs NaN-fill their study-series
// buffer as they release it, on an empty free list.
func poisonedServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	forgetStudyBufs()
	t.Cleanup(forgetStudyBufs)
	s := newServer(cfg)
	s.testReleaseStudy = func(b []float64) {
		for i := range b {
			b[i] = math.NaN()
		}
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts
}

// overlapRequest returns change i in the golden world, on towers
// [k, k+3) of the golden RNC's twelve for the i-th start k, so the
// studies overlap each other's control groups (the RNC's other towers).
func overlapRequest(t *testing.T, towers []string, i int) *AssessRequest {
	t.Helper()
	k := []int{0, 3, 6, 9, 1, 4, 7, 2}[i%8]
	req := goldenRequest(t)
	req.Change.ID = fmt.Sprintf("CHG-OVERLAP-%d", i)
	req.Change.Elements = towers[k : k+3]
	req.Change.At = fmt.Sprintf("2012-03-%02dT%02d:00:00Z", 15+i/4, 6*(i%4))
	req.Change.TrueQuality = []float64{-1.5, 0, 0.8, -0.8}[i%4]
	return req
}

// goldenTowers returns the twelve towers of the golden topology's first
// RNC, the first three of which are the golden study.
func goldenTowers(t *testing.T) []string {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	towers := net.Children(net.OfKind(netsim.RNC)[0])
	if len(towers) < 12 {
		t.Fatalf("golden RNC has %d towers, need 12", len(towers))
	}
	return towers
}

// TestPoolStudyBufBound pins the free list: a job takes the smallest
// listed buffer that holds its study series, or allocates exactly its
// need; a buffer over the 1 MiB bound, or one the list has no room
// left for, is dropped, so the list never holds more than the bound.
func TestPoolStudyBufBound(t *testing.T) {
	forgetStudyBufs()
	t.Cleanup(forgetStudyBufs)
	const bound = studyBufBytes / 8 // values
	check := func(step string, want ...int) {
		t.Helper()
		got := studyBufCaps()
		total := 0
		for _, c := range got {
			total += 8 * c
		}
		if !slices.Equal(got, want) || total > studyBufBytes {
			t.Fatalf("%s: list holds %v (%d B), want %v", step, got, total, want)
		}
	}
	if b := takeStudyBuf(0); b != nil {
		t.Fatalf("an empty need took %d values", cap(b))
	}
	a := takeStudyBuf(100)
	if len(a) != 100 || cap(a) != 100 {
		t.Fatalf("a new buffer has len %d cap %d, want exactly 100", len(a), cap(a))
	}
	releaseStudyBuf(a)
	check("release", 100)
	b := takeStudyBuf(60)
	if len(b) != 60 || &b[0] != &a[0] {
		t.Fatal("a smaller need did not reuse the listed buffer")
	}
	c := takeStudyBuf(80)
	if cap(c) != 80 {
		t.Fatalf("a need with nothing listed got cap %d, want exactly 80", cap(c))
	}
	releaseStudyBuf(c)
	releaseStudyBuf(b)
	check("two releases", 80, 100)
	if d := takeStudyBuf(70); cap(d) != 80 {
		t.Fatalf("need 70 took cap %d, want the best fit 80", cap(d))
	} else {
		releaseStudyBuf(d)
	}
	big := takeStudyBuf(bound + 1)
	if cap(big) != bound+1 {
		t.Fatalf("a need over the bound got cap %d, want exactly %d", cap(big), bound+1)
	}
	releaseStudyBuf(big)
	check("over the bound", 80, 100)
	half, other := takeStudyBuf(bound/2), takeStudyBuf(bound/2)
	releaseStudyBuf(half)
	check("half the bound", 80, 100, bound/2)
	releaseStudyBuf(other)
	check("no room left", 80, 100, bound/2)
}

// providerSink makes each provider TestProviderBytes builds escape to the
// heap, as execute's do.
var providerSink litmus.SeriesProvider

// TestProviderBytes pins what a warm world's provider allocates to serve
// the golden change's three study elements for both KPIs, drawing them
// into a listed buffer: the change's effect, the provider, its generator
// derived with the world's regional paths, and the draws' bookkeeping,
// but no series values, no memo map and no regional path. It reads
// 1,099 B; a provider with a generator of its own, a memo map and fresh
// series read 8,736 B.
func TestProviderBytes(t *testing.T) {
	forgetStudyBufs()
	t.Cleanup(forgetStudyBufs)
	resetWorldSlot()
	c, err := compile(goldenRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorld(c)
	change, err := c.buildChange()
	if err != nil {
		t.Fatal(err)
	}
	// The base draws a control beside the study, and with it the region.
	w.baseSeries(goldenTowers(t)[5], c.kpis[0], c.kpis)
	need := len(change.Elements) * len(c.kpis) * w.ix.N
	serve := func() {
		buf := takeStudyBuf(need)
		p := w.provider(change, c.kpis, buf)
		for _, id := range change.Elements {
			for _, k := range c.kpis {
				if _, ok := p.Series(id, k); !ok {
					t.Fatalf("no series for %s %v", id, k)
				}
			}
		}
		providerSink = p
		releaseStudyBuf(buf)
	}
	serve() // lists the buffer
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("provider: %d B for %d study elements × %d KPIs", per, len(change.Elements), len(c.kpis))
	if per > 1376 {
		t.Errorf("the provider allocates %d B, want at most 1376", per)
	}
}

// TestPoolStudyBufferGoldenAfterBatch: a batch on another world leaves
// its poisoned buffer on the list, the golden request takes it, and its
// answer is still the committed fixture.
func TestPoolStudyBufferGoldenAfterBatch(t *testing.T) {
	ts := poisonedServer(t, Config{})
	towers := goldenTowers(t)
	var changes []ChangeSpec
	for i := 0; i < 6; i++ {
		changes = append(changes, overlapRequest(t, towers, i).Change)
	}
	batch := goldenBatchRequest(t, changes)
	batch.Generator = &GeneratorSpec{Seed: 7501}
	sub, _ := submitBatch(t, ts, batch)
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", st.Status, st.Error)
	}
	listed := studyBufCaps()
	if want := len(changes) * 3 * 2 * goldenRequest(t).Index.N; !slices.Equal(listed, []int{want}) {
		t.Fatalf("after the batch the list holds %v, want its one buffer of %d values", listed, want)
	}
	if got := append(assessBytes(t, ts, goldenRequest(t)), '\n'); !bytes.Equal(got, goldenFixture(t)) {
		t.Errorf("golden result on a batch's released buffer differs from the fixture:\n%s", got)
	}
	if after := studyBufCaps(); !slices.Equal(after, listed) {
		t.Errorf("after the golden job the list holds %v, want the batch's buffer %v back", after, listed)
	}
}

// TestPoolStudyBufferBatchMatchesSingles: each entry of a batch on
// overlapping studies equals its change submitted alone afterwards in
// the same world, byte for byte, with every released buffer poisoned.
func TestPoolStudyBufferBatchMatchesSingles(t *testing.T) {
	resetWorldSlot()
	tsBatch := poisonedServer(t, Config{})
	tsSingle := poisonedServer(t, Config{})
	towers := goldenTowers(t)
	reqs := make([]*AssessRequest, 8)
	changes := make([]ChangeSpec, len(reqs))
	for i := range reqs {
		reqs[i] = overlapRequest(t, towers, i)
		changes[i] = reqs[i].Change
	}
	sub, _ := submitBatch(t, tsBatch, goldenBatchRequest(t, changes))
	if st := waitDone(t, tsBatch, sub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", st.Status, st.Error)
	}
	doc := fetchBatchResult(t, tsBatch, sub.ID)
	for i, req := range reqs {
		if e := doc.Entries[i]; e.Error != "" {
			t.Fatalf("entry %d failed: %s", i, e.Error)
		}
		single := compactJSON(t, assessBytes(t, tsSingle, req))
		if !bytes.Equal(doc.Entries[i].Assessment, single) {
			t.Errorf("entry %d differs from its single submission:\nbatch:\n%s\nsingle:\n%s", i, doc.Entries[i].Assessment, single)
		}
	}
}

// TestPoolStudyBufferConcurrentJobs: eight jobs on overlapping studies in
// one world run on four serve workers at once, taking and releasing
// poisoned buffers as they go; each answer equals its change assessed in
// a world built from scratch. Run it under -race.
func TestPoolStudyBufferConcurrentJobs(t *testing.T) {
	resetWorldSlot()
	ts := poisonedServer(t, Config{Workers: 4})
	towers := goldenTowers(t)
	reqs := make([]*AssessRequest, 8)
	ids := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = overlapRequest(t, towers, i)
		sub, _ := submit(t, ts, reqs[i])
		ids[i] = sub.ID
	}
	for i, id := range ids {
		if st := waitDone(t, ts, id); st.Status != stateDone {
			t.Fatalf("job %d finished %s: %s", i, st.Status, st.Error)
		}
		got, _ := fetchResult(t, ts, id)
		if want := scratchAssessment(t, reqs[i]); !bytes.Equal(got, want) {
			t.Errorf("job %d differs from its change in a world built from scratch", i)
		}
	}
}
