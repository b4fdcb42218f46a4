package serve

// Tests of the process-wide world slot (world.go): the golden request
// reproduces the committed fixture on a cold, a warm and a replaced
// slot; a single job and a batch entry on one warm world return the same
// bytes; concurrent jobs in one world equal their changes assessed in
// worlds built from scratch; and the slot retains one world at a time.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/obs"

	litmus "repro"
)

// resetWorldSlot empties the process-wide slot, so a test starts cold.
func resetWorldSlot() {
	slot.mu.Lock()
	slot.w = nil
	slot.mu.Unlock()
}

func residentWorld() *world {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.w
}

// goldenWorldChange returns a request for change i in the golden world:
// the golden study (even i) or a disjoint one (odd i), a change time
// 6 h × i after the golden one, and a rotating true quality.
func goldenWorldChange(t *testing.T, i int) *AssessRequest {
	t.Helper()
	req := goldenRequest(t)
	req.Change.ID = fmt.Sprintf("CHG-WORLD-%d", i)
	req.Change.At = fmt.Sprintf("2012-03-%02dT%02d:00:00Z", 15+i/4, 6*(i%4))
	req.Change.TrueQuality = []float64{-1.5, -0.8, 0, 0.8}[i%4]
	if i%2 == 1 {
		req.Change.Elements = otherStudyElements(t)
	}
	return req
}

// assessBytes runs req to completion on ts and returns its result bytes.
func assessBytes(t *testing.T, ts *httptest.Server, req *AssessRequest) []byte {
	t.Helper()
	sub, _ := submit(t, ts, req)
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("job %s finished %s: %s", sub.ID, st.Status, st.Error)
	}
	raw, code := fetchResult(t, ts, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("result of job %s: status %d", sub.ID, code)
	}
	return raw
}

// scratchAssessment assesses req in a world built for it alone, where
// one generator carrying the change's effect serves every element. The
// slot must reproduce these bytes.
func scratchAssessment(t *testing.T, req *AssessRequest) []byte {
	t.Helper()
	c, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	change, err := c.buildChange()
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.Build(c.topo)
	gcfg := gen.DefaultConfig(c.index)
	gcfg.Seed = c.genSeed
	gcfg.Effects = []gen.Effect{change.Effect(net)}
	g := gen.New(net, gcfg)
	p, err := c.pipeline(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Provider = litmus.ProviderFunc(func(id string, m kpi.KPI) (litmus.Series, bool) {
		if net.Element(id) == nil {
			return litmus.Series{}, false
		}
		return g.Series(id, m), true
	})
	res, err := p.AssessChange(change, c.kpis, c.window)
	if err != nil {
		t.Fatal(err)
	}
	b, err := litmus.MarshalAssessment(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorldSlotGolden: the golden request reproduces the committed
// fixture on a cold slot, on a slot warmed by another change in the same
// world, and after another world replaced the slot. Each phase has its
// own server, so the golden job is computed rather than answered from a
// result cache; the slot outlives servers.
func TestWorldSlotGolden(t *testing.T) {
	want := goldenFixture(t)
	resetWorldSlot()
	for _, phase := range []struct {
		name         string
		before       *AssessRequest // run first on the phase's server
		hits, misses int64          // the server's world-slot counters at the end
	}{
		{"cold", nil, 0, 1},
		{"warm", goldenWorldChange(t, 1), 2, 0},
		{"replaced", requestWithSeed(t, 7301), 0, 2},
	} {
		s, ts := newTestServer(t, Config{})
		if phase.before != nil {
			assessBytes(t, ts, phase.before)
		}
		if got := append(assessBytes(t, ts, goldenRequest(t)), '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s slot: golden result differs from the fixture:\n%s", phase.name, got)
		}
		hits := counterValue(t, s.Registry(), obs.MetricWorldCacheHits)
		misses := counterValue(t, s.Registry(), obs.MetricWorldCacheMisses)
		if hits != phase.hits || misses != phase.misses {
			t.Errorf("%s slot: world hits/misses = %d/%d, want %d/%d", phase.name, hits, misses, phase.hits, phase.misses)
		}
	}
}

// TestWorldSlotSingleAndBatchAgree: on a warm slot, a single job and a
// batch entry for the same change return identical bytes, equal to the
// change assessed in a world built from scratch.
func TestWorldSlotSingleAndBatchAgree(t *testing.T) {
	_, tsWarm := newTestServer(t, Config{})
	assessBytes(t, tsWarm, goldenRequest(t))

	req := goldenWorldChange(t, 3)
	_, tsSingle := newTestServer(t, Config{})
	single := assessBytes(t, tsSingle, req)

	_, tsBatch := newTestServer(t, Config{})
	sub, _ := submitBatch(t, tsBatch, goldenBatchRequest(t, []ChangeSpec{req.Change}))
	if st := waitDone(t, tsBatch, sub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", st.Status, st.Error)
	}
	// The batch cached its entry under the single job's digest.
	hit, resp := submit(t, tsBatch, req)
	if resp.StatusCode != http.StatusOK || !hit.Cached {
		t.Fatalf("single after batch: status %d cached %v, want a 200 cache hit", resp.StatusCode, hit.Cached)
	}
	entry, code := fetchResult(t, tsBatch, hit.ID)
	if code != http.StatusOK {
		t.Fatalf("batch entry result: status %d", code)
	}
	if !bytes.Equal(entry, single) {
		t.Errorf("batch entry differs from the single job:\nbatch:\n%s\nsingle:\n%s", entry, single)
	}
	if want := scratchAssessment(t, req); !bytes.Equal(single, want) {
		t.Errorf("warm-slot result differs from a world built from scratch:\ngot:\n%s\nwant:\n%s", single, want)
	}
}

// TestWorldSlotConcurrentJobs: eight jobs in one world run on four serve
// workers at once, sharing the world's network, base generator and
// series memo (and racing to build it on the cold slot); each answer
// equals its change assessed in a world built from scratch. Run it under
// -race.
func TestWorldSlotConcurrentJobs(t *testing.T) {
	resetWorldSlot()
	_, ts := newTestServer(t, Config{Workers: 4})
	reqs := make([]*AssessRequest, 8)
	ids := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = goldenWorldChange(t, i)
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

// TestWorldSlotHoldsOneWorld: the key is canonical — another change in
// the same world, in other notation, shares the resident world — and a
// second key replaces the slot, so the first world is no longer retained.
func TestWorldSlotHoldsOneWorld(t *testing.T) {
	resetWorldSlot()
	compiled := func(req *AssessRequest) *compiledRequest {
		t.Helper()
		c, err := compile(req)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	first, hit := lookupWorld(compiled(goldenRequest(t)))
	if hit {
		t.Error("cold slot reported a hit")
	}
	same := goldenWorldChange(t, 1)
	same.Index.Start = "2012-03-01T02:00:00+02:00"
	same.Topology = &TopologySpec{Seed: 17, CellsPerTower: netsim.DefaultTopologyConfig().CellsPerTower}
	if w, hit := lookupWorld(compiled(same)); !hit || w != first {
		t.Error("another change in the same world did not share the resident world")
	}
	second, hit := lookupWorld(compiled(requestWithSeed(t, 7401)))
	if hit || second == first {
		t.Error("a second world key did not build its own world")
	}
	if residentWorld() != second {
		t.Error("the second world did not replace the slot")
	}
	if w, hit := lookupWorld(compiled(goldenRequest(t))); hit || w == first {
		t.Error("the replaced world is still retained")
	}
}
