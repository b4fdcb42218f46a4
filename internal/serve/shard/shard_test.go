package shard

// Ring contract tests (determinism, balance, minimal remapping on
// membership change) plus Router tests against real in-process service
// nodes: digest-stable routing with no double computation, node caches
// pooled by the ring, and owner-down failover with byte-identical
// recomputation.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"
)

func mustRing(t *testing.T, nodes []string) *Ring {
	t.Helper()
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingOwnershipDeterministic(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r1 := mustRing(t, nodes)
	r2 := mustRing(t, []string{"http://c", "http://a", "http://b"}) // order must not matter

	for i := 0; i < 500; i++ {
		key := "j" + strconv.Itoa(i)
		own := r1.Owner(key)
		if got := r2.Owner(key); got != own {
			t.Fatalf("key %s: owner depends on node order: %s vs %s", key, own, got)
		}
		seq := r1.Sequence(key)
		if len(seq) != len(nodes) {
			t.Fatalf("key %s: sequence has %d nodes, want %d", key, len(seq), len(nodes))
		}
		if seq[0] != own {
			t.Fatalf("key %s: sequence starts at %s, owner is %s", key, seq[0], own)
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("key %s: sequence repeats %s", key, n)
			}
			seen[n] = true
		}
	}

	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"x", "x"}); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r := mustRing(t, nodes)
	counts := map[string]int{}
	const keys = 10_000
	for i := 0; i < keys; i++ {
		counts[r.Owner("j"+strconv.Itoa(i))]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.1f%% of keys — outside the plausible band for %d replicas", n, share*100, DefaultReplicas)
		}
	}
}

// TestRingMinimalRemapping is the consistent-hashing contract: adding a
// node only moves keys onto the new node; no key moves between two
// surviving nodes.
func TestRingMinimalRemapping(t *testing.T) {
	old := mustRing(t, []string{"http://a", "http://b", "http://c"})
	grown := mustRing(t, []string{"http://a", "http://b", "http://c", "http://d"})
	moved := 0
	const keys = 10_000
	for i := 0; i < keys; i++ {
		key := "j" + strconv.Itoa(i)
		before, after := old.Owner(key), grown.Owner(key)
		if before != after {
			if after != "http://d" {
				t.Fatalf("key %s moved %s → %s, not onto the new node", key, before, after)
			}
			moved++
		}
	}
	// Expect ~1/4 of keys on the new node; far more would mean wholesale
	// reshuffling (the failure mode of modulo hashing).
	if moved == 0 || moved > keys/2 {
		t.Fatalf("%d/%d keys moved to the new node — want roughly a quarter", moved, keys)
	}
}

// studyElements returns distinct study groups for building requests
// with distinct digests.
func studyElements(t *testing.T, rncIdx int) []string {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) <= rncIdx {
		t.Fatalf("golden topology has %d RNCs, need > %d", len(rncs), rncIdx)
	}
	children := net.Children(rncs[rncIdx])
	if len(children) < 3 {
		t.Fatalf("RNC %d has %d children, need 3", rncIdx, len(children))
	}
	return children[:3]
}

func testRequest(t *testing.T, seed int64) *serve.AssessRequest {
	t.Helper()
	return &serve.AssessRequest{
		Topology:  &serve.TopologySpec{Seed: 17},
		Generator: &serve.GeneratorSpec{Seed: seed},
		Index:     serve.IndexSpec{Start: "2012-03-01T00:00:00Z", Step: "6h", N: 28 * 4},
		Change: serve.ChangeSpec{
			ID:          fmt.Sprintf("CHG-SHARD-%d", seed),
			Elements:    studyElements(t, 0),
			At:          "2012-03-15T00:00:00Z",
			TrueQuality: -1.5,
		},
		KPIs:       []string{"voice-retainability"},
		WindowDays: 14,
		Assessor:   &serve.AssessorSpec{Seed: 9, Iterations: 60},
	}
}

// cluster boots n real in-process service nodes, each configured by
// cfg, and a router over them.
func cluster(t *testing.T, n int, cfg serve.Config) (*Router, []*serve.Server, []*httptest.Server) {
	t.Helper()
	servers := make([]*serve.Server, n)
	https := make([]*httptest.Server, n)
	endpoints := make([]string, n)
	for i := range servers {
		s := serve.New(cfg)
		ts := httptest.NewServer(s.Handler())
		servers[i], https[i], endpoints[i] = s, ts, ts.URL
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
	}
	rt, err := NewRouter(endpoints, RouterOptions{PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return rt, servers, https
}

func doneJobs(t *testing.T, s *serve.Server) int64 {
	t.Helper()
	return nodeCounter(s, obs.Labeled(obs.MetricJobs, "status", "done"))
}

// nodeCounter reads one counter from a node's registry (0 if unset).
func nodeCounter(s *serve.Server, name string) int64 {
	v, _ := s.Registry().Snapshot()[name].(int64)
	return v
}

// TestRouterNoDoubleComputation: distinct digests spread across the
// cluster, repeated assessments of the same digest always land on the
// same node, and the cluster-wide done-job count equals the distinct
// digest count — no digest computed twice.
func TestRouterNoDoubleComputation(t *testing.T) {
	rt, servers, _ := cluster(t, 3, serve.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	seeds := []int64{7001, 7002, 7003, 7004}
	first := make(map[int64][]byte)
	for _, seed := range seeds {
		b, err := rt.Assess(ctx, testRequest(t, seed))
		if err != nil {
			t.Fatalf("assess seed %d: %v", seed, err)
		}
		first[seed] = b
	}
	// Second round: every request is a cache hit on its owner.
	for _, seed := range seeds {
		b, err := rt.Assess(ctx, testRequest(t, seed))
		if err != nil {
			t.Fatalf("re-assess seed %d: %v", seed, err)
		}
		if string(b) != string(first[seed]) {
			t.Fatalf("seed %d: repeated assessment differs", seed)
		}
	}

	var total int64
	for _, s := range servers {
		total += doneJobs(t, s)
	}
	if total != int64(len(seeds)) {
		t.Fatalf("cluster computed %d jobs for %d distinct digests — routing leaked duplicates", total, len(seeds))
	}
	if st := rt.Stats(); st.Failovers != 0 {
		t.Fatalf("unexpected failovers: %+v", st)
	}
}

// TestRingPoolsNodeCaches: routing by digest pools the nodes' result
// caches into one. Twenty-four requests, eight owned by each of three
// nodes, fit in three 16-record caches but not in one. Over two rounds
// the ring computes each request once, on its owner, and answers the
// second round from cache; a single node with the same cache evicts
// every record before its reuse and computes all 48.
func TestRingPoolsNodeCaches(t *testing.T) {
	const nodes, perNode, cacheSize = 3, 8, 16
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	twoRounds := func(rt *Router, reqs []*serve.AssessRequest) {
		t.Helper()
		first := make([][]byte, len(reqs))
		for round := 0; round < 2; round++ {
			for i, req := range reqs {
				b, err := rt.Assess(ctx, req)
				if err != nil {
					t.Fatalf("round %d, request %d: %v", round, i, err)
				}
				if round == 0 {
					first[i] = b
				} else if string(b) != string(first[i]) {
					t.Fatalf("request %d: repeat answer differs from the first", i)
				}
			}
		}
	}

	rt, servers, https := cluster(t, nodes, serve.Config{Workers: 1, CacheSize: cacheSize})
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	// Ports are random, so pick requests by owner to give each node
	// exactly its share.
	owned := make(map[string]int, nodes)
	var reqs []*serve.AssessRequest
	for seed := int64(11_000); len(reqs) < nodes*perNode; seed++ {
		req := testRequest(t, seed)
		id, err := serve.CanonicalJobID(req)
		if err != nil {
			t.Fatal(err)
		}
		if owner := rt.Ring().Owner(id); owned[owner] < perNode {
			owned[owner]++
			reqs = append(reqs, req)
		}
	}
	twoRounds(rt, reqs)
	var computed, hits int64
	for i, s := range servers {
		done := doneJobs(t, s)
		if done != perNode {
			t.Errorf("node %s computed %d jobs, want the %d it owns", https[i].URL, done, perNode)
		}
		computed += done
		hits += nodeCounter(s, obs.MetricCacheHits)
	}
	if computed != int64(len(reqs)) || hits != int64(len(reqs)) {
		t.Errorf("ring computed %d jobs with %d cache hits, want %d and %d", computed, hits, len(reqs), len(reqs))
	}
	if st := rt.Stats(); st.Failovers != 0 {
		t.Errorf("unexpected failovers: %+v", st)
	}

	one, single, _ := cluster(t, 1, serve.Config{Workers: 1, CacheSize: cacheSize})
	twoRounds(one, reqs)
	if done := doneJobs(t, single[0]); done != int64(2*len(reqs)) {
		t.Errorf("one node computed %d jobs, want %d: its cache should thrash", done, 2*len(reqs))
	}
}

// TestRouterFailover: with the owner down, the request completes on the
// next node in its sequence, byte-identical to the owner's answer.
func TestRouterFailover(t *testing.T) {
	rt, _, https := cluster(t, 3, serve.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Find a request owned by node 0, then a reference answer while the
	// cluster is whole.
	victim := https[0].URL
	var req *serve.AssessRequest
	for seed := int64(8001); ; seed++ {
		r := testRequest(t, seed)
		id, err := serve.CanonicalJobID(r)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(id) == victim {
			req = r
			break
		}
	}
	want, err := rt.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	https[0].Close() // owner goes down
	got, err := rt.Assess(ctx, req)
	if err != nil {
		t.Fatalf("assess with owner down: %v", err)
	}
	if string(got) != string(want) {
		t.Fatal("failover recomputation differs from the owner's answer")
	}
	if st := rt.Stats(); st.Failovers == 0 {
		t.Fatalf("failover not recorded: %+v", st)
	}

	// A request the victim does not own is unaffected.
	for seed := int64(9001); ; seed++ {
		r := testRequest(t, seed)
		id, err := serve.CanonicalJobID(r)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(id) != victim {
			if _, err := rt.Assess(ctx, r); err != nil {
				t.Fatalf("assess with non-owner down: %v", err)
			}
			break
		}
	}
}
