package shard

// Cluster chaos suite: three real in-process service nodes, each
// fronted by a deterministic netchaos TCP proxy, driven through the
// resilient Router while fault episodes — added latency, slow-drip
// bodies, mid-body resets, stalls, full partitions, and an outright
// node kill — are applied link by link. The invariants:
//
//   - Every completed request's answer is byte-identical to the
//     clean-cluster answer (the determinism contract end to end).
//   - Zero requests are lost while any single node is stalled,
//     partitioned, reset, or killed.
//   - Breaker / hedge / failover counters are consistent with the
//     faults applied.
//   - With a slow node, hedging bounds tail latency: the hedged
//     router's p99 beats the unhedged router's by a wide margin.
//   - The netchaos schedule each proxy realized is exactly what
//     Spec.ScheduleFor recomputes from (spec, seed, link) — the fault
//     sequence is reproducible byte-for-byte.
//
// Gated behind LITMUS_CLUSTER_CHAOS=1 (it boots a cluster and runs for
// a couple of minutes); run via `make chaos-cluster` or directly:
//
//	LITMUS_CLUSTER_CHAOS=1 go test -race -run TestClusterChaos ./internal/serve/shard
//
// With LITMUS_CLUSTER_CHAOS_OUT set to a path, the suite writes its
// per-scenario stats artifact there (make chaos-cluster writes
// out/CHAOS_CLUSTER.json, which CI uploads); unset, it writes nothing.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/netchaos"
	"repro/internal/serve"
)

const chaosSeedBase = 40_001

// chaosScenario is one fault episode: specs per node index (missing
// index = clean link), the seeds to drive, plus the counters the
// episode must move.
type chaosScenario struct {
	name          string
	specs         map[int]string // node index → netchaos spec
	killNode      int            // -1, or the node whose backend is closed
	drive         []int64        // request seeds for this episode
	wantFailovers bool
	wantSkips     bool
}

// chaosScenarioStats is one row of the CHAOS_CLUSTER.json artifact.
type chaosScenarioStats struct {
	Name               string            `json:"name"`
	Specs              map[string]string `json:"specs,omitempty"`
	Requests           int               `json:"requests"`
	Failures           int               `json:"failures"`
	ByteIdentical      bool              `json:"byte_identical"`
	P50Ms              float64           `json:"p50_ms"`
	P99Ms              float64           `json:"p99_ms"`
	Failovers          int64             `json:"failovers"`
	BreakerSkips       int64             `json:"breaker_skips"`
	BreakerTransitions int64             `json:"breaker_transitions"`
}

type chaosReport struct {
	Nodes     int                  `json:"nodes"`
	Requests  int                  `json:"requests_per_scenario"`
	Scenarios []chaosScenarioStats `json:"scenarios"`
	Hedge     struct {
		Requests      int     `json:"requests"`
		UnhedgedP99Ms float64 `json:"unhedged_p99_ms"`
		HedgedP99Ms   float64 `json:"hedged_p99_ms"`
		Hedges        int64   `json:"hedges"`
		HedgeWins     int64   `json:"hedge_wins"`
	} `json:"hedge_comparison"`
	ScheduleReproducible bool              `json:"schedule_reproducible"`
	LinkConns            map[string]uint64 `json:"link_conns"`
}

func quantileMs(durations []time.Duration, q float64) float64 {
	if len(durations) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(float64(len(sorted))*q+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func TestClusterChaos(t *testing.T) {
	if os.Getenv("LITMUS_CLUSTER_CHAOS") == "" {
		t.Skip("cluster chaos suite disabled; set LITMUS_CLUSTER_CHAOS=1 (or run `make chaos-cluster`)")
	}
	const nodes = 3
	const requestsPerScenario = 8

	// Boot the cluster: real service nodes, each behind its own
	// client→node proxy; the routers only ever see the proxy URLs.
	servers := make([]*serve.Server, nodes)
	backends := make([]*httptest.Server, nodes)
	proxies := make([]*netchaos.Proxy, nodes)
	endpoints := make([]string, nodes)
	for i := range servers {
		s := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		px, err := netchaos.NewProxy("client", fmt.Sprintf("n%d", i), ts.Listener.Addr().String(), nil, int64(900+i))
		if err != nil {
			t.Fatal(err)
		}
		servers[i], backends[i], proxies[i], endpoints[i] = s, ts, px, px.URL()
		t.Cleanup(func() {
			px.Close()
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
	}

	// Keep-alives off so every request dials through its proxy and is
	// subject to that connection's fault draw.
	httpc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	rt, err := NewRouter(endpoints, RouterOptions{
		HTTPClient:       httpc,
		PollInterval:     2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  250 * time.Millisecond,
		AttemptTimeout:   1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hedged, err := NewRouter(endpoints, RouterOptions{
		HTTPClient:       httpc,
		PollInterval:     2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  250 * time.Millisecond,
		AttemptTimeout:   5 * time.Second,
		Hedge:            true,
		HedgeMinDelay:    25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// Seed sets: a mixed set spread across the ring, plus one set per
	// node holding seeds that node owns — single-node fault scenarios
	// drive the faulted node's own keys so the fault is actually on the
	// request path, not dodged by ring luck.
	seeds := make([]int64, requestsPerScenario)
	for i := range seeds {
		seeds[i] = chaosSeedBase + int64(i)
	}
	owned := make([][]int64, nodes)
	for seed := int64(chaosSeedBase + 100); ; seed++ {
		req := testRequest(t, seed)
		id, err := serve.CanonicalJobID(req)
		if err != nil {
			t.Fatal(err)
		}
		full := true
		for i, ep := range endpoints {
			if rt.Ring().Owner(id) == ep && len(owned[i]) < requestsPerScenario {
				owned[i] = append(owned[i], seed)
			}
			full = full && len(owned[i]) == requestsPerScenario
		}
		if full {
			break
		}
	}
	// Reference answers from the clean cluster — every later scenario's
	// completed requests must reproduce these bytes exactly.
	ref := make(map[int64][]byte)
	for _, set := range append([][]int64{seeds}, owned...) {
		for _, seed := range set {
			b, err := rt.Assess(ctx, testRequest(t, seed))
			if err != nil {
				t.Fatalf("reference assess seed %d: %v", seed, err)
			}
			ref[seed] = b
		}
	}

	heal := func() {
		for _, px := range proxies {
			px.SetSpec(nil)
		}
		// Drive traffic until every circuit has re-closed via its
		// half-open probe, so scenarios start from a healthy cluster.
		// Each node's own keys are driven too: only a request whose
		// sequence starts at a node probes that node's circuit, and the
		// ring (placed by the proxies' random ports) may give a node
		// none of the mixed seeds.
		deadline := time.Now().Add(30 * time.Second)
		for len(rt.Stats().BreakerOpen) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("cluster never healed between scenarios: %+v", rt.Stats())
			}
			for _, seed := range seeds {
				_, _ = rt.Assess(ctx, testRequest(t, seed))
			}
			for _, set := range owned {
				_, _ = rt.Assess(ctx, testRequest(t, set[0]))
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	mustSpec := func(s string) *netchaos.Spec {
		spec, err := netchaos.ParseSpec(s)
		if err != nil {
			t.Fatalf("spec %q: %v", s, err)
		}
		return spec
	}

	// join concatenates seed sets; fault scenarios drive the faulted
	// node's own keys (twice, for the probabilistic reset family — a
	// drawn reset only tears responses longer than its prefix) plus the
	// mixed set so healthy links stay under traffic too.
	join := func(sets ...[]int64) []int64 {
		var out []int64
		for _, s := range sets {
			out = append(out, s...)
		}
		return out
	}
	scenarios := []chaosScenario{
		{name: "clean", killNode: -1, drive: seeds},
		{name: "latency-all", killNode: -1, drive: seeds, specs: map[int]string{
			0: "latency=25ms,jitter=15ms", 1: "latency=25ms,jitter=15ms", 2: "latency=25ms,jitter=15ms"}},
		{name: "drip-all", killNode: -1, drive: seeds, specs: map[int]string{0: "drip=0.7", 1: "drip=0.7", 2: "drip=0.7"}},
		{name: "reset-one", killNode: -1, drive: join(owned[0], owned[0]),
			specs: map[int]string{0: "reset=0.9"}, wantFailovers: true},
		{name: "stall-one", killNode: -1, drive: join(owned[1], seeds),
			specs: map[int]string{1: "stall=1"}, wantFailovers: true, wantSkips: true},
		{name: "partition-one", killNode: -1, drive: join(owned[2], seeds),
			specs: map[int]string{2: "partition=client->n2"}, wantFailovers: true, wantSkips: true},
		{name: "stacked", killNode: -1, drive: join(owned[1], owned[1], seeds),
			specs: map[int]string{0: "latency=20ms,drip=0.5", 1: "reset=0.8,latency=10ms"}, wantFailovers: true},
		// Kill last: node 0's backend goes away entirely, the proxy's
		// upstream dials fail fast, and the ring walks past it.
		{name: "kill-one", killNode: 0, drive: join(owned[0], seeds), wantFailovers: true},
	}

	report := chaosReport{Nodes: nodes, Requests: requestsPerScenario}
	for _, sc := range scenarios {
		heal()
		for i, spec := range sc.specs {
			proxies[i].SetSpec(mustSpec(spec))
		}
		if sc.killNode >= 0 {
			backends[sc.killNode].Close()
		}

		before := rt.Stats()
		var latencies []time.Duration
		failures, identical := 0, true
		for _, seed := range sc.drive {
			t0 := time.Now()
			b, err := rt.Assess(ctx, testRequest(t, seed))
			if err != nil {
				failures++
				t.Errorf("%s: assess seed %d failed: %v", sc.name, seed, err)
				continue
			}
			latencies = append(latencies, time.Since(t0))
			if string(b) != string(ref[seed]) {
				identical = false
				t.Errorf("%s: seed %d answer differs from the clean-cluster answer", sc.name, seed)
			}
		}
		after := rt.Stats()

		st := chaosScenarioStats{
			Name:               sc.name,
			Requests:           len(sc.drive),
			Failures:           failures,
			ByteIdentical:      identical,
			P50Ms:              quantileMs(latencies, 0.50),
			P99Ms:              quantileMs(latencies, 0.99),
			Failovers:          after.Failovers - before.Failovers,
			BreakerSkips:       after.BreakerSkips - before.BreakerSkips,
			BreakerTransitions: after.BreakerTransitions - before.BreakerTransitions,
		}
		if len(sc.specs) > 0 {
			st.Specs = make(map[string]string, len(sc.specs))
			for i, spec := range sc.specs {
				st.Specs[fmt.Sprintf("n%d", i)] = spec
			}
		}
		report.Scenarios = append(report.Scenarios, st)

		if failures > 0 {
			t.Errorf("%s: %d/%d requests lost — the suite requires zero", sc.name, failures, len(sc.drive))
		}
		if sc.wantFailovers && st.Failovers == 0 {
			t.Errorf("%s: no failovers recorded despite a faulted owner", sc.name)
		}
		if sc.wantSkips && st.BreakerSkips == 0 {
			t.Errorf("%s: breaker never skipped the dead node — every request paid the timeout", sc.name)
		}
		if sc.name == "clean" && (st.Failovers != 0 || st.BreakerTransitions != 0) {
			t.Errorf("clean: proxies are not transparent: %+v", st)
		}
		t.Logf("%-14s p50=%6.1fms p99=%7.1fms failovers=%d skips=%d transitions=%d",
			sc.name, st.P50Ms, st.P99Ms, st.Failovers, st.BreakerSkips, st.BreakerTransitions)
	}

	// Hedging bounds the tail. Node 1 still lives (node 0 was killed):
	// slow its link hard and drive requests it owns — unhedged first,
	// then hedged; the hedged router must beat the unhedged p99 by a
	// wide margin, with its wins on the books.
	for _, px := range proxies {
		px.SetSpec(nil)
	}
	var slowSeeds []int64
	for seed := int64(chaosSeedBase + 1000); len(slowSeeds) < 6; seed++ {
		req := testRequest(t, seed)
		id, err := serve.CanonicalJobID(req)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(id) == endpoints[1] {
			slowSeeds = append(slowSeeds, seed)
		}
	}
	// Warm every answer on the clean cluster so both measured passes
	// serve from cache and the comparison isolates routing latency.
	slowRef := make(map[int64][]byte, len(slowSeeds))
	for _, seed := range slowSeeds {
		b, err := rt.Assess(ctx, testRequest(t, seed))
		if err != nil {
			t.Fatalf("hedge warmup seed %d: %v", seed, err)
		}
		slowRef[seed] = b
	}
	proxies[1].SetSpec(mustSpec("latency=150ms"))
	var unhedgedLat, hedgedLat []time.Duration
	for _, seed := range slowSeeds {
		t0 := time.Now()
		b, err := rt.Assess(ctx, testRequest(t, seed))
		if err != nil {
			t.Fatalf("unhedged slow-node assess seed %d: %v", seed, err)
		}
		unhedgedLat = append(unhedgedLat, time.Since(t0))
		if string(b) != string(slowRef[seed]) {
			t.Fatalf("unhedged slow-node answer differs for seed %d", seed)
		}
	}
	for _, seed := range slowSeeds {
		t0 := time.Now()
		b, err := hedged.Assess(ctx, testRequest(t, seed))
		if err != nil {
			t.Fatalf("hedged slow-node assess seed %d: %v", seed, err)
		}
		hedgedLat = append(hedgedLat, time.Since(t0))
		if string(b) != string(slowRef[seed]) {
			t.Fatalf("hedged slow-node answer differs for seed %d", seed)
		}
	}
	hst := hedged.Stats()
	report.Hedge.Requests = len(slowSeeds)
	report.Hedge.UnhedgedP99Ms = quantileMs(unhedgedLat, 0.99)
	report.Hedge.HedgedP99Ms = quantileMs(hedgedLat, 0.99)
	report.Hedge.Hedges = hst.Hedges
	report.Hedge.HedgeWins = hst.HedgeWins
	if hst.Hedges == 0 || hst.HedgeWins == 0 {
		t.Errorf("hedge never fired/won against a 150ms-slow owner: %+v", hst)
	}
	if report.Hedge.HedgedP99Ms*2 >= report.Hedge.UnhedgedP99Ms {
		t.Errorf("hedging did not bound the tail: hedged p99 %.1fms vs unhedged %.1fms",
			report.Hedge.HedgedP99Ms, report.Hedge.UnhedgedP99Ms)
	}
	t.Logf("hedge: unhedged p99=%.1fms hedged p99=%.1fms hedges=%d wins=%d",
		report.Hedge.UnhedgedP99Ms, report.Hedge.HedgedP99Ms, hst.Hedges, hst.HedgeWins)

	// Reproducibility: the fault schedule a proxy realizes is a pure
	// function of (spec, seed, link, ordinal). Pin a stable spec on node
	// 2's link, note where its connection counter stands, drive traffic,
	// and require the realized tail to equal ScheduleFor's recomputation
	// over exactly those ordinals.
	report.ScheduleReproducible = true
	report.LinkConns = make(map[string]uint64, nodes)
	for _, px := range proxies {
		px.SetSpec(nil)
	}
	reproSpec := mustSpec("latency=5ms,jitter=5ms,drip=0.3,reset=0.1")
	proxies[2].SetSpec(reproSpec)
	start := proxies[2].Conns()
	for _, seed := range seeds {
		if _, err := rt.Assess(ctx, testRequest(t, seed)); err != nil {
			t.Fatalf("reproducibility drive seed %d: %v", seed, err)
		}
	}
	realized := proxies[2].Schedule()[start:]
	if len(realized) == 0 {
		t.Fatal("reproducibility drive sent no connections through node 2's link")
	}
	ordinals := make([]uint64, len(realized))
	for i := range ordinals {
		ordinals[i] = start + uint64(i)
	}
	src2, dst2 := proxies[2].Link()
	recomputed := reproSpec.ScheduleFor(int64(900+2), src2, dst2, ordinals)
	if !reflect.DeepEqual(realized, recomputed) {
		report.ScheduleReproducible = false
		t.Errorf("node 2's realized schedule diverges from ScheduleFor's recomputation:\nrealized:   %+v\nrecomputed: %+v", realized, recomputed)
	}
	for _, px := range proxies {
		src, dst := px.Link()
		report.LinkConns[src+"->"+dst] = px.Conns()
	}

	out := os.Getenv("LITMUS_CLUSTER_CHAOS_OUT")
	if out == "" {
		return
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
