package main

// Sharded-serving benchmark mode (-shard): proves that consistent-hash
// routing turns N nodes into one coherent cache of N× the capacity. The
// same workload — R rounds over S distinct requests, issued through a
// shard.Router — runs twice: against one node, then against three, each
// node keeping c finished records (its result cache) where
// c < S ≤ 3·c·(1 - imbalance slack). The single node LRU-thrashes:
// every round re-evicts what the previous round cached, so all R·S
// requests are computed. The three-node ring holds the whole working
// set — each node owns ~S/3 ≤ c digests — so only the first round
// computes and rounds 2..R are pure cache hits. The report is
// BENCH_9.json; per-node done-job counters prove no digest was computed
// on more than one node.
//
// On a single core the speedup is pure cache economics, not
// parallelism: three in-process nodes share the CPU, but they compute S
// jobs between them instead of R·S.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/shard"
)

// shardSpeedupTarget is the acceptance threshold: three routed nodes
// must deliver at least this multiple of single-node throughput.
const shardSpeedupTarget = 2.2

// shardNode is one in-process service instance under benchmark.
type shardNode struct {
	s          *serve.Server
	httpServer *http.Server
	url        string
}

// shardCluster boots n in-process nodes, each keeping cache finished
// records — its result cache.
func shardCluster(n, cache int) ([]*shardNode, func()) {
	nodes := make([]*shardNode, n)
	for i := range nodes {
		s := serve.New(serve.Config{
			Workers:    1,
			QueueDepth: 256,
			CacheSize:  cache,
			RetryAfter: 50 * time.Millisecond,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("listen: %v", err)
		}
		httpServer := &http.Server{Handler: s.Handler()}
		go func() { _ = httpServer.Serve(ln) }()
		nodes[i] = &shardNode{s: s, httpServer: httpServer, url: "http://" + ln.Addr().String()}
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, nd := range nodes {
			_ = nd.httpServer.Shutdown(ctx)
			_ = nd.s.Shutdown(ctx)
		}
	}
	return nodes, stop
}

// shardRequest is a lightened golden-style request (one KPI, bounded
// assessor iterations) so the benchmark measures cache economics, not
// raw engine time. Distinct seeds are distinct canonical digests.
func shardRequest(genSeed int64) *serve.AssessRequest {
	req := goldenStyleRequest(genSeed)
	req.Change.ID = fmt.Sprintf("CHG-SHARD-%d", genSeed)
	req.KPIs = []string{"voice-retainability"}
	req.Assessor = &serve.AssessorSpec{Seed: 9, Iterations: 60}
	req.Controls = nil
	return req
}

// nodeCounter reads one labeled counter from a node's registry.
func nodeCounter(nd *shardNode, name string) int64 {
	v, _ := nd.s.Registry().Snapshot()[name].(int64)
	return v
}

// runShardRounds drives rounds×len(reqs) assessments through rt with a
// barrier between rounds (hits require the previous round to have
// populated the caches). Every repeat is checked byte-identical to the
// first answer for its request.
func runShardRounds(ctx context.Context, rt *shard.Router, reqs []*serve.AssessRequest, rounds, conc int) (wallSeconds float64, failures int64) {
	first := make([][]byte, len(reqs))
	var failed atomic.Int64
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					b, err := rt.Assess(ctx, reqs[i])
					if err != nil {
						logger.Warn("shard request failed", "request", i, "error", err.Error())
						failed.Add(1)
						continue
					}
					// Rounds are barriered, so slot i is written in round 0
					// and only read afterwards — no race.
					if first[i] == nil {
						first[i] = b
					} else if string(first[i]) != string(b) {
						fatalf("request %d: repeat answer differs from first answer", i)
					}
				}
			}()
		}
		for i := range reqs {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	return time.Since(t0).Seconds(), failed.Load()
}

// runShardPhase boots an n-node cluster, runs the workload, and folds
// the per-node counters into a report fragment.
func runShardPhase(n, cache int, reqs []*serve.AssessRequest, rounds, conc int) (map[string]any, int64, int64, int64) {
	nodes, stop := shardCluster(n, cache)
	defer stop()
	endpoints := make([]string, len(nodes))
	for i, nd := range nodes {
		endpoints[i] = nd.url
	}
	rt, err := shard.NewRouter(endpoints, shard.RouterOptions{PollInterval: 2 * time.Millisecond})
	if err != nil {
		fatalf("router: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		fatalf("cluster not ready: %v", err)
	}

	logger.Info("shard phase started", "nodes", n, "requests", len(reqs), "rounds", rounds)
	wall, failures := runShardRounds(ctx, rt, reqs, rounds, conc)

	var computed, hits int64
	perNode := make(map[string]int64, len(nodes))
	for _, nd := range nodes {
		done := nodeCounter(nd, obs.Labeled(obs.MetricJobs, "status", "done"))
		perNode[nd.url] = done
		computed += done
		hits += nodeCounter(nd, obs.MetricCacheHits)
	}
	total := rounds * len(reqs)
	frag := map[string]any{
		"nodes":             n,
		"requests":          total,
		"wall_seconds":      round3(wall),
		"jobs_per_sec":      round3(float64(total) / wall),
		"computed_jobs":     computed,
		"cache_hits":        hits,
		"per_node_computed": perNode,
		"router_failovers":  rt.Stats().Failovers,
		"failures":          failures,
	}
	logger.Info("shard phase finished", "nodes", n, "wall_seconds", round3(wall), "computed_jobs", computed, "cache_hits", hits)
	return frag, computed, failures, rt.Stats().Failovers
}

// runShardBench is the -shard entry point; it writes the BENCH_9.json
// report to out and exits non-zero if the speedup target is missed, a
// request failed, or any digest was computed on more than one node.
func runShardBench(rounds, requests, cache, conc int, out string) {
	if rounds < 2 || requests <= 0 || cache <= 0 || conc <= 0 {
		fatalf("need -shard-rounds >= 2, -shard-requests > 0, -shard-cache > 0 and -c > 0")
	}
	if requests <= cache {
		fatalf("-shard-requests (%d) must exceed -shard-cache (%d), or the single node never evicts", requests, cache)
	}
	reqs := make([]*serve.AssessRequest, requests)
	for i := range reqs {
		reqs[i] = shardRequest(int64(10_000 + i))
	}

	singleFrag, singleComputed, singleFail, _ := runShardPhase(1, cache, reqs, rounds, conc)
	shardFrag, shardComputed, shardFail, failovers := runShardPhase(3, cache, reqs, rounds, conc)

	speedup := shardFrag["jobs_per_sec"].(float64) / singleFrag["jobs_per_sec"].(float64)
	// With every digest routed to its ring owner and every owner's share
	// inside its cache, the cluster computes each distinct request exactly
	// once — more means either double computation or owner-side eviction.
	noDouble := shardComputed == int64(requests) && failovers == 0
	pass := singleFail == 0 && shardFail == 0 && noDouble && speedup >= shardSpeedupTarget

	report := map[string]any{
		"litmus_shard_bench": map[string]any{
			"rounds":                rounds,
			"distinct_requests":     requests,
			"per_node_cache":        cache,
			"client_concurrency":    conc,
			"single_node":           singleFrag,
			"sharded":               shardFrag,
			"single_computed_jobs":  singleComputed,
			"sharded_computed_jobs": shardComputed,
			"speedup":               round3(speedup),
			"speedup_target":        shardSpeedupTarget,
			"no_double_computation": noDouble,
			"pass":                  pass,
		},
	}
	payload, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	payload = append(payload, '\n')
	if err := os.WriteFile(out, payload, 0o644); err != nil {
		fatalf("writing %s: %v", out, err)
	}
	fmt.Printf("%s", payload)
	logger.Info("report written", "path", out, "speedup", round3(speedup), "no_double_computation", noDouble, "pass", pass)
	if !pass {
		os.Exit(1)
	}
}
