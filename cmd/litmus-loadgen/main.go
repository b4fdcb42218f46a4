// Command litmus-loadgen drives the assessment service with a stream of
// concurrent assessment requests and reports the end-to-end latency
// distribution (submit → result in hand) plus throughput as JSON — the
// BENCH_4.json artifact of the serving layer.
//
// Usage:
//
//	litmus-loadgen -n 200 -c 8 -o BENCH_4.json        # in-process server
//	litmus-loadgen -addr http://localhost:8080 -n 100  # running instance
//
// Requests are the golden scenario with the generator seed varied per
// request; -dup controls the fraction of requests that reuse a previous
// seed and therefore exercise the result cache and in-flight dedup.
//
// -servers takes a comma-separated list of service base URLs and routes
// every request to the consistent-hash owner of its canonical digest
// (failing over when the owner is down), so a multi-node deployment
// behaves as one coherent cache. -shard runs the sharded-serving
// benchmark instead: the same workload against 1 vs 3 in-process nodes,
// reported as BENCH_9.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/shard"
)

// logger carries the command's structured diagnostics (stderr); the
// report JSON stays on stdout. Initialized from -log-format/-log-level.
var logger *slog.Logger

func main() {
	var (
		n         = flag.Int("n", 200, "total number of assessment requests")
		c         = flag.Int("c", 8, "concurrent client workers")
		dup       = flag.Float64("dup", 0.25, "fraction of requests that repeat an earlier request (cache hits)")
		addr      = flag.String("addr", "", "service base URL (empty = run an in-process server)")
		out       = flag.String("o", "", "output JSON path (default BENCH_4.json, BENCH_8.json with -batch)")
		sWorkers  = flag.Int("server-workers", 4, "in-process server: assessment workers")
		sQueue    = flag.Int("server-queue", 64, "in-process server: queue depth")
		batch     = flag.Bool("batch", false, "run the batch-vs-singles benchmark (BENCH_8.json) instead of the latency load test")
		batchN    = flag.Int("batch-entries", 1000, "-batch: changelog entries")
		batchSigs = flag.Int("batch-signatures", 24, "-batch: distinct (study, change-time) signatures the entries spread over")
		servers   = flag.String("servers", "", "comma-separated service base URLs; route each request to its consistent-hash owner (overrides -addr)")
		srvFile   = flag.String("servers-file", "", "file of service base URLs (one per line, # comments); re-read on SIGHUP and applied live to the ring")
		hedge     = flag.Bool("hedge", false, "routed modes: hedge slow requests to the next ring node (first answer wins)")
		chaosRun  = flag.Bool("chaos", false, "run the load against in-process nodes behind deterministic netchaos fault proxies")
		chaosSpec = flag.String("chaos-spec", "latency=30ms,jitter=20ms", "-chaos: netchaos fault spec for the faulted links")
		chaosSeed = flag.Int64("chaos-seed", 42, "-chaos: fault-schedule seed (same seed = same schedule)")
		chaosN    = flag.Int("chaos-nodes", 3, "-chaos: in-process nodes")
		chaosBad  = flag.Int("chaos-faulty", 1, "-chaos: how many node links get the fault spec")
		shardRun  = flag.Bool("shard", false, "run the sharded-serving benchmark (BENCH_9.json): 1 vs 3 in-process nodes")
		shardRnds = flag.Int("shard-rounds", 5, "-shard: passes over the request corpus")
		shardReqs = flag.Int("shard-requests", 120, "-shard: distinct requests per round (must exceed -shard-cache)")
		shardCap  = flag.Int("shard-cache", 80, "-shard: per-node bound on finished records, the result cache")
	)
	logFlags := obscli.RegisterLog("text")
	flag.Parse()
	var err error
	logger, err = logFlags.Logger("litmus-loadgen")
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus-loadgen:", err)
		os.Exit(2)
	}
	if *batch {
		if *out == "" {
			*out = "BENCH_8.json"
		}
		runBatchBench(*batchN, *batchSigs, *sWorkers, *sQueue, *out)
		return
	}
	if *shardRun {
		if *out == "" {
			*out = "BENCH_9.json"
		}
		runShardBench(*shardRnds, *shardReqs, *shardCap, *c, *out)
		return
	}
	if *out == "" {
		*out = "BENCH_4.json"
		if *chaosRun {
			*out = "CHAOS_LOAD.json"
		}
	}
	if *n <= 0 || *c <= 0 || *dup < 0 || *dup >= 1 {
		fatalf("need -n > 0, -c > 0 and -dup in [0, 1)")
	}

	ctx := context.Background()
	var assess func(context.Context, *serve.AssessRequest) ([]byte, error)
	var rt *shard.Router
	var reg *obs.Registry
	var chaosInfo func() map[string]any
	if *chaosRun {
		var cleanup func()
		rt, chaosInfo, cleanup = startChaosCluster(*chaosN, *chaosBad, *chaosSpec, *chaosSeed, *sWorkers, *sQueue, *hedge)
		defer cleanup()
		assess = rt.Assess
	} else if *servers != "" || *srvFile != "" {
		endpoints := splitServers(*servers)
		if *srvFile != "" {
			fromFile, err := readServersFile(*srvFile)
			if err != nil {
				fatalf("%v", err)
			}
			endpoints = append(endpoints, fromFile...)
		}
		var err error
		rt, err = shard.NewRouter(endpoints, shard.RouterOptions{Hedge: *hedge})
		if err != nil {
			fatalf("router: %v", err)
		}
		waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		if err := rt.WaitReady(waitCtx); err != nil {
			cancel()
			fatalf("waiting for servers: %v", err)
		}
		cancel()
		if *srvFile != "" {
			// Live membership: SIGHUP re-reads the file and reshapes the
			// ring in place — survivors keep their health/breaker state,
			// and only keys touching changed nodes move owners.
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				for range hup {
					eps, err := readServersFile(*srvFile)
					if err != nil {
						logger.Warn("membership reload failed", "error", err.Error())
						continue
					}
					if err := rt.SetEndpoints(eps); err != nil {
						logger.Warn("membership rejected", "error", err.Error())
						continue
					}
					logger.Info("membership updated", "servers", len(eps))
				}
			}()
		}
		assess = rt.Assess
		logger.Info("routing by canonical digest", "servers", len(endpoints))
	} else {
		baseURL := *addr
		if baseURL == "" {
			s := serve.New(serve.Config{Workers: *sWorkers, QueueDepth: *sQueue, RetryAfter: 50 * time.Millisecond})
			reg = s.Registry()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatalf("listen: %v", err)
			}
			httpServer := &http.Server{Handler: s.Handler()}
			go func() { _ = httpServer.Serve(ln) }()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = httpServer.Shutdown(ctx)
				_ = s.Shutdown(ctx)
			}()
			baseURL = "http://" + ln.Addr().String()
			logger.Info("in-process server started", "url", baseURL, "workers", *sWorkers, "queue", *sQueue)
		}
		assess = client.New(baseURL, nil).Assess
	}

	// Request corpus: every (1/dup)-th request repeats seed 1; the rest
	// get fresh seeds — a deterministic duplicate mix, no RNG needed.
	seeds := make([]int64, *n)
	stride := 0
	if *dup > 0 {
		stride = int(math.Round(1 / *dup))
	}
	next := int64(1)
	for i := range seeds {
		if stride > 0 && i%stride == 0 {
			seeds[i] = 1
			continue
		}
		next++
		seeds[i] = next
	}

	latencies := make([]time.Duration, *n)
	var failures atomic.Int64
	var wg sync.WaitGroup
	work := make(chan int)
	started := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req := goldenStyleRequest(seeds[i])
				t0 := time.Now()
				if _, err := assess(ctx, req); err != nil {
					logger.Warn("request failed", "request", i, "error", err.Error())
					failures.Add(1)
					continue
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	for i := 0; i < *n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(started)

	ok := make([]float64, 0, *n)
	for _, d := range latencies {
		if d > 0 {
			ok = append(ok, d.Seconds()*1000)
		}
	}
	sort.Float64s(ok)
	if len(ok) == 0 {
		fatalf("all %d requests failed", *n)
	}
	var sum float64
	for _, v := range ok {
		sum += v
	}
	report := map[string]any{
		"litmus_serve_loadgen": map[string]any{
			"requests":           *n,
			"concurrency":        *c,
			"duplicate_fraction": *dup,
			"failures":           failures.Load(),
			"wall_seconds":       round3(wall.Seconds()),
			"jobs_per_sec":       round3(float64(len(ok)) / wall.Seconds()),
			"latency_ms": map[string]any{
				"p50":  round3(quantile(ok, 0.50)),
				"p90":  round3(quantile(ok, 0.90)),
				"p99":  round3(quantile(ok, 0.99)),
				"mean": round3(sum / float64(len(ok))),
				"max":  round3(ok[len(ok)-1]),
			},
		},
	}
	if reg != nil {
		snap := reg.Snapshot()
		counter := func(name string) int64 {
			v, _ := snap[name].(int64)
			return v
		}
		inner := report["litmus_serve_loadgen"].(map[string]any)
		inner["cache_hits"] = counter(obs.MetricCacheHits)
		inner["cache_misses"] = counter(obs.MetricCacheMisses)
		inner["queue_rejected"] = counter(obs.MetricQueueRejected)
	}
	if rt != nil {
		st := rt.Stats()
		inner := report["litmus_serve_loadgen"].(map[string]any)
		inner["routed"] = st.Routed
		inner["router_failovers"] = st.Failovers
		inner["router_breaker_skips"] = st.BreakerSkips
		inner["router_breaker_transitions"] = st.BreakerTransitions
		inner["router_breaker_open"] = st.BreakerOpen
		inner["router_hedges"] = st.Hedges
		inner["router_hedge_wins"] = st.HedgeWins
	}
	if chaosInfo != nil {
		report["litmus_serve_loadgen"].(map[string]any)["chaos"] = chaosInfo()
	}
	payload, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	payload = append(payload, '\n')
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	fmt.Printf("%s", payload)
	logger.Info("report written", "path", *out, "failures", failures.Load())
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// splitServers parses a comma-separated endpoint list, dropping empties.
func splitServers(s string) []string {
	var endpoints []string
	for _, ep := range strings.Split(s, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			endpoints = append(endpoints, ep)
		}
	}
	return endpoints
}

// readServersFile reads a membership file: one base URL per line, blank
// lines and #-comments ignored.
func readServersFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var endpoints []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		endpoints = append(endpoints, line)
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("%s lists no servers", path)
	}
	return endpoints, nil
}

// goldenStyleRequest is the golden scenario with a per-request generator
// seed: identical world shape, distinct data, so equal seeds are cache
// hits and distinct seeds are real work.
func goldenStyleRequest(genSeed int64) *serve.AssessRequest {
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	study := net.Children(net.OfKind(netsim.RNC)[0])[:3]
	return &serve.AssessRequest{
		Topology:  &serve.TopologySpec{Seed: 17},
		Generator: &serve.GeneratorSpec{Seed: genSeed},
		Index:     serve.IndexSpec{Start: "2012-03-01T00:00:00Z", Step: "6h", N: 28 * 4},
		Change: serve.ChangeSpec{
			ID:          "CHG-LOAD",
			Description: "loadgen scenario",
			Elements:    study,
			At:          "2012-03-15T00:00:00Z",
			TrueQuality: -1.5,
		},
		KPIs:       []string{"voice-retainability", "data-accessibility"},
		WindowDays: 14,
		Assessor:   &serve.AssessorSpec{Seed: 9},
		Controls:   &serve.ControlsSpec{Predicates: []string{"same-kind", "same-parent"}},
	}
}

// quantile reads the q-quantile from sorted ms latencies (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
