package main

// Batch benchmark mode (-batch): proves the sub-linear cost of the
// changelog batch path by running the same N-entry changelog twice —
// once as N sequential single submissions, once as one POST
// /v1/assess/batch — against separate in-process servers (so neither
// phase warms the other's result cache), and reporting wall-clock and
// allocation ratios as BENCH_8.json.
//
// The service keeps one process-wide world slot, so the singles after
// the first reuse the world the first one built. The wall-clock target
// is against those singles. The allocation target is against N
// standalone jobs, each building its own world, priced from a few cold
// singles: a reference the world slot cannot move. Every measured cold
// job, the batch included, starts after a job on another world has
// replaced the slot.
//
// The changelog spreads N entries over a bounded set of distinct
// (study, change-time) signatures: entries sharing a signature reuse
// control panels and before-window factorizations inside the engine,
// which is where the amortization comes from. Every entry has a unique
// change ID, so every entry is distinct work for the cache — no
// entry-level dedup flatters the batch numbers.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// batchTargets are the acceptance thresholds: the batch must take at
// most batchWallTarget of the sequential singles' wall-clock, and
// allocate at most batchAllocTarget of N cold singles' allocations.
// coldSamples is how many cold singles price that reference.
const (
	batchWallTarget  = 0.35
	batchAllocTarget = 0.25
	coldSamples      = 8
)

// batchServer starts a dedicated in-process server and returns its
// client, registry and shutdown hook.
func batchServer(workers, queue int) (*client.Client, *obs.Registry, func()) {
	s := serve.New(serve.Config{Workers: workers, QueueDepth: queue, RetryAfter: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	httpServer := &http.Server{Handler: s.Handler()}
	go func() { _ = httpServer.Serve(ln) }()
	cl := client.New("http://"+ln.Addr().String(), nil)
	cl.PollInterval = time.Millisecond
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpServer.Shutdown(ctx)
		_ = s.Shutdown(ctx)
	}
	return cl, s.Registry(), stop
}

// batchChangelog builds n changes over `signatures` distinct
// (study, at) pairs: studies cycle over per-RNC tower triples and
// change times step in 6h increments, so the signature count — not the
// entry count — bounds the distinct panel work.
func batchChangelog(n, signatures int) []serve.ChangeSpec {
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) == 0 {
		fatalf("benchmark topology has no RNCs")
	}
	var studies [][]string
	for _, rnc := range rncs {
		children := net.Children(rnc)
		for o := 0; o+3 <= len(children); o += 3 {
			studies = append(studies, children[o:o+3])
		}
	}
	if len(studies) == 0 {
		fatalf("benchmark topology has no tower triples")
	}
	base := time.Date(2012, 3, 15, 0, 0, 0, 0, time.UTC)
	types := []string{"config-change", "software-upgrade", "feature-activation", "hardware-upgrade"}
	qualities := []float64{-1.5, -0.8, 0, 0.8}
	changes := make([]serve.ChangeSpec, 0, n)
	for i := 0; i < n; i++ {
		sig := i % signatures
		study := studies[sig%len(studies)]
		at := base.Add(time.Duration(sig/len(studies)) * 6 * time.Hour)
		changes = append(changes, serve.ChangeSpec{
			ID:          fmt.Sprintf("CHG-BENCH-%04d", i),
			Type:        types[i%len(types)],
			Description: "batch benchmark entry",
			Elements:    study,
			At:          at.Format(time.RFC3339),
			TrueQuality: qualities[(i/len(types))%len(qualities)],
		})
	}
	return changes
}

// benchRequest wraps the shared benchmark world around one change.
func benchRequest(ch serve.ChangeSpec) *serve.AssessRequest {
	return &serve.AssessRequest{
		Topology:   &serve.TopologySpec{Seed: 17},
		Generator:  &serve.GeneratorSpec{Seed: 23},
		Index:      serve.IndexSpec{Start: "2012-03-01T00:00:00Z", Step: "6h", N: 28 * 4},
		Change:     ch,
		KPIs:       []string{"voice-retainability", "data-accessibility"},
		WindowDays: 14,
		Assessor:   &serve.AssessorSpec{Seed: 9},
		Controls:   &serve.ControlsSpec{Predicates: []string{"same-kind", "same-parent"}},
	}
}

// evictWorld submits ch on a world of its own (another generator seed),
// which replaces the service's world slot, so the next job on the
// benchmark world starts cold. ch's ID keeps the request distinct from
// every earlier one, so the result cache cannot answer it.
func evictWorld(ctx context.Context, cl *client.Client, ch serve.ChangeSpec) {
	req := benchRequest(ch)
	req.Generator = &serve.GeneratorSpec{Seed: 24}
	if _, err := cl.Assess(ctx, req); err != nil {
		fatalf("evicting the world slot: %v", err)
	}
}

// measure runs fn between GC-settled ReadMemStats snapshots and returns
// wall-clock seconds and bytes allocated.
func measure(fn func()) (wallSeconds float64, allocBytes uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return wall.Seconds(), m1.TotalAlloc - m0.TotalAlloc
}

// runBatchBench is the -batch entry point; it writes the BENCH_8.json
// report to out and exits non-zero if any entry failed or a ratio
// target was missed.
func runBatchBench(entries, signatures, sWorkers, sQueue int, out string) {
	if entries <= 0 || signatures <= 0 {
		fatalf("need -batch-entries > 0 and -batch-signatures > 0")
	}
	ctx := context.Background()
	changes := batchChangelog(entries, signatures)
	var failures int

	// Baseline: sequential single submissions against a fresh server;
	// all but the first reuse the world in the slot.
	clS, _, stopS := batchServer(sWorkers, sQueue)
	logger.Info("singles baseline started", "entries", entries)
	singleWall, singleAlloc := measure(func() {
		for _, ch := range changes {
			if _, err := clS.Assess(ctx, benchRequest(ch)); err != nil {
				logger.Warn("single request failed", "change", ch.ID, "error", err.Error())
				failures++
			}
		}
	})
	stopS()
	logger.Info("singles baseline finished", "wall_seconds", round3(singleWall))

	// Allocation reference: cold singles spread over the changelog, each
	// after an eviction, against a server whose result cache has not
	// seen them. The last eviction leaves the slot cold for the batch.
	clC, _, stopC := batchServer(sWorkers, sQueue)
	samples := min(coldSamples, len(changes))
	var coldAlloc uint64
	for i := 0; i < samples; i++ {
		ch := changes[i*len(changes)/samples]
		evictWorld(ctx, clC, ch)
		_, alloc := measure(func() {
			if _, err := clC.Assess(ctx, benchRequest(ch)); err != nil {
				fatalf("cold single %s: %v", ch.ID, err)
			}
		})
		coldAlloc += alloc
	}
	last := changes[len(changes)-1]
	last.ID += "-EVICT" // distinct even when it was also a sample
	evictWorld(ctx, clC, last)
	stopC()
	coldMean := float64(coldAlloc) / float64(samples)

	// One batch submission against its own fresh server, on a cold slot.
	clB, regB, stopB := batchServer(sWorkers, sQueue)
	shared := benchRequest(changes[0])
	breq := &serve.BatchAssessRequest{
		Topology:   shared.Topology,
		Generator:  shared.Generator,
		Index:      shared.Index,
		Changes:    changes,
		KPIs:       shared.KPIs,
		WindowDays: shared.WindowDays,
		Assessor:   shared.Assessor,
		Controls:   shared.Controls,
	}
	var doc *serve.BatchResultDoc
	batchWall, batchAlloc := measure(func() {
		var err error
		doc, err = clB.AssessBatch(ctx, breq)
		if err != nil {
			fatalf("batch submission: %v", err)
		}
	})
	snap := regB.Snapshot()
	stopB()
	for _, e := range doc.Entries {
		if e.Error != "" {
			logger.Warn("batch entry failed", "change", e.ChangeID, "error", e.Error)
			failures++
		}
	}
	counter := func(name string) int64 {
		v, _ := snap[name].(int64)
		return v
	}
	wallRatio := batchWall / singleWall
	allocRatio := float64(batchAlloc) / (coldMean * float64(entries))
	pass := failures == 0 && wallRatio <= batchWallTarget && allocRatio <= batchAllocTarget

	report := map[string]any{
		"litmus_batch_bench": map[string]any{
			"entries":             entries,
			"distinct_signatures": signatures,
			"failures":            failures,
			"singles": map[string]any{
				"wall_seconds":      round3(singleWall),
				"total_alloc_bytes": singleAlloc,
			},
			"cold_single": map[string]any{
				"samples":          samples,
				"mean_alloc_bytes": int64(coldMean),
			},
			"batch": map[string]any{
				"wall_seconds":          round3(batchWall),
				"total_alloc_bytes":     batchAlloc,
				"entries_total":         counter(obs.MetricBatchEntries),
				"panels_shared":         counter(obs.MetricBatchPanelsShared),
				"factorizations_reused": counter(obs.MetricBatchFactorizationsReused),
				"before_factorizations": counter(obs.MetricBeforeFactorizations),
			},
			"wall_ratio":          round3(wallRatio),
			"alloc_ratio":         round3(allocRatio),
			"singles_alloc_ratio": round3(float64(batchAlloc) / float64(singleAlloc)),
			"wall_ratio_target":   batchWallTarget,
			"alloc_ratio_target":  batchAllocTarget,
			"pass":                pass,
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
	logger.Info("report written", "path", out, "wall_ratio", round3(wallRatio), "alloc_ratio", round3(allocRatio), "pass", pass)
	if !pass {
		os.Exit(1)
	}
}
