//go:build !race && unix

package client

// The batch path's amortization, measured where a service client sees
// it: a 1,000-entry changelog over 24 (study, change-time) signatures
// of the golden world as one POST /v1/assess/batch, against N
// standalone jobs that each build their own world. The reference is
// priced from cold singles, each run after a job on another world has
// replaced the service's world slot, so no saving that singles alone
// see can move it. It builds without the race detector, whose overhead
// would skew both ratios, and only on unix, for getrusage.

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The changelog's shape, the service's workers, and the bound: the
// batch may spend at most amortizedShare of N cold singles' allocations
// and CPU time.
const (
	batchEntries     = 1000
	batchSignatures  = 24
	batchKPIs        = 2
	batchIterations  = 50 // the assessor's default
	coldSamples      = 16
	amortizedShare   = 0.25
	amortizedWorkers = 4
)

// batchChangelog builds n changes over `signatures` distinct
// (study, at) pairs: studies cycle over per-RNC tower triples and
// change times step by 6h, so the signature count, not the entry count,
// bounds the distinct panel work. Every entry has its own change ID, so
// no entry-level dedup flatters the batch.
func batchChangelog(t *testing.T, n, signatures int) []serve.ChangeSpec {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	var studies [][]string
	for _, rnc := range net.OfKind(netsim.RNC) {
		children := net.Children(rnc)
		for o := 0; o+3 <= len(children); o += 3 {
			studies = append(studies, children[o:o+3])
		}
	}
	if len(studies) == 0 {
		t.Fatal("topology has no tower triples")
	}
	base := time.Date(2012, 3, 15, 0, 0, 0, 0, time.UTC)
	types := []string{"config-change", "software-upgrade", "feature-activation", "hardware-upgrade"}
	qualities := []float64{-1.5, -0.8, 0, 0.8}
	changes := make([]serve.ChangeSpec, n)
	for i := range changes {
		sig := i % signatures
		changes[i] = serve.ChangeSpec{
			ID:          fmt.Sprintf("CHG-BATCH-%04d", i),
			Type:        types[i%len(types)],
			Description: "batch amortization entry",
			Elements:    studies[sig%len(studies)],
			At:          base.Add(time.Duration(sig/len(studies)) * 6 * time.Hour).Format(time.RFC3339),
			TrueQuality: qualities[(i/len(types))%len(qualities)],
		}
	}
	return changes
}

// evictWorld assesses req's change on a world of its own (another
// generator seed), which replaces the world slot, so the next job on
// req's world starts cold.
func evictWorld(ctx context.Context, t *testing.T, c *Client, req serve.AssessRequest) {
	t.Helper()
	req.Generator = &serve.GeneratorSpec{Seed: req.Generator.Seed + 1}
	if _, err := c.Assess(ctx, &req); err != nil {
		t.Fatalf("evicting the world slot: %v", err)
	}
}

// processCPU is the process's user plus system CPU time.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost runs fn after a collection and returns the bytes it allocated
// and the process CPU time it took. The process's CPU time, unlike
// wall time, does not grow with other processes sharing the machine.
func cost(t *testing.T, fn func()) (alloc uint64, cpu time.Duration) {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := processCPU(t)
	fn()
	cpu = processCPU(t) - c0
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, cpu
}

// TestBatchAmortization: the batch allocates and spends at most a
// quarter of what N cold singles would, and factorizes each signature's
// before windows once per KPI and iteration.
func TestBatchAmortization(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	changes := batchChangelog(t, batchEntries, batchSignatures)

	// The reference: cold singles spread over the changelog, on a server
	// whose result cache has not seen them. The last eviction leaves the
	// slot cold for the batch.
	cold, _ := newService(t, serve.Config{Workers: amortizedWorkers})
	cold.PollInterval = time.Millisecond
	single := *goldenRequest(t)
	var coldAlloc uint64
	var coldCPU time.Duration
	for i := 0; i < coldSamples; i++ {
		single.Change = changes[i*len(changes)/coldSamples]
		evictWorld(ctx, t, cold, single)
		alloc, cpu := cost(t, func() {
			if _, err := cold.Assess(ctx, &single); err != nil {
				t.Fatalf("cold single %s: %v", single.Change.ID, err)
			}
		})
		coldAlloc += alloc
		coldCPU += cpu
	}
	single.Change = changes[len(changes)-1]
	single.Change.ID += "-EVICT"
	evictWorld(ctx, t, cold, single)

	c, s := newService(t, serve.Config{Workers: amortizedWorkers})
	c.PollInterval = time.Millisecond
	req := goldenBatch(t, changes...)
	var doc *serve.BatchResultDoc
	alloc, cpu := cost(t, func() {
		var err error
		if doc, err = c.AssessBatch(ctx, req); err != nil {
			t.Fatalf("batch: %v", err)
		}
	})
	if len(doc.Entries) != len(changes) {
		t.Fatalf("batch answered %d entries, want %d", len(doc.Entries), len(changes))
	}
	for _, e := range doc.Entries {
		if e.Error != "" {
			t.Fatalf("entry %s failed: %s", e.ChangeID, e.Error)
		}
	}

	n := float64(len(changes))
	allocRatio := float64(alloc) / (n * float64(coldAlloc) / coldSamples)
	cpuRatio := cpu.Seconds() / (n * coldCPU.Seconds() / coldSamples)
	factorizations, _ := s.Registry().Snapshot()[obs.MetricBeforeFactorizations].(int64)
	t.Logf("batch of %d: alloc ratio %.3f, CPU ratio %.3f against %d cold singles; %d before-window factorizations",
		len(changes), allocRatio, cpuRatio, coldSamples, factorizations)
	if allocRatio > amortizedShare {
		t.Errorf("batch allocated %.3f of N cold singles, want ≤ %.2f", allocRatio, amortizedShare)
	}
	if cpuRatio > amortizedShare {
		t.Errorf("batch spent %.3f of N cold singles' CPU time, want ≤ %.2f", cpuRatio, amortizedShare)
	}
	if limit := int64(batchSignatures * batchKPIs * batchIterations); factorizations == 0 || factorizations > limit {
		t.Errorf("batch factorized %d before windows, want 1–%d (one per signature, KPI and iteration)", factorizations, limit)
	}
}
