package core

// Concurrency subsystem of the assessor. Two pieces live here:
//
//   - a bounded worker pool (forEach) that fans index-addressed work out
//     over Config.Workers goroutines, with every result written to a
//     caller-owned slot so gathering is deterministic regardless of
//     scheduling. The factor-group kernel is its only caller, with two
//     flat fan-outs per group (iterations, then elements); no fan-out
//     runs inside another;
//   - the deterministic RNG-derivation contract (iterRNG): every sampling
//     iteration draws from its own generator seeded by a SplitMix64 mix
//     (internal/seedmix) of (Config.Seed, iteration). No RNG state is
//     shared across iterations, so parallel and sequential runs — any
//     worker count, any schedule — produce bit-identical forecasts,
//     medians and p-values.
//
// Every future scaling change (sharding, batching, caching) must
// preserve this contract: the stream of random draws consumed by
// iteration i depends only on (Seed, i), never on execution order.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/seedmix"
)

// DefaultWorkers returns the default worker-pool size: the number of
// CPUs the Go runtime schedules on (runtime.GOMAXPROCS(0)).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// forEach runs fn(w, i) for every i in [0, n), using at most workers
// goroutines. workers <= 1 (or n <= 1) runs inline on the calling
// goroutine in index order — the sequential path, as worker 0. w names
// the goroutine running index i, in [0, workers), so fn may keep
// per-worker state in a slot owned by w. fn must write its result to a
// slot owned by index i; forEach returns only after every call
// completed, so the caller reads the slots race-free.
func forEach(workers, n int, fn func(w, i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// deriveSeed mixes a base seed and a stream number into an independent
// 63-bit seed. Mixing the already-avalanched seed with the avalanched
// stream keeps nearby (seed, stream) pairs statistically unrelated.
func deriveSeed(seed int64, stream uint64) int64 {
	z := seedmix.SplitMix64(seedmix.SplitMix64(uint64(seed)) ^ seedmix.SplitMix64(^stream))
	return int64(z &^ (1 << 63))
}

// iterRNG returns the private generator for one sampling iteration. The
// generator depends only on (seed, iteration) — the seeding contract the
// package documentation describes.
func iterRNG(seed int64, iteration int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, uint64(iteration))))
}

// permInto fills p with a uniform permutation of [0, len(p)), consuming
// exactly the same stream of draws as rng.Perm(len(p)) — the inside-out
// Fisher–Yates of math/rand — so the sampled control columns stay
// bit-identical to the historical contract while the buffer is reused
// instead of allocated per iteration. TestPermIntoMatchesRandPerm pins
// the draw-for-draw equivalence.
func permInto(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
