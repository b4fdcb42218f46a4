package core

// Concurrency subsystem of the assessor. Two pieces live here:
//
//   - a bounded worker pool (forEach) that fans index-addressed work out
//     over Config.Workers goroutines, with every result written to a
//     caller-owned slot so gathering is deterministic regardless of
//     scheduling;
//   - the deterministic RNG-derivation contract (iterRNG): every sampling
//     iteration draws from its own generator seeded by a splitmix64 mix
//     of (Config.Seed, iteration). No RNG state is shared across
//     iterations, so parallel and sequential runs — any worker count,
//     any schedule — produce bit-identical forecasts, medians and
//     p-values.
//
// Every future scaling change (sharding, batching, caching) must
// preserve this contract: the stream of random draws consumed by
// iteration i depends only on (Seed, i), never on execution order.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default worker-pool size: the number of
// CPUs the Go runtime schedules on (runtime.GOMAXPROCS(0)).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// forEach runs fn(i) for every i in [0, n), using at most workers
// goroutines. workers <= 1 (or n <= 1) runs inline on the calling
// goroutine in index order — the sequential path. fn must write its
// result to a slot owned by index i; forEach returns only after every
// call completed, so the caller reads the slots race-free.
func forEach(workers, n int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
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
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachIndex is the exported form of forEach for sibling packages
// (the pipeline's KPI fan-out) that want the same bounded, deterministic
// gather-by-index discipline.
func ForEachIndex(workers, n int, fn func(i int)) { forEach(workers, n, fn) }

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014): a
// bijective avalanche mix whose output stream passes BigCrush. It is the
// standard generator for deriving independent streams from a key.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deriveSeed mixes a base seed and a stream number into an independent
// 63-bit seed. Mixing the already-avalanched seed with the avalanched
// stream keeps nearby (seed, stream) pairs statistically unrelated.
func deriveSeed(seed int64, stream uint64) int64 {
	z := splitmix64(splitmix64(uint64(seed)) ^ splitmix64(^stream))
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
