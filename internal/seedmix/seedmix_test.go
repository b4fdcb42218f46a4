package seedmix

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSplitMix64KnownValues pins the finalizer to the published
// reference stream: seeded at 0, SplitMix64 emits 0xE220A8397B1DCDAF
// then 0x6E789E6AA1B965F4.
func TestSplitMix64KnownValues(t *testing.T) {
	const gamma = 0x9E3779B97F4A7C15
	if got := SplitMix64(0); got != 0xE220A8397B1DCDAF {
		t.Errorf("SplitMix64(0) = %#x, want 0xE220A8397B1DCDAF", got)
	}
	if got := SplitMix64(gamma); got != 0x6E789E6AA1B965F4 {
		t.Errorf("SplitMix64(gamma) = %#x, want 0x6E789E6AA1B965F4", got)
	}
}

func TestFNV64aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "missing", "nb1-ne-1", "10.0.0.1:8080"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := FNV64a(s), h.Sum64(); got != want {
			t.Errorf("FNV64a(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestPoolRandMatchesFreshSource dirties a generator from the free list
// with draws and a partial Read, returns it and takes it back: seeded,
// it must draw exactly what a generator on a new source with the same
// seed draws, for every method the build and the series draws use.
func TestPoolRandMatchesFreshSource(t *testing.T) {
	for len(rands) > 0 {
		<-rands // start from an empty list, so the next take is ours
	}
	dirty := TakeRand()
	for _, seed := range []int64{0, 1, -7, 1 << 40, math.MaxInt64} {
		dirty.Seed(seed)
		dirty.NormFloat64()
		dirty.Perm(9)
		var junk [3]byte
		dirty.Read(junk[:]) // leaves five bytes of a value unread
		PutRand(dirty)
		r := TakeRand()
		if r != dirty {
			t.Fatal("the free list did not hand back the generator just returned")
		}
		r.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			if got, want := r.Int63(), fresh.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, got, want)
			}
			if got, want := r.Float64(), fresh.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, got, want)
			}
			if got, want := r.NormFloat64(), fresh.NormFloat64(); got != want {
				t.Fatalf("seed %d draw %d: NormFloat64 %v, want %v", seed, i, got, want)
			}
			if got, want := r.Intn(i+1), fresh.Intn(i+1); got != want {
				t.Fatalf("seed %d draw %d: Intn %d, want %d", seed, i, got, want)
			}
			if got, want := r.Perm(i%12), fresh.Perm(i%12); !slices.Equal(got, want) {
				t.Fatalf("seed %d draw %d: Perm %v, want %v", seed, i, got, want)
			}
		}
		var got, want [13]byte
		r.Read(got[:])
		fresh.Read(want[:])
		if got != want {
			t.Fatalf("seed %d: Read %x, want %x", seed, got, want)
		}
		dirty = r
	}
	PutRand(dirty)
}
