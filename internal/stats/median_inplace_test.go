package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestMedianInPlaceMatchesMedian is the equivalence property the hot path
// relies on: on NaN-free input the quickselect median is bit-identical to
// the sort-based one, across lengths, duplicates, and orderings. Lengths
// past a few hundred take several partition passes and, on heavy ties,
// the pass that gathers the pivot's ties.
func TestMedianInPlaceMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specials := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1)}
	adjacent := []float64{1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2)}
	for trial := 0; trial < 1400; trial++ {
		n := 1 + rng.Intn(60)
		if trial >= 700 {
			n = 1 + rng.Intn(2000)
		}
		xs := make([]float64, n)
		switch trial % 7 {
		case 0: // continuous values
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
		case 1: // heavy ties
			for i := range xs {
				xs[i] = float64(rng.Intn(4))
			}
		case 2: // sorted ascending (worst case for naive pivots)
			for i := range xs {
				xs[i] = float64(i)
			}
		case 3: // sorted descending
			for i := range xs {
				xs[i] = float64(n - i)
			}
		case 4: // all equal
			for i := range xs {
				xs[i] = 2.5
			}
		case 5: // signed zeros and infinities among ties
			for i := range xs {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		case 6: // ties on adjacent floats: 45 % 1, 45 % its successor, 10 % the next
			for i := range xs {
				xs[i] = adjacent[min(rng.Intn(20)/9, 2)]
			}
		}
		want := Median(xs)
		got := MedianInPlace(xs)
		if got != want {
			t.Fatalf("trial %d (n=%d): MedianInPlace = %v, Median = %v", trial, n, got, want)
		}
	}
}

// TestOrderKeyKeepsOrder checks that the partition key orders non-NaN
// values as < does, with -0 and +0 equal.
func TestOrderKeyKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-300, 1.5, math.MaxFloat64, math.Inf(1)}
	for i := 0; i < 200; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, a := range vals {
		for _, b := range vals {
			if (a < b) != (orderKey(a) < orderKey(b)) || (a == b) != (orderKey(a) == orderKey(b)) {
				t.Fatalf("orderKey order differs for %v, %v", a, b)
			}
		}
	}
}

// TestMedianInPlacePermutesOnly checks the in-place form only reorders —
// never rewrites — its input, so callers reusing buffers keep the same
// multiset of values.
func TestMedianInPlacePermutesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	xs := make([]float64, 41)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	before := append([]float64(nil), xs...)
	MedianInPlace(xs)
	sort.Float64s(before)
	after := append([]float64(nil), xs...)
	sort.Float64s(after)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("value multiset changed at order statistic %d: %v vs %v", i, after[i], before[i])
		}
	}
}

func TestMedianInPlaceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MedianInPlace(nil) did not panic")
		}
	}()
	MedianInPlace(nil)
}

// BenchmarkMedian takes medians of 50 values, the default iteration
// count, cycling through 1,024 samples: the branch predictor learns the
// comparisons of one repeated sample, and even of 64 (a Hoare partition
// read ~0.39 µs on 64 and ~1.2 µs on 1,024), which the per-timepoint
// aggregation, a fresh column every call, never lets it do.
func BenchmarkMedian(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	samples := make([][]float64, 1024)
	for i := range samples {
		samples[i] = make([]float64, 50)
		for j := range samples[i] {
			samples[i][j] = rng.NormFloat64()
		}
	}
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Median(samples[i%len(samples)])
		}
	})
	b.Run("quickselect", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]float64, 50)
		for i := 0; i < b.N; i++ {
			copy(buf, samples[i%len(samples)])
			MedianInPlace(buf)
		}
	})
}
