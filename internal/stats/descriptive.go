// Package stats implements the statistical machinery that Litmus relies
// on: descriptive statistics, rank utilities with midrank tie handling,
// the Wilcoxon–Mann–Whitney test, and — centrally — the Fligner–Policello
// robust rank-order test the paper uses to compare forecast-difference
// series before and after a change (CoNEXT'13 §3.2).
//
// All routines are deterministic and operate on plain []float64 samples.
// NaN values are the caller's responsibility; the time-series layer strips
// them before testing.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs. It panics on an empty sample:
// an empty assessment window is a programming error upstream, not a
// statistical outcome.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty sample")
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Median returns the sample median of xs (average of the two middle order
// statistics for even lengths). It panics on an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty sample")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// MedianInPlace returns the sample median of xs, permuting xs in the
// process (a quickselect partial ordering rather than a full sort). It
// computes exactly the same order statistics as Median — the returned
// value is bit-identical on NaN-free input, except that a median tied
// between -0 and +0 may carry either sign — but in O(n) expected time
// with zero allocation, which is why the assessment hot path's
// per-timepoint aggregation uses it over a reused buffer. It panics on an
// empty sample. Callers that must preserve order use Median.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("stats: Median of empty sample")
	}
	hi := quickselect(xs, n/2)
	if n%2 == 1 {
		return hi
	}
	// Even length: quickselect left xs[:n/2] holding the n/2 smallest
	// values, so the (n/2−1)-th order statistic is their maximum.
	lo := xs[0]
	for _, v := range xs[1 : n/2] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// quickselect returns the k-th smallest value of xs (0-based), partially
// ordering xs so that xs[:k] ≤ xs[k] ≤ xs[k+1:]. Deterministic
// median-of-three pivoting; small ranges fall back to insertion sort.
// The partition passes compare order keys without a branch (see
// partitionBelow), which halves the cost of a 50-value median against a
// branching Hoare partition, whose mispredicted comparisons dominate at
// that size.
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for hi-lo > 8 {
		// Median-of-three pivot, parked at xs[hi].
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		xs[mid], xs[hi] = xs[hi], xs[mid]
		kp := orderKey(pivot)
		s := lo + partitionBelow(xs[lo:hi], kp)
		xs[s], xs[hi] = xs[hi], xs[s]
		switch {
		case k == s:
			return pivot
		case k < s:
			hi = s - 1
			continue
		}
		// Values equal to the pivot all land right of it. When the split
		// is lopsided, gather them next to the pivot, so heavy ties cannot
		// make the selection quadratic.
		e := s
		if s-lo < (hi-lo)/8 {
			e += partitionBelow(xs[s+1:hi+1], kp+1)
			if k <= e {
				return pivot
			}
		}
		lo = e + 1
	}
	// Insertion sort the remaining window.
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
	return xs[k]
}

// orderKey maps a non-NaN float64 to a uint64 of the same order, with
// -0 and +0 sharing one key as they compare equal.
func orderKey(v float64) uint64 {
	u := math.Float64bits(v + 0) // -0 + 0 is +0; every other v is unchanged
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// partitionBelow moves the values of w whose order key is below bound to
// the front of w, and returns how many there are. The loop swaps every
// value and advances the boundary by the borrow of a key subtraction,
// so it takes no data-dependent branch.
func partitionBelow(w []float64, bound uint64) int {
	s := 0
	for i, v := range w {
		w[i] = w[s]
		w[s] = v
		_, below := bits.Sub64(orderKey(v), bound, 0)
		s += int(below)
	}
	return s
}

// Variance returns the unbiased (n−1 denominator) sample variance.
// It panics if the sample has fewer than two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		panic(fmt.Sprintf("stats: Variance needs >= 2 observations, got %d", len(xs)))
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MAD returns the median absolute deviation from the median — the robust
// scale estimate used when screening for one-off outliers.
func MAD(xs []float64) float64 {
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, v := range xs {
		dev[i] = math.Abs(v - m)
	}
	return Median(dev)
}

// Quantile returns the q-th sample quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics (type-7, the common default).
// It panics on an empty sample or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v outside [0,1]", q))
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	if len(tmp) == 1 {
		return tmp[0]
	}
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// MinMax returns the smallest and largest values of xs.
// It panics on an empty sample.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty sample")
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Lag1Autocorrelation returns the lag-1 sample autocorrelation of xs,
// used to correct rank tests for serial dependence (Bartlett-style
// effective sample size). It returns 0 for samples shorter than three
// observations or with zero variance.
func Lag1Autocorrelation(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
		if i > 0 {
			num += d * (xs[i-1] - m)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PearsonCorrelation returns the sample Pearson correlation coefficient of
// the paired samples xs and ys. It panics if lengths differ or n < 2, and
// returns 0 if either sample has zero variance.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: correlation of samples with different lengths %d, %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		panic("stats: correlation needs >= 2 observations")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
