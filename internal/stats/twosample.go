package stats

import (
	"fmt"
	"math"
	"sort"
)

// TestResult is the outcome of a two-sample location comparison of a
// "before" sample X against an "after" sample Y.
type TestResult struct {
	// Statistic is the (approximately) standard-normal test statistic.
	// Positive values indicate the second sample (Y) tends to be larger.
	Statistic float64
	// P is the two-sided p-value under the normal approximation.
	P float64
	// N1, N2 are the sample sizes.
	N1, N2 int
}

// SignificantAt reports whether the two-sided test rejects at level alpha.
func (r TestResult) SignificantAt(alpha float64) bool { return r.P < alpha }

// Direction returns +1 if Y is significantly larger than X at level alpha,
// −1 if significantly smaller, and 0 otherwise.
func (r TestResult) Direction(alpha float64) int {
	if !r.SignificantAt(alpha) {
		return 0
	}
	if r.Statistic > 0 {
		return 1
	}
	return -1
}

func (r TestResult) String() string {
	return fmt.Sprintf("z=%.3f p=%.4f (n1=%d n2=%d)", r.Statistic, r.P, r.N1, r.N2)
}

const minSampleSize = 3

// MannWhitney performs the Wilcoxon–Mann–Whitney rank-sum test of X vs Y
// with midrank tie handling and tie-corrected normal approximation. The
// returned statistic is positive when Y stochastically dominates X.
//
// It returns an error when either sample is smaller than three
// observations or the pooled sample is constant (no ordering information).
func MannWhitney(x, y []float64) (TestResult, error) {
	n1, n2 := len(x), len(y)
	if n1 < minSampleSize || n2 < minSampleSize {
		return TestResult{}, fmt.Errorf("%w: MannWhitney needs >= %d observations per sample, got %d and %d", ErrSampleTooSmall, minSampleSize, n1, n2)
	}
	pooled := make([]float64, 0, n1+n2)
	pooled = append(pooled, x...)
	pooled = append(pooled, y...)
	lo, hi := MinMax(pooled)
	if lo == hi {
		return TestResult{}, fmt.Errorf("%w: MannWhitney on constant pooled sample", ErrDegenerate)
	}
	ranks := Ranks(pooled)
	var r1 float64
	for i := 0; i < n1; i++ {
		r1 += ranks[i]
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2 // #pairs where x beats y (with ties half-counted)
	mean := fn1 * fn2 / 2
	nTot := fn1 + fn2
	tieTerm := TieCorrection(pooled) / (nTot * (nTot - 1))
	variance := fn1 * fn2 / 12 * (nTot + 1 - tieTerm)
	if variance <= 0 {
		return TestResult{}, fmt.Errorf("%w: MannWhitney degenerate variance", ErrDegenerate)
	}
	// u1 large ⇒ X larger; flip sign so positive ⇒ Y larger.
	z := -(u1 - mean) / math.Sqrt(variance)
	return TestResult{Statistic: z, P: TwoSidedP(z), N1: n1, N2: n2}, nil
}

// FlignerPolicello performs the robust rank-order test (Fligner &
// Policello 1981), the test the paper selects (§3.2, refs [9,18,27])
// because — unlike Mann–Whitney — it does not assume equal variances and
// resists one-off outliers while still catching level shifts and
// ramps. The returned statistic is positive when Y tends to be larger.
//
// It returns an error for samples smaller than three observations or when
// the statistic is degenerate (both placement variances zero with equal
// means — e.g. two identical constant samples).
func FlignerPolicello(x, y []float64) (TestResult, error) {
	return FlignerPolicelloBuf(x, y, make([]float64, 2*(len(x)+len(y))))
}

// FlignerPolicelloBuf is FlignerPolicello working in buf's storage, which
// must have room for 2·(len(x)+len(y)) values — the sorted copies of x
// and y and their placements — and is overwritten. x and y are only
// read, so a caller that reuses buf runs the test without allocating.
func FlignerPolicelloBuf(x, y, buf []float64) (TestResult, error) {
	n1, n2 := len(x), len(y)
	if n1 < minSampleSize || n2 < minSampleSize {
		return TestResult{}, fmt.Errorf("%w: FlignerPolicello needs >= %d observations per sample, got %d and %d", ErrSampleTooSmall, minSampleSize, n1, n2)
	}
	n := n1 + n2
	sortedX, sortedY := buf[:n1:n1], buf[n1:n:n]
	ux, uy := buf[n:n+n1:n+n1], buf[n+n1:2*n:2*n]
	copy(sortedX, x)
	copy(sortedY, y)
	sort.Float64s(sortedX)
	sort.Float64s(sortedY)

	placementsInto(ux, x, sortedY) // for each x: #ys below it
	placementsInto(uy, y, sortedX) // for each y: #xs below it
	mux, muy := Mean(ux), Mean(uy)
	var vx, vy float64
	for _, u := range ux {
		d := u - mux
		vx += d * d
	}
	for _, u := range uy {
		d := u - muy
		vy += d * d
	}
	num := float64(n2)*muy - float64(n1)*mux // positive ⇒ ys placed above xs
	den := 2 * math.Sqrt(vx+vy+mux*muy)
	if den == 0 {
		if num == 0 {
			// Perfectly balanced degenerate case (e.g. identical constant
			// samples): report no evidence of a shift.
			return TestResult{Statistic: 0, P: 1, N1: n1, N2: n2}, nil
		}
		// Complete separation with zero placement variance: the samples are
		// disjoint constants. Report a large finite statistic.
		z := math.Copysign(8, num)
		return TestResult{Statistic: z, P: TwoSidedP(z), N1: n1, N2: n2}, nil
	}
	z := num / den
	return TestResult{Statistic: z, P: TwoSidedP(z), N1: n1, N2: n2}, nil
}

// placementsInto writes into dst, for each x in xs, its placement in the
// ascending sortedYs: the count of values strictly less than x plus half
// the count equal to x — the Fligner–Policello statistic's half-count
// tie convention.
func placementsInto(dst, xs, sortedYs []float64) {
	for i, x := range xs {
		lo := sort.SearchFloat64s(sortedYs, x)
		hi := lo
		for hi < len(sortedYs) && sortedYs[hi] == x {
			hi++
		}
		dst[i] = float64(lo) + float64(hi-lo)/2
	}
}

// MedianShift returns Median(y) − Median(x): the effect-size companion to
// the rank tests, used for reporting and for DiD with h = median.
func MedianShift(x, y []float64) float64 { return Median(y) - Median(x) }

// MeanShift returns Mean(y) − Mean(x).
func MeanShift(x, y []float64) float64 { return Mean(y) - Mean(x) }

// WelchT performs Welch's unequal-variance t-test with a normal
// approximation to the reference distribution (adequate at the window
// sizes Litmus uses). Positive statistic ⇒ Y larger. Used by the DiD
// baseline to judge whether a difference-in-differences is significant.
func WelchT(x, y []float64) (TestResult, error) {
	n1, n2 := len(x), len(y)
	if n1 < minSampleSize || n2 < minSampleSize {
		return TestResult{}, fmt.Errorf("%w: WelchT needs >= %d observations per sample, got %d and %d", ErrSampleTooSmall, minSampleSize, n1, n2)
	}
	v1, v2 := Variance(x), Variance(y)
	se := math.Sqrt(v1/float64(n1) + v2/float64(n2))
	if se == 0 {
		if Mean(y) == Mean(x) {
			return TestResult{Statistic: 0, P: 1, N1: n1, N2: n2}, nil
		}
		z := math.Copysign(8, Mean(y)-Mean(x))
		return TestResult{Statistic: z, P: TwoSidedP(z), N1: n1, N2: n2}, nil
	}
	z := (Mean(y) - Mean(x)) / se
	return TestResult{Statistic: z, P: TwoSidedP(z), N1: n1, N2: n2}, nil
}
