package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func normSample(rng *rand.Rand, n int, mean, sd float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + sd*rng.NormFloat64()
	}
	return xs
}

func TestRanksMidranks(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksAllTied(t *testing.T) {
	got := Ranks([]float64{5, 5, 5})
	for _, r := range got {
		if r != 2 {
			t.Fatalf("Ranks of constant sample = %v, want all 2", got)
		}
	}
}

func TestRanksPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5)) // force ties
		}
		ranks := Ranks(xs)
		// Sum of ranks must always be n(n+1)/2.
		var sum float64
		for _, r := range ranks {
			sum += r
		}
		return almostEqual(sum, float64(n*(n+1))/2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// placements returns, for each x in xs, the count of values in ys
// strictly less than x plus half the count equal to x, counted one pair
// at a time: the textbook placement array flignerPolicelloRef is built
// on, with no sorting or search.
func placements(xs, ys []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		for _, y := range ys {
			switch {
			case y < x:
				out[i]++
			case y == x:
				out[i] += 0.5
			}
		}
	}
	return out
}

// flignerPolicelloRef is the Fligner–Policello test straight from its
// formula over the placement arrays.
func flignerPolicelloRef(x, y []float64) (TestResult, error) {
	n1, n2 := len(x), len(y)
	if n1 < minSampleSize || n2 < minSampleSize {
		return TestResult{}, ErrSampleTooSmall
	}
	ux, uy := placements(x, y), placements(y, x)
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
	num := float64(n2)*muy - float64(n1)*mux
	den := 2 * math.Sqrt(vx+vy+mux*muy)
	if den == 0 {
		if num == 0 {
			return TestResult{Statistic: 0, P: 1, N1: n1, N2: n2}, nil
		}
		z := math.Copysign(8, num)
		return TestResult{Statistic: z, P: TwoSidedP(z), N1: n1, N2: n2}, nil
	}
	z := num / den
	return TestResult{Statistic: z, P: TwoSidedP(z), N1: n1, N2: n2}, nil
}

func TestPlacements(t *testing.T) {
	ys := []float64{1, 2, 3, 4}
	got := placements([]float64{0, 2.5, 2, 10}, ys)
	want := []float64{0, 2, 1.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placements = %v, want %v", got, want)
		}
	}
}

// TestPoolFlignerPolicelloMatchesPlacements pins the buffer form of the
// test bit for bit against the formula over counted placement arrays —
// on random samples with ties and uneven sizes, through one reused
// buffer left dirty by the previous pair, and on every
// FuzzFlignerPolicello seed — and checks that it leaves x and y as they
// were.
func TestPoolFlignerPolicelloMatchesPlacements(t *testing.T) {
	var buf []float64
	check := func(x, y []float64) {
		t.Helper()
		want, wantErr := flignerPolicelloRef(x, y)
		x0, y0 := append([]float64(nil), x...), append([]float64(nil), y...)
		n := 2 * (len(x) + len(y))
		if cap(buf) < n {
			buf = make([]float64, n)
		}
		got, err := FlignerPolicelloBuf(x, y, buf[:n])
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("FlignerPolicelloBuf(%v, %v) error %v, reference %v", x, y, err, wantErr)
		}
		if math.Float64bits(got.Statistic) != math.Float64bits(want.Statistic) || math.Float64bits(got.P) != math.Float64bits(want.P) || got.N1 != want.N1 || got.N2 != want.N2 {
			t.Fatalf("FlignerPolicelloBuf(%v, %v) = %+v, reference %+v", x, y, got, want)
		}
		for i := range x0 {
			if math.Float64bits(x[i]) != math.Float64bits(x0[i]) {
				t.Fatalf("FlignerPolicelloBuf permuted x: %v, was %v", x, x0)
			}
		}
		for i := range y0 {
			if math.Float64bits(y[i]) != math.Float64bits(y0[i]) {
				t.Fatalf("FlignerPolicelloBuf permuted y: %v, was %v", y, y0)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n1, n2 := 1+rng.Intn(80), 1+rng.Intn(80)
		levels := 1 + rng.Intn(12) // few levels: heavy ties
		draw := func(n int, shift float64) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if trial%2 == 0 {
					xs[i] = float64(rng.Intn(levels)) + shift
				} else {
					xs[i] = rng.NormFloat64()*0.1 + shift
				}
			}
			return xs
		}
		check(draw(n1, 0), draw(n2, rng.Float64()-0.5))
	}
	for _, s := range fpFuzzSeeds {
		check(s[0], s[1])
	}
}

func TestTieCorrection(t *testing.T) {
	// One tie group of 3: 27-3 = 24; one of 2: 8-2 = 6.
	if got := TieCorrection([]float64{1, 1, 1, 2, 2, 3}); got != 30 {
		t.Errorf("TieCorrection = %v, want 30", got)
	}
	if got := TieCorrection([]float64{1, 2, 3}); got != 0 {
		t.Errorf("TieCorrection of distinct values = %v, want 0", got)
	}
}

func TestMannWhitneyDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := normSample(rng, 50, 0, 1)
	y := normSample(rng, 50, 2, 1)
	r, err := MannWhitney(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction(0.05) != 1 {
		t.Errorf("failed to detect upward shift: %v", r)
	}
	rRev, err := MannWhitney(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if rRev.Direction(0.05) != -1 {
		t.Errorf("failed to detect downward shift: %v", rRev)
	}
}

func TestMannWhitneyNullCalibration(t *testing.T) {
	// Under the null, the rejection rate at alpha=0.05 should be near 5%.
	rng := rand.New(rand.NewSource(7))
	const trials = 400
	rejects := 0
	for i := 0; i < trials; i++ {
		x := normSample(rng, 20, 0, 1)
		y := normSample(rng, 20, 0, 1)
		r, err := MannWhitney(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if r.SignificantAt(0.05) {
			rejects++
		}
	}
	rate := float64(rejects) / trials
	if rate > 0.10 {
		t.Errorf("null rejection rate = %v, want <= 0.10", rate)
	}
}

func TestMannWhitneyErrors(t *testing.T) {
	if _, err := MannWhitney([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("expected error for tiny sample")
	}
	if _, err := MannWhitney([]float64{5, 5, 5}, []float64{5, 5, 5}); err == nil {
		t.Error("expected error for constant pooled sample")
	}
}

func TestFlignerPolicelloDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := normSample(rng, 30, 0, 1)
	y := normSample(rng, 30, 1.5, 1)
	r, err := FlignerPolicello(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction(0.05) != 1 {
		t.Errorf("failed to detect upward shift: %v", r)
	}
}

func TestFlignerPolicelloAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := normSample(rng, 5+rng.Intn(20), 0, 1)
		y := normSample(rng, 5+rng.Intn(20), 0.5, 2)
		a, err1 := FlignerPolicello(x, y)
		b, err2 := FlignerPolicello(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(a.Statistic, -b.Statistic, 1e-9) && almostEqual(a.P, b.P, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFlignerPolicelloRobustToOutlier(t *testing.T) {
	// A single extreme outlier in the before sample must not manufacture a
	// significant shift.
	rng := rand.New(rand.NewSource(3))
	x := normSample(rng, 14, 0, 1)
	x[0] = 500 // one-off spike
	y := normSample(rng, 14, 0, 1)
	r, err := FlignerPolicello(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.SignificantAt(0.05) {
		t.Errorf("one-off outlier produced significance: %v", r)
	}
}

func TestFlignerPolicelloUnequalVariances(t *testing.T) {
	// Same location, wildly different variances: should not reject often.
	rng := rand.New(rand.NewSource(5))
	rejects := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		x := normSample(rng, 25, 0, 0.2)
		y := normSample(rng, 25, 0, 5)
		r, err := FlignerPolicello(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if r.SignificantAt(0.05) {
			rejects++
		}
	}
	if rate := float64(rejects) / trials; rate > 0.12 {
		t.Errorf("unequal-variance null rejection rate = %v, want small", rate)
	}
}

func TestFlignerPolicelloDegenerateCases(t *testing.T) {
	// Identical constant samples: no shift, p = 1.
	r, err := FlignerPolicello([]float64{2, 2, 2}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic != 0 || r.P != 1 {
		t.Errorf("identical constants: %v, want z=0 p=1", r)
	}
	// Disjoint constants: decisive shift.
	r, err = FlignerPolicello([]float64{1, 1, 1}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction(0.05) != 1 {
		t.Errorf("disjoint constants: %v, want strong positive", r)
	}
}

func TestFlignerPolicelloDetectsRamp(t *testing.T) {
	// Ramp-up change signature (paper §3.2): before flat, after ramping.
	x := make([]float64, 14)
	y := make([]float64, 14)
	for i := range y {
		y[i] = float64(i) * 0.3
	}
	r, err := FlignerPolicello(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction(0.05) != 1 {
		t.Errorf("failed to detect ramp-up: %v", r)
	}
}

func TestWelchT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := normSample(rng, 40, 0, 1)
	y := normSample(rng, 40, 1, 1)
	r, err := WelchT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction(0.05) != 1 {
		t.Errorf("WelchT failed to detect shift: %v", r)
	}
	same, err := WelchT([]float64{1, 1, 1}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if same.P != 1 {
		t.Errorf("constant equal samples: p = %v, want 1", same.P)
	}
	diff, err := WelchT([]float64{1, 1, 1}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Direction(0.05) != 1 {
		t.Errorf("constant shifted samples: %v", diff)
	}
}

func TestShiftHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := MedianShift(x, y); got != 3 {
		t.Errorf("MedianShift = %v, want 3", got)
	}
	if got := MeanShift(x, y); got != 3 {
		t.Errorf("MeanShift = %v, want 3", got)
	}
}

func TestNormalCDFValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.96, 0.9750021},
		{-1.96, 0.0249979},
		{3, 0.9986501},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !almostEqual(got, p, 1e-8) {
			t.Errorf("round trip p=%v: CDF(Quantile) = %v", p, got)
		}
	}
}

func TestNormalQuantileBadPPanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) should panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestTwoSidedPBounds(t *testing.T) {
	if p := TwoSidedP(0); p != 1 {
		t.Errorf("TwoSidedP(0) = %v, want 1", p)
	}
	if p := TwoSidedP(10); p > 1e-20 {
		t.Errorf("TwoSidedP(10) = %v, want tiny", p)
	}
	if p := TwoSidedP(-10); p > 1e-20 {
		t.Errorf("TwoSidedP(-10) = %v, want tiny", p)
	}
}

func TestMannWhitneyVsFlignerPolicelloAgreementOnCleanShift(t *testing.T) {
	// On clean equal-variance level shifts the two tests should agree in
	// direction.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 25; i++ {
		x := normSample(rng, 30, 0, 1)
		y := normSample(rng, 30, 3, 1)
		mw, err1 := MannWhitney(x, y)
		fp, err2 := FlignerPolicello(x, y)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if mw.Direction(0.05) != fp.Direction(0.05) {
			t.Errorf("disagreement on clean shift: MW %v vs FP %v", mw, fp)
		}
	}
}

func TestFlignerPolicelloStatisticFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := normSample(rng, 3+rng.Intn(30), rng.NormFloat64()*5, 0.1+rng.Float64()*3)
		y := normSample(rng, 3+rng.Intn(30), rng.NormFloat64()*5, 0.1+rng.Float64()*3)
		r, err := FlignerPolicello(x, y)
		if err != nil {
			return false
		}
		return !math.IsNaN(r.Statistic) && !math.IsInf(r.Statistic, 0) && r.P >= 0 && r.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
