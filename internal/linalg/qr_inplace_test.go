package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomTall returns a well-conditioned random m×n design (m ≥ n) with a
// leading intercept column, the shape the regression kernel factorizes.
func randomTall(rng *rand.Rand, m, n int) *Matrix {
	x := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		x.Set(i, 0, 1)
		for j := 1; j < n; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	return x
}

// TestFactorReuseMatchesNewQR pins that refactorizing through one reused
// QR value — the scratch-arena path — yields bit-identical solves and
// leverages to a freshly allocated factorization, across shrinking and
// growing shapes.
func TestFactorReuseMatchesNewQR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused QR
	for trial := 0; trial < 30; trial++ {
		m := 8 + rng.Intn(40)
		n := 2 + rng.Intn(6)
		x := randomTall(rng, m, n)
		y := make([]float64, m)
		for i := range y {
			y[i] = rng.NormFloat64()
		}

		fresh := NewQR(x)
		reused.Factor(x)

		bFresh, err1 := fresh.Solve(y)
		bReused, err2 := reused.Solve(y)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: solve errors %v, %v", trial, err1, err2)
		}
		for j := range bFresh {
			if bFresh[j] != bReused[j] {
				t.Fatalf("trial %d: reused-QR solution differs at %d: %v vs %v", trial, j, bReused[j], bFresh[j])
			}
		}
		hFresh, err1 := fresh.Leverages(x)
		hReused, err2 := reused.Leverages(x)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: leverage errors %v, %v", trial, err1, err2)
		}
		for i := range hFresh {
			if hFresh[i] != hReused[i] {
				t.Fatalf("trial %d: reused-QR leverage differs at %d: %v vs %v", trial, i, hReused[i], hFresh[i])
			}
		}
	}
}

// TestSolveIntoMatchesSolve pins the in-place solver against the
// allocating wrapper and checks the work-buffer contracts.
func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randomTall(rng, 30, 5)
	y := make([]float64, 30)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	f := NewQR(x)
	want, err := f.Solve(y)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 5)
	work := make([]float64, 30)
	if err := f.SolveInto(got, y, work); err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("SolveInto differs at %d: %v vs %v", j, got[j], want[j])
		}
	}
	mustPanic(t, "short x", func() { _ = f.SolveInto(make([]float64, 4), y, work) })
	mustPanic(t, "short work", func() { _ = f.SolveInto(got, y, make([]float64, 29)) })
}

// TestLeveragesIntoMatchesLeverages pins the in-place leverage kernel and
// its buffer contracts, and that repeated calls over one factorization
// are stable (the cross-element sharing pattern).
func TestLeveragesIntoMatchesLeverages(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randomTall(rng, 24, 4)
	f := NewQR(x)
	want, err := f.Leverages(x)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 24)
	work := make([]float64, 4)
	for rep := 0; rep < 3; rep++ {
		if err := f.LeveragesInto(dst, x, work); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("rep %d: LeveragesInto differs at %d: %v vs %v", rep, i, dst[i], want[i])
			}
		}
	}
	mustPanic(t, "short dst", func() { _ = f.LeveragesInto(make([]float64, 23), x, work) })
	mustPanic(t, "short work", func() { _ = f.LeveragesInto(dst, x, make([]float64, 3)) })
	mustPanic(t, "wrong shape", func() { _ = f.LeveragesInto(dst, randomTall(rng, 24, 5), make([]float64, 5)) })
}

// TestScaledColumnNormExtremes checks the dlassq-style column norm where
// naive sum-of-squares would overflow or underflow: the factorization
// must still solve accurately.
func TestScaledColumnNormExtremes(t *testing.T) {
	// The whole design sits at an extreme scale: naive sum-of-squares of a
	// column would underflow to 0 (1e-160² = 1e-320) or overflow to +Inf
	// (1e150² = 1e300·1e0 per term, summed), but the scaled one-pass norm
	// must keep the factorization exact enough to recover beta = [2 3].
	for _, scale := range []float64{1e-160, 1e+150} {
		x := NewMatrix(4, 2)
		for i := 0; i < 4; i++ {
			x.Set(i, 0, scale)
			x.Set(i, 1, scale*float64(i+1))
		}
		y := make([]float64, 4)
		for i := 0; i < 4; i++ {
			y[i] = 2*x.At(i, 0) + 3*x.At(i, 1)
		}
		beta, err := NewQR(x).Solve(y)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if math.Abs(beta[0]-2) > 1e-9 || math.Abs(beta[1]-3) > 1e-9 {
			t.Errorf("scale %g: beta = %v, want [2 3]", scale, beta)
		}
	}
}

func TestSelectColsWithInterceptMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMatrix(9, 6)
	for i := 0; i < 9; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	idx := []int{4, 0, 5, 0}
	want := m.SelectCols(idx).WithInterceptColumn()
	var dst Matrix
	for rep := 0; rep < 2; rep++ { // second pass reuses dst's storage
		got := m.SelectColsWithIntercept(&dst, idx)
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		for i := 0; i < want.Rows(); i++ {
			for j := 0; j < want.Cols(); j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("rep %d: (%d,%d) = %v, want %v", rep, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
	if got := m.SelectColsWithIntercept(nil, idx); !got.Equal(want, 0) {
		t.Error("nil-dst SelectColsWithIntercept differs from composition")
	}
	mustPanic(t, "aliased dst", func() { m.SelectColsWithIntercept(m, idx) })
	mustPanic(t, "out of range", func() { m.SelectColsWithIntercept(&dst, []int{6}) })
}

func TestSelectRowsIntoAndMulVecInto(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	var dst Matrix
	got := m.SelectRowsInto(&dst, []int{2, 0})
	want := m.SelectRows([]int{2, 0})
	if !got.Equal(want, 0) {
		t.Errorf("SelectRowsInto = %v, want %v", got, want)
	}
	mustPanic(t, "aliased dst", func() { m.SelectRowsInto(m, []int{0}) })

	x := []float64{10, 100}
	out := make([]float64, 3)
	if got := m.MulVecInto(out, x); &got[0] != &out[0] {
		t.Error("MulVecInto did not return dst")
	}
	wantVec := m.MulVec(x)
	for i := range wantVec {
		if out[i] != wantVec[i] {
			t.Errorf("MulVecInto[%d] = %v, want %v", i, out[i], wantVec[i])
		}
	}
	mustPanic(t, "short dst", func() { m.MulVecInto(make([]float64, 2), x) })
}

func TestReshapeReusesStorage(t *testing.T) {
	m := NewMatrix(4, 3)
	data := &m.data[0]
	m.Reshape(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	if &m.data[0] != data {
		t.Error("equal-size Reshape reallocated")
	}
	m.Reshape(2, 2)
	if &m.data[0] != data {
		t.Error("shrinking Reshape reallocated")
	}
	m.Reshape(10, 10)
	if m.Rows() != 10 || m.Cols() != 10 {
		t.Fatalf("shape %dx%d, want 10x10", m.Rows(), m.Cols())
	}
	mustPanic(t, "negative", func() { m.Reshape(-1, 2) })
}

// TestOverCarvesStorage pins the arena contract of Over and QROver: a
// view reuses its slice of the buffer while the shape fits, never grows
// into its neighbor's, and a factorization on carved storage equals a
// fresh one bit for bit.
func TestOverCarvesStorage(t *testing.T) {
	buf := make([]float64, 12+4+24+4)
	m := Over(buf[:12])
	m.Reshape(4, 3)
	if &m.data[0] != &buf[0] {
		t.Error("Reshape within the view reallocated")
	}
	next := buf[12:16]
	next[0] = 42
	m.Reshape(4, 4) // past the view: must allocate, not spill
	if &m.data[0] == &buf[0] || next[0] != 42 {
		t.Error("Reshape past the view wrote into the neighboring storage")
	}

	x := randomTall(rand.New(rand.NewSource(3)), 8, 3)
	qr := QROver(buf[16:40], buf[40:44])
	qr.Factor(x)
	if &qr.qr.data[0] != &buf[16] || &qr.rd[0] != &buf[40] {
		t.Error("Factor on carved storage reallocated")
	}
	fresh := NewQR(x)
	for i := range fresh.qr.data {
		if fresh.qr.data[i] != qr.qr.data[i] {
			t.Fatalf("packed factor %d differs: %v vs %v", i, qr.qr.data[i], fresh.qr.data[i])
		}
	}
}

func TestRSquaredFromFittedMatchesRSquared(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := randomTall(rng, 20, 3)
	y := make([]float64, 20)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RSquaredFromFitted(x.MulVec(beta), y), RSquared(x, beta, y); got != want {
		t.Errorf("RSquaredFromFitted = %v, want %v", got, want)
	}
	mustPanic(t, "length mismatch", func() { RSquaredFromFitted(make([]float64, 3), y) })
}

// BenchmarkQRReuse quantifies the kernel redesign on a representative
// regression shape (56 fit rows, 10 controls + intercept — the bench
// world's design). Three variants:
//
//   - factor-twice: the seed kernel's cost model — one factorization to
//     solve, a second inside package-level Leverages;
//   - factor-once: one factorization feeding SolveInto + LeveragesInto
//     through reused buffers (the AssessElement inner loop);
//   - solve-only: the marginal per-element cost when AssessGroup shares
//     one factorization across a group.
func BenchmarkQRReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	const m, n = 56, 11
	x := randomTall(rng, m, n)
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.NormFloat64()
	}

	b.Run("factor-twice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := NewQR(x)
			if _, err := f.Solve(y); err != nil {
				b.Fatal(err)
			}
			if _, err := Leverages(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factor-once", func(b *testing.B) {
		b.ReportAllocs()
		var f QR
		beta := make([]float64, n)
		work := make([]float64, m)
		hs := make([]float64, m)
		zwork := make([]float64, n)
		for i := 0; i < b.N; i++ {
			f.Factor(x)
			if err := f.SolveInto(beta, y, work); err != nil {
				b.Fatal(err)
			}
			if err := f.LeveragesInto(hs, x, zwork); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve-only", func(b *testing.B) {
		b.ReportAllocs()
		f := NewQR(x)
		beta := make([]float64, n)
		work := make([]float64, m)
		for i := 0; i < b.N; i++ {
			if err := f.SolveInto(beta, y, work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
