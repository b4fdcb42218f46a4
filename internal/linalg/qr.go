package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDeficient is returned by the QR least-squares solver when the
// design matrix is numerically rank deficient. Callers that can tolerate a
// regularized answer should fall back to SolveRidge with a tiny lambda
// (see LeastSquares, which does exactly that).
var ErrRankDeficient = errors.New("linalg: design matrix is numerically rank deficient")

// QR holds the Householder QR factorization of an m×n matrix with m ≥ n.
//
// The factorization is the single product of one pass over the design
// matrix: Solve, Leverages, and the fitted-value statistics all hang off
// it, so the regression hot path factorizes each design exactly once. A
// QR value owns its storage and may be reused across factorizations via
// Factor, which recycles the packed-factor and diagonal buffers instead
// of allocating — the scratch-arena discipline of the assessment inner
// loop. The zero value is ready for Factor.
type QR struct {
	qr   Matrix    // packed factors: R in upper triangle, Householder vectors below
	rd   []float64 // diagonal of R
	m, n int
}

// QROver returns an empty factorization backed by qr (the packed
// factors) and rd (the diagonal of R): Factor reuses them while the
// shape fits, so an arena can carve factorizations out of one
// allocation.
func QROver(qr, rd []float64) QR { return QR{qr: Over(qr), rd: rd[:0:len(rd)]} }

// NewQR computes the Householder QR factorization of a. It panics if a has
// fewer rows than columns (the regression always operates in the
// overdetermined regime; see core.clampSampleSize).
func NewQR(a *Matrix) *QR {
	f := &QR{}
	f.Factor(a)
	return f
}

// Factor computes the Householder QR factorization of a in f, replacing
// any previous factorization and reusing f's storage when possible. a is
// left untouched. It panics if a has fewer rows than columns.
func (f *QR) Factor(a *Matrix) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		panic(fmt.Sprintf("linalg: QR requires rows >= cols, got %dx%d", m, n))
	}
	f.m, f.n = m, n
	f.qr.Reshape(m, n)
	copy(f.qr.data, a.data)
	if cap(f.rd) < n {
		f.rd = make([]float64, n)
	}
	f.rd = f.rd[:n]
	qr := f.qr.data
	for k := 0; k < n; k++ {
		// Euclidean norm of the k-th column below the diagonal, computed
		// with one scaled sum-of-squares pass (LAPACK dlassq style):
		// overflow/underflow-safe like math.Hypot, but a single multiply-add
		// per element instead of a function call with its own sqrt.
		var scale float64
		ssq := 1.0
		for i := k; i < m; i++ {
			v := qr[i*n+k]
			if v == 0 {
				continue
			}
			av := math.Abs(v)
			if scale < av {
				r := scale / av
				ssq = 1 + ssq*r*r
				scale = av
			} else {
				r := av / scale
				ssq += r * r
			}
		}
		nrm := scale * math.Sqrt(ssq)
		if nrm != 0 {
			if qr[k*n+k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr[i*n+k] /= nrm
			}
			qr[k*n+k]++
			// Apply the transformation to the remaining columns.
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr[i*n+k] * qr[i*n+j]
				}
				s = -s / qr[k*n+k]
				for i := k; i < m; i++ {
					qr[i*n+j] += s * qr[i*n+k]
				}
			}
		}
		f.rd[k] = -nrm
	}
}

// Cap returns the number of values f's storage holds: the packed
// factors and the diagonal of R.
func (f *QR) Cap() int { return f.qr.Cap() + cap(f.rd) }

// Rows returns the row count of the factored matrix.
func (f *QR) Rows() int { return f.m }

// Cols returns the column count of the factored matrix.
func (f *QR) Cols() int { return f.n }

// ConditionEstimate returns the ratio of the largest to smallest absolute
// diagonal entry of R — a cheap lower bound on the condition number, used
// to detect numerically useless fits. Returns +Inf if any diagonal entry
// is zero.
func (f *QR) ConditionEstimate() float64 {
	maxd, mind := 0.0, math.Inf(1)
	for _, d := range f.rd {
		ad := math.Abs(d)
		if ad > maxd {
			maxd = ad
		}
		if ad < mind {
			mind = ad
		}
	}
	if mind == 0 {
		return math.Inf(1)
	}
	return maxd / mind
}

// FullRank reports whether R has no numerically negligible diagonal entry
// relative to its largest one.
func (f *QR) FullRank() bool {
	var maxd float64
	for _, d := range f.rd {
		if ad := math.Abs(d); ad > maxd {
			maxd = ad
		}
	}
	if maxd == 0 {
		return false
	}
	for _, d := range f.rd {
		if math.Abs(d) <= qrRankTol*maxd {
			return false
		}
	}
	return true
}

// Leverages returns the diagonal of the hat matrix H = X(XᵀX)⁻¹Xᵀ for the
// design matrix x: h_ii = ‖R⁻ᵀ·xᵢ‖² computed from a QR factorization.
// Leverages drive leave-one-out residuals, e_loo = e/(1−h), which the
// Litmus core uses to put pre-change (in-sample) forecast differences on
// the same scale as post-change (out-of-sample) ones. It returns
// ErrRankDeficient when the factorization is numerically singular.
//
// This package-level form factorizes x itself; callers that already hold
// the factorization (the regression hot path) use QR.LeveragesInto and
// pay for exactly one factorization per design.
func Leverages(x *Matrix) ([]float64, error) {
	return NewQR(x).Leverages(x)
}

// Leverages computes the hat-matrix diagonal of x using the stored
// factorization, allocating the result. x must be the matrix the
// factorization was computed from.
func (f *QR) Leverages(x *Matrix) ([]float64, error) {
	out := make([]float64, x.Rows())
	work := make([]float64, f.n)
	if err := f.LeveragesInto(out, x, work); err != nil {
		return nil, err
	}
	return out, nil
}

// LeveragesInto computes the hat-matrix diagonal of x into dst using the
// stored factorization, with no allocation: dst must have length x.Rows()
// and work length ≥ Cols(). x must be the matrix the factorization was
// computed from (same dimensions; the method reads x's rows, not the
// packed factors, for the right-hand sides). It returns ErrRankDeficient
// when the factorization is numerically singular. The method only reads
// the factorization, so concurrent calls sharing one QR are safe as long
// as each supplies its own dst and work.
func (f *QR) LeveragesInto(dst []float64, x *Matrix, work []float64) error {
	if x.Rows() != f.m || x.Cols() != f.n {
		panic(fmt.Sprintf("linalg: LeveragesInto matrix %dx%d, factored %dx%d", x.Rows(), x.Cols(), f.m, f.n))
	}
	if len(dst) != f.m || len(work) < f.n {
		panic(fmt.Sprintf("linalg: LeveragesInto dst %d work %d, want %d and >= %d", len(dst), len(work), f.m, f.n))
	}
	if !f.FullRank() {
		return ErrRankDeficient
	}
	n := f.n
	z := work[:n]
	for i := range dst {
		// Forward solve Rᵀ·z = xᵢ (Rᵀ lower triangular).
		for j := 0; j < n; j++ {
			s := x.At(i, j)
			for l := 0; l < j; l++ {
				s -= f.qr.data[l*n+j] * z[l]
			}
			z[j] = s / f.rd[j]
		}
		var h float64
		for _, v := range z {
			h += v * v
		}
		dst[i] = h
	}
	return nil
}

// Solve computes the least-squares solution x minimizing ‖a·x − b‖₂ using
// the stored factorization. It returns ErrRankDeficient if the factor is
// numerically singular. It panics if len(b) != the factored row count.
func (f *QR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	work := make([]float64, f.m)
	if err := f.SolveInto(x, b, work); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto computes the least-squares solution into x with no
// allocation: x must have length Cols() and work length ≥ Rows() (work
// holds the Qᵀb intermediate). It returns ErrRankDeficient if the factor
// is numerically singular and panics on mismatched lengths. The method
// only reads the factorization, so concurrent solves sharing one QR are
// safe as long as each supplies its own x and work — this is what lets
// AssessGroup share one factorization across every study element.
func (f *QR) SolveInto(x, b, work []float64) error {
	if len(b) != f.m {
		panic(fmt.Sprintf("linalg: QR.Solve rhs length %d, want %d", len(b), f.m))
	}
	if len(x) != f.n || len(work) < f.m {
		panic(fmt.Sprintf("linalg: QR.SolveInto x %d work %d, want %d and >= %d", len(x), len(work), f.n, f.m))
	}
	if !f.FullRank() {
		return ErrRankDeficient
	}
	m, n := f.m, f.n
	y := work[:m]
	copy(y, b)
	// Compute Qᵀb.
	for k := 0; k < n; k++ {
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.data[i*n+k] * y[i]
		}
		if f.qr.data[k*n+k] != 0 {
			s = -s / f.qr.data[k*n+k]
		}
		for i := k; i < m; i++ {
			y[i] += s * f.qr.data[i*n+k]
		}
	}
	// Back-substitute R·x = Qᵀb.
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= f.qr.data[k*n+j] * x[j]
		}
		x[k] = s / f.rd[k]
	}
	return nil
}
