// Package linalg provides the small dense linear-algebra kernel that
// Litmus' robust spatial regression is built on: a column-major dense
// matrix type, Householder QR factorization, and least-squares solving.
//
// The package is deliberately minimal — it implements exactly what the
// regression in the paper (CoNEXT'13, §3.2, Eq. 2–3) requires — but it is
// implemented carefully: all operations are allocation-conscious, dimension
// mismatches panic with descriptive messages (they are programmer errors,
// not data errors), and numerical edge cases (rank deficiency) surface as
// errors from the solvers rather than silent garbage.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Matrices created by NewMatrix are
// zero-initialized. Row-major layout is used because the regression code
// iterates over time (rows) in the hot path.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns a zero-initialized matrix with the given dimensions.
// It panics if either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from a slice of equal-length rows.
// It panics if the rows are ragged.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("linalg: ragged row %d: got %d values, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// NewMatrixFromCols builds a matrix whose columns are the given
// equal-length slices. It panics if the columns are ragged.
func NewMatrixFromCols(cols [][]float64) *Matrix {
	if len(cols) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(cols[0]), len(cols))
	for j, c := range cols {
		if len(c) != m.rows {
			panic(fmt.Sprintf("linalg: ragged column %d: got %d values, want %d", j, len(c), m.rows))
		}
		for i, v := range c {
			m.data[i*m.cols+j] = v
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Over returns an empty matrix backed by buf: Reshape, and every *Into
// builder, reuses buf while the shape fits in len(buf) elements, so an
// arena can carve many matrices out of one allocation.
func Over(buf []float64) Matrix { return Matrix{data: buf[:0:len(buf)]} }

// Reshape resizes m to rows×cols, reusing the backing storage when its
// capacity allows and allocating otherwise. The contents are unspecified
// after the call — every caller in the hot path overwrites the full
// matrix — so Reshape is the scratch-arena primitive: one long-lived
// Matrix absorbs thousands of same-shaped design builds without
// allocating. It returns m for chaining and panics on negative
// dimensions.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	m.rows, m.cols = rows, cols
	if n := rows * cols; cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
	}
	return m
}

// SelectCols returns a new matrix containing the given columns of m, in
// the given order. Indices may repeat. It panics on out-of-range indices.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	out := NewMatrix(m.rows, len(idx))
	for jj, j := range idx {
		if j < 0 || j >= m.cols {
			panic(fmt.Sprintf("linalg: SelectCols index %d out of range for %d columns", j, m.cols))
		}
		for i := 0; i < m.rows; i++ {
			out.data[i*out.cols+jj] = m.data[i*m.cols+j]
		}
	}
	return out
}

// SelectRows returns a new matrix containing the given rows of m, in the
// given order. Indices may repeat. It panics on out-of-range indices.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	return m.SelectRowsInto(nil, idx)
}

// SelectRowsInto writes the given rows of m, in order, into dst (reshaped
// to len(idx)×Cols(), reusing its storage). A nil dst allocates. It
// returns dst and panics on out-of-range indices or dst == m.
func (m *Matrix) SelectRowsInto(dst *Matrix, idx []int) *Matrix {
	if dst == m {
		panic("linalg: SelectRowsInto aliases source and destination")
	}
	if dst == nil {
		dst = NewMatrix(len(idx), m.cols)
	} else {
		dst.Reshape(len(idx), m.cols)
	}
	for ii, i := range idx {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("linalg: SelectRows index %d out of range for %d rows", i, m.rows))
		}
		copy(dst.data[ii*dst.cols:(ii+1)*dst.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return dst
}

// MulVec returns m·x as a new slice. It panics if len(x) != Cols().
func (m *Matrix) MulVec(x []float64) []float64 {
	return m.MulVecInto(make([]float64, m.rows), x)
}

// MulVecInto computes m·x into dst with no allocation and returns dst.
// It panics if len(x) != Cols() or len(dst) != Rows().
func (m *Matrix) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %dx%d matrix with vector of length %d", m.rows, m.cols, len(x)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVecInto dst length %d, want %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b. It panics on dimension mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch: %dx%d × %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out
}

// WithInterceptColumn returns a new matrix with a leading column of ones
// prepended to m. The regression design matrix uses this for the model
// intercept.
func (m *Matrix) WithInterceptColumn() *Matrix {
	out := NewMatrix(m.rows, m.cols+1)
	for i := 0; i < m.rows; i++ {
		out.data[i*out.cols] = 1
		copy(out.data[i*out.cols+1:(i+1)*out.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return out
}

// SelectColsWithIntercept writes [1 | m[:, idx]] — a leading intercept
// column of ones followed by the selected columns of m, in order — into
// dst (reshaped to Rows()×(len(idx)+1), reusing its storage). A nil dst
// allocates. It fuses SelectCols and WithInterceptColumn into one pass so
// the sampling inner loop builds each design matrix with zero
// intermediate copies. It returns dst and panics on out-of-range indices
// or dst == m.
func (m *Matrix) SelectColsWithIntercept(dst *Matrix, idx []int) *Matrix {
	if dst == m {
		panic("linalg: SelectColsWithIntercept aliases source and destination")
	}
	if dst == nil {
		dst = NewMatrix(m.rows, len(idx)+1)
	} else {
		dst.Reshape(m.rows, len(idx)+1)
	}
	for _, j := range idx {
		if j < 0 || j >= m.cols {
			panic(fmt.Sprintf("linalg: SelectCols index %d out of range for %d columns", j, m.cols))
		}
	}
	for i := 0; i < m.rows; i++ {
		drow := dst.data[i*dst.cols : (i+1)*dst.cols]
		srow := m.data[i*m.cols : (i+1)*m.cols]
		drow[0] = 1
		for jj, j := range idx {
			drow[jj+1] = srow[j]
		}
	}
	return dst
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether m and b have identical dimensions and all entries
// within tol of each other.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	s := fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return s
	}
	s += "["
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.data[i*m.cols+j])
		}
	}
	return s + "]"
}
