package timeseries

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/linalg"
)

// Panel is a set of series for multiple network elements sharing one time
// index — the matrix X of the paper whose columns are control-group
// elements and whose rows are time points. Columns are kept in insertion
// order, ids[j] naming cols[j], and an ID lookup scans ids: no map to
// allocate, and a build by scan is faster than by map at 9 columns and
// about as fast at 100, though about 30 times slower at 5,000
// (BenchmarkPanelAdd). Engine panels are capped by MaxControls (default
// 100), where the engine's own cost dwarfs the scan, and its hot paths
// read columns by position (Column). The assessment service caps
// MaxControls at 1,000, where a build reads about 2 ms; the library
// leaves it to the caller.
type Panel struct {
	ix   Index
	ids  []string
	cols [][]float64
}

// NewPanel returns an empty panel on the given index.
func NewPanel(ix Index) *Panel {
	return &Panel{ix: ix}
}

// Grow makes room for n more columns, so that n more Adds allocate
// nothing: a caller that knows its column count sizes the panel once.
func (p *Panel) Grow(n int) {
	p.ids = grow(p.ids, n)
	p.cols = grow(p.cols, n)
}

// grow returns s with room for n more elements, allocating exactly that
// room when s lacks it. (slices.Grow allocates a temporary of n elements
// under the race detector.)
func grow[E any](s []E, n int) []E {
	if n <= cap(s)-len(s) {
		return s
	}
	return append(make([]E, 0, len(s)+n), s...)
}

// Index returns the panel's time index.
func (p *Panel) Index() Index { return p.ix }

// IDs returns the element identifiers in insertion order. The returned
// slice is a copy.
func (p *Panel) IDs() []string {
	out := make([]string, len(p.ids))
	copy(out, p.ids)
	return out
}

// Len returns the number of elements (columns).
func (p *Panel) Len() int { return len(p.ids) }

// Column returns the ID and series of column j, 0 <= j < Len, in
// insertion order. Nothing is copied: the values share storage with the
// panel.
func (p *Panel) Column(j int) (string, Series) {
	return p.ids[j], Series{Index: p.ix, Values: p.cols[j]}
}

// pos returns the column position of element id, or -1.
func (p *Panel) pos(id string) int {
	return slices.Index(p.ids, id)
}

// Add inserts the series for element id. It panics if the id already
// exists or the series index differs from the panel's.
func (p *Panel) Add(id string, s Series) {
	if p.pos(id) >= 0 {
		panic(fmt.Sprintf("timeseries: duplicate panel element %q", id))
	}
	if !s.Index.Equal(p.ix) {
		panic(fmt.Sprintf("timeseries: series index mismatch for element %q", id))
	}
	p.ids = append(p.ids, id)
	p.cols = append(p.cols, s.Values)
}

// Series returns the series for element id and whether it exists. The
// values share storage with the panel.
func (p *Panel) Series(id string) (Series, bool) {
	j := p.pos(id)
	if j < 0 {
		return Series{}, false
	}
	return Series{Index: p.ix, Values: p.cols[j]}, true
}

// MustSeries returns the series for element id, panicking if absent.
func (p *Panel) MustSeries(id string) Series {
	s, ok := p.Series(id)
	if !ok {
		panic(fmt.Sprintf("timeseries: unknown panel element %q", id))
	}
	return s
}

// Select returns a new panel containing only the given ids, in that order.
// It panics on unknown ids.
func (p *Panel) Select(ids []string) *Panel {
	out := NewPanel(p.ix)
	out.Grow(len(ids))
	for _, id := range ids {
		out.Add(id, p.MustSeries(id))
	}
	return out
}

// Slice returns a panel restricted to positions [from, to). Column values
// and IDs share storage with p; the IDs are capped at their length, so
// an Add to either panel leaves the other's columns alone.
func (p *Panel) Slice(from, to int) *Panel {
	n := len(p.ids)
	out := &Panel{ix: p.ix.Slice(from, to), ids: p.ids[:n:n], cols: make([][]float64, n)}
	for j, v := range p.cols {
		out.cols[j] = v[from:to]
	}
	return out
}

// SplitAt divides the panel into before/after sub-panels around time t,
// mirroring Series.SplitAt.
func (p *Panel) SplitAt(t time.Time) (before, after *Panel) {
	pos := p.ix.SearchPos(t)
	return p.Slice(0, pos), p.Slice(pos, p.ix.N)
}

// DesignMatrix returns the panel as a linalg matrix whose columns follow
// the panel's id order. Missing observations (NaN/Inf) are replaced by the
// column's median of valid observations so the regression stays solvable;
// columns with no valid observation become zero.
func (p *Panel) DesignMatrix() *linalg.Matrix {
	return p.DesignMatrixInto(new(linalg.Matrix), 0, p.ix.N)
}

// DesignMatrixInto writes Slice(from, to).DesignMatrix() into m, reshaped
// to (to−from)×Len() and reusing its storage, without building the
// sliced panel: each missing observation is replaced by the median of
// its column's valid observations in [from, to), which is computed only
// for a column that has a gap. It returns m and panics on an invalid
// window.
func (p *Panel) DesignMatrixInto(m *linalg.Matrix, from, to int) *linalg.Matrix {
	p.ix.Slice(from, to) // validates the window
	m.Reshape(to-from, len(p.cols))
	for j, v := range p.cols {
		col := v[from:to]
		fill, filled := 0.0, false
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if !filled {
					fill, filled = columnFill(col), true
				}
				v = fill
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// columnFill returns the median of the valid entries of col, or 0 when
// none are valid.
func columnFill(col []float64) float64 {
	valid := make([]float64, 0, len(col))
	for _, v := range col {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			valid = append(valid, v)
		}
	}
	if len(valid) == 0 {
		return 0
	}
	sort.Float64s(valid)
	n := len(valid)
	if n%2 == 1 {
		return valid[n/2]
	}
	return (valid[n/2-1] + valid[n/2]) / 2
}

// CrossSectionMedian returns, per time point, the median across elements
// of the valid observations — used for summary plots and sanity checks.
func (p *Panel) CrossSectionMedian() Series {
	out := make([]float64, p.ix.N)
	buf := make([]float64, 0, len(p.ids))
	for i := 0; i < p.ix.N; i++ {
		buf = buf[:0]
		for _, col := range p.cols {
			v := col[i]
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				buf = append(buf, v)
			}
		}
		if len(buf) == 0 {
			out[i] = math.NaN()
			continue
		}
		sort.Float64s(buf)
		n := len(buf)
		if n%2 == 1 {
			out[i] = buf[n/2]
		} else {
			out[i] = (buf[n/2-1] + buf[n/2]) / 2
		}
	}
	return NewSeries(p.ix, out)
}
