package timeseries

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/linalg"
)

func testPanel(t *testing.T) *Panel {
	t.Helper()
	ix := NewIndex(epoch, time.Hour, 4)
	p := NewPanel(ix)
	p.Add("a", NewSeries(ix, []float64{1, 2, 3, 4}))
	p.Add("b", NewSeries(ix, []float64{10, 20, 30, 40}))
	p.Add("c", NewSeries(ix, []float64{5, 5, 5, 5}))
	return p
}

func TestPanelAddAndSeries(t *testing.T) {
	p := testPanel(t)
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	ids := p.IDs()
	if ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Errorf("IDs = %v, want insertion order", ids)
	}
	s, ok := p.Series("b")
	if !ok || s.Values[3] != 40 {
		t.Errorf("Series(b) = %v, %v", s.Values, ok)
	}
	if _, ok := p.Series("zzz"); ok {
		t.Error("Series of unknown id should report false")
	}
}

func TestPanelDuplicatePanics(t *testing.T) {
	p := testPanel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Add("a", NewZeroSeries(p.Index()))
}

func TestPanelIndexMismatchPanics(t *testing.T) {
	p := testPanel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Add("d", NewZeroSeries(NewIndex(epoch, time.Minute, 4)))
}

func TestPanelSelect(t *testing.T) {
	p := testPanel(t)
	sub := p.Select([]string{"c", "a"})
	if sub.Len() != 2 {
		t.Fatalf("Select length = %d", sub.Len())
	}
	if sub.IDs()[0] != "c" {
		t.Errorf("Select order = %v", sub.IDs())
	}
}

func TestPanelSplitAt(t *testing.T) {
	p := testPanel(t)
	before, after := p.SplitAt(epoch.Add(2 * time.Hour))
	if before.Index().N != 2 || after.Index().N != 2 {
		t.Fatalf("split = %d | %d", before.Index().N, after.Index().N)
	}
	if s := before.MustSeries("a"); s.Values[1] != 2 {
		t.Errorf("before a = %v", s.Values)
	}
	if s := after.MustSeries("a"); s.Values[0] != 3 {
		t.Errorf("after a = %v", s.Values)
	}
}

func TestPanelDesignMatrix(t *testing.T) {
	p := testPanel(t)
	m := p.DesignMatrix()
	if m.Rows() != 4 || m.Cols() != 3 {
		t.Fatalf("DesignMatrix dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 30 {
		t.Errorf("At(2,1) = %v, want 30", m.At(2, 1))
	}
}

func TestPanelDesignMatrixImputesMissing(t *testing.T) {
	ix := NewIndex(epoch, time.Hour, 4)
	p := NewPanel(ix)
	p.Add("x", NewSeries(ix, []float64{1, math.NaN(), 3, 5}))
	m := p.DesignMatrix()
	// Median of {1,3,5} = 3.
	if m.At(1, 0) != 3 {
		t.Errorf("imputed value = %v, want 3", m.At(1, 0))
	}
	p2 := NewPanel(ix)
	p2.Add("dead", NewSeries(ix, []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}))
	m2 := p2.DesignMatrix()
	if m2.At(0, 0) != 0 {
		t.Errorf("all-missing column imputed to %v, want 0", m2.At(0, 0))
	}
}

// TestPoolDesignMatrixIntoMatchesSlice pins DesignMatrixInto(m, from,
// to) bit for bit against Slice(from, to).DesignMatrix() and against a
// naive per-window median fill, on every window of a panel with gaps at
// its edges and in its middle, an all-NaN column, infinities and a
// column with no gap, through one m left NaN-poisoned at a larger and a
// smaller shape before each call.
func TestPoolDesignMatrixIntoMatchesSlice(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	const n = 12
	ix := NewIndex(epoch, time.Hour, n)
	p := NewPanel(ix)
	p.Add("full", NewSeries(ix, []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}))
	p.Add("edges", NewSeries(ix, []float64{nan, 2, 7, 1, 8, inf, 2, 8, 1, 8, 2, nan}))
	p.Add("dead", NewSeries(ix, []float64{nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan}))
	p.Add("mixed", NewSeries(ix, []float64{-inf, 0.5, nan, 0.25, 0.75, nan, 1.5, -0.5, nan, 2.5, 0.125, inf}))
	p.Add("late", NewSeries(ix, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, nan, nan}))

	// fillOf is the naive reference: the sorted median of the column's
	// finite values in the window, 0 when there are none.
	fillOf := func(col []float64) float64 {
		var valid []float64
		for _, v := range col {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				valid = append(valid, v)
			}
		}
		if len(valid) == 0 {
			return 0
		}
		sort.Float64s(valid)
		k := len(valid)
		if k%2 == 1 {
			return valid[k/2]
		}
		return (valid[k/2-1] + valid[k/2]) / 2
	}
	poison := func(m *linalg.Matrix, rows, cols int) {
		m.Reshape(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, nan)
			}
		}
	}
	var m linalg.Matrix
	for from := 0; from <= n; from++ {
		for to := from; to <= n; to++ {
			for _, shape := range [][2]int{{2 * n, 8}, {2, 2}} {
				poison(&m, shape[0], shape[1])
				got := p.DesignMatrixInto(&m, from, to)
				if got != &m {
					t.Fatalf("[%d,%d): DesignMatrixInto returned another matrix", from, to)
				}
				want := p.Slice(from, to).DesignMatrix()
				if got.Rows() != to-from || got.Cols() != p.Len() || want.Rows() != got.Rows() || want.Cols() != got.Cols() {
					t.Fatalf("[%d,%d): shape %dx%d, Slice gives %dx%d, want %dx%d", from, to, got.Rows(), got.Cols(), want.Rows(), want.Cols(), to-from, p.Len())
				}
				for j, id := range p.IDs() {
					col := p.MustSeries(id).Values[from:to]
					fill := fillOf(col)
					for i, v := range col {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							v = fill
						}
						if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(g) != math.Float64bits(v) {
							t.Fatalf("[%d,%d) %s row %d: DesignMatrixInto %v, Slice.DesignMatrix %v, naive %v", from, to, id, i, g, w, v)
						}
					}
				}
			}
		}
	}
	for _, w := range [][2]int{{-1, 3}, {4, 3}, {0, n + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DesignMatrixInto(m, %d, %d) did not panic on an invalid window", w[0], w[1])
				}
			}()
			p.DesignMatrixInto(&m, w[0], w[1])
		}()
	}
}

func TestPanelCrossSectionMedian(t *testing.T) {
	p := testPanel(t)
	med := p.CrossSectionMedian()
	// Columns at t=0: {1, 10, 5} → 5.
	if med.Values[0] != 5 {
		t.Errorf("median[0] = %v, want 5", med.Values[0])
	}
	ix := NewIndex(epoch, time.Hour, 1)
	empty := NewPanel(ix)
	if got := empty.CrossSectionMedian(); !math.IsNaN(got.Values[0]) {
		t.Errorf("empty panel median = %v, want NaN", got.Values[0])
	}
}

func TestPanelMustSeriesPanics(t *testing.T) {
	p := testPanel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.MustSeries("nope")
}
