package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	// Column reads the same columns in the same order, without copying.
	for j, want := range ids {
		id, s := p.Column(j)
		if ms := p.MustSeries(want); id != want || !s.Index.Equal(p.Index()) || &s.Values[0] != &ms.Values[0] {
			t.Errorf("Column(%d) = %q, not column %q in place", j, id, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { p.Column(1) }); n != 0 {
		t.Errorf("Column allocates %v times", n)
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

// mapPanel is the map-backed panel this package kept before a panel's
// columns became a slice parallel to its IDs: a naive reference the
// slice-backed Panel must reproduce call for call.
type mapPanel struct {
	ix   Index
	ids  []string
	cols map[string][]float64
}

func newMapPanel(ix Index) *mapPanel {
	return &mapPanel{ix: ix, cols: map[string][]float64{}}
}

func (p *mapPanel) add(id string, s Series) {
	if _, dup := p.cols[id]; dup {
		panic("duplicate " + id)
	}
	p.ids = append(p.ids, id)
	p.cols[id] = s.Values
}

func (p *mapPanel) series(id string) (Series, bool) {
	v, ok := p.cols[id]
	if !ok {
		return Series{}, false
	}
	return Series{Index: p.ix, Values: v}, true
}

func (p *mapPanel) selectIDs(ids []string) *mapPanel {
	out := newMapPanel(p.ix)
	for _, id := range ids {
		out.add(id, Series{Index: p.ix, Values: p.cols[id]})
	}
	return out
}

func (p *mapPanel) slice(from, to int) *mapPanel {
	out := newMapPanel(p.ix.Slice(from, to))
	for _, id := range p.ids {
		out.add(id, Series{Index: out.ix, Values: p.cols[id][from:to]})
	}
	return out
}

func (p *mapPanel) designMatrixInto(m *linalg.Matrix, from, to int) *linalg.Matrix {
	m.Reshape(to-from, len(p.ids))
	for j, id := range p.ids {
		col := p.cols[id][from:to]
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

func (p *mapPanel) crossSectionMedian() Series {
	out := make([]float64, p.ix.N)
	for i := range out {
		var buf []float64
		for _, id := range p.ids {
			if v := p.cols[id][i]; !math.IsNaN(v) && !math.IsInf(v, 0) {
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

// sameColumns reports where got and want differ: index, IDs in order,
// or any column's values, which must be the same storage.
func sameColumns(got *Panel, want *mapPanel) string {
	if !got.Index().Equal(want.ix) {
		return fmt.Sprintf("index %+v, want %+v", got.Index(), want.ix)
	}
	if got.Len() != len(want.ids) {
		return fmt.Sprintf("%d columns, want %d", got.Len(), len(want.ids))
	}
	for j, wid := range want.ids {
		id, s := got.Column(j)
		w := want.cols[wid]
		if id != wid || len(s.Values) != len(w) || (len(w) > 0 && &s.Values[0] != &w[0]) {
			return fmt.Sprintf("column %d is %q (%d values), want %q (%d values) in place", j, id, len(s.Values), wid, len(w))
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPanelMatchesMapReference pins the slice-backed panel against the
// map-backed reference on 3-, 9-, 100- and 5,000-column panels, the 9-
// and 5,000-column ones with gaps (NaN, ±Inf, a dead column): every ID
// lookup (Series, MustSeries, Select), every window (Slice, SplitAt,
// DesignMatrixInto) and CrossSectionMedian. A repeated Add still panics.
func TestPanelMatchesMapReference(t *testing.T) {
	const n = 24
	ix := NewIndex(epoch, time.Hour, n)
	for _, tc := range []struct {
		cols int
		gaps bool
	}{{3, false}, {9, true}, {100, false}, {5000, true}} {
		t.Run(fmt.Sprint(tc.cols), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.cols)))
			got, want := NewPanel(ix), newMapPanel(ix)
			got.Grow(tc.cols)
			for _, c := range rng.Perm(tc.cols) {
				v := make([]float64, n)
				for i := range v {
					v[i] = rng.NormFloat64()
					if tc.gaps && rng.Intn(6) == 0 {
						v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
					}
				}
				if tc.gaps && c == 1 {
					for i := range v {
						v[i] = math.NaN()
					}
				}
				id := fmt.Sprintf("nb%d-ne-%d", c/12, c)
				got.Add(id, NewSeries(ix, v))
				want.add(id, NewSeries(ix, v))
			}
			if d := sameColumns(got, want); d != "" {
				t.Fatal(d)
			}
			for _, id := range append(got.IDs(), "no-such-element") {
				s, ok := got.Series(id)
				w, wok := want.series(id)
				if ok != wok || (ok && (&s.Values[0] != &w.Values[0] || !s.Index.Equal(w.Index))) {
					t.Fatalf("Series(%q) = %v, want %v", id, ok, wok)
				}
				if ok && &got.MustSeries(id).Values[0] != &w.Values[0] {
					t.Fatalf("MustSeries(%q) is another column", id)
				}
			}
			ids := got.IDs()
			picked := make([]string, 0, len(ids))
			for _, j := range rng.Perm(len(ids))[:len(ids)/2+1] {
				picked = append(picked, ids[j])
			}
			if d := sameColumns(got.Select(picked), want.selectIDs(picked)); d != "" {
				t.Errorf("Select: %s", d)
			}
			var m, wm linalg.Matrix
			for _, w := range [][2]int{{0, n}, {3, 17}, {5, 5}, {n - 1, n}, {0, 1}} {
				if d := sameColumns(got.Slice(w[0], w[1]), want.slice(w[0], w[1])); d != "" {
					t.Errorf("Slice(%d, %d): %s", w[0], w[1], d)
				}
				got.DesignMatrixInto(&m, w[0], w[1])
				want.designMatrixInto(&wm, w[0], w[1])
				if m.Rows() != wm.Rows() || m.Cols() != wm.Cols() {
					t.Fatalf("DesignMatrixInto(%d, %d): %dx%d, want %dx%d", w[0], w[1], m.Rows(), m.Cols(), wm.Rows(), wm.Cols())
				}
				for j := 0; j < m.Cols(); j++ {
					if !sameBits(m.Col(j), wm.Col(j)) {
						t.Fatalf("DesignMatrixInto(%d, %d) column %d: %v, want %v", w[0], w[1], j, m.Col(j), wm.Col(j))
					}
				}
			}
			for _, at := range []time.Time{epoch.Add(-time.Hour), epoch, epoch.Add(90 * time.Minute), ix.End()} {
				before, after := got.SplitAt(at)
				pos := ix.SearchPos(at)
				if d := sameColumns(before, want.slice(0, pos)); d != "" {
					t.Errorf("SplitAt(%v) before: %s", at, d)
				}
				if d := sameColumns(after, want.slice(pos, n)); d != "" {
					t.Errorf("SplitAt(%v) after: %s", at, d)
				}
			}
			if g, w := got.CrossSectionMedian(), want.crossSectionMedian(); !sameBits(g.Values, w.Values) {
				t.Errorf("CrossSectionMedian = %v, want %v", g.Values, w.Values)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("a repeated Add did not panic")
					}
				}()
				got.Add(ids[len(ids)/2], NewZeroSeries(ix))
			}()
		})
	}
}

// panelSink makes each panel TestPanelBytes builds escape to the heap,
// as the pipeline's do.
var panelSink *Panel

// TestPanelBytes pins what a 9-column panel sized once allocates: the
// panel and its two column slices, 464 B in 3 allocations. The
// map-backed panel read 1,720 B in 11 allocations for the same columns.
func TestPanelBytes(t *testing.T) {
	ix := NewIndex(epoch, 6*time.Hour, 112)
	s := NewZeroSeries(ix)
	ids := make([]string, 9)
	for i := range ids {
		ids[i] = fmt.Sprintf("nb1-ne-%d", i+4)
	}
	build := func() {
		p := NewPanel(ix)
		p.Grow(len(ids))
		for _, id := range ids {
			p.Add(id, s)
		}
		panelSink = p
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(100, build)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("9-column panel: %d B in %v allocations", per, allocs)
	if per > 580 || allocs > 3 {
		t.Errorf("a 9-column panel allocates %d B in %v allocations, want at most 580 B in 3", per, allocs)
	}
}

// BenchmarkPanelAdd builds a panel of n columns sized once. Add scans
// the IDs for a repeat, so the build is quadratic in n. On a 2-vCPU VM
// it read 0.5–0.7 µs, 17–22 µs and 26–40 ms at 9, 100 and 5,000
// columns; the map-backed panel read 1.5–1.9 µs, 19 µs and 0.7–0.9 ms.
// At 1,000 columns, the service's cap on controls.maxControls, it read
// 2.2 ms.
func BenchmarkPanelAdd(b *testing.B) {
	ix := NewIndex(epoch, 6*time.Hour, 112)
	s := NewZeroSeries(ix)
	for _, n := range []int{9, 100, 1000, 5000} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("nb%d-ne-%d", i/12, i)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := NewPanel(ix)
				p.Grow(n)
				for _, id := range ids {
					p.Add(id, s)
				}
				panelSink = p
			}
		})
	}
}
