package core

// Tests for the process-wide working-set pools of scratch.go: recycled
// buffers never reach a result, concurrent assessors on different panel
// shapes share the pools safely, and a prepared PanelFactors handle
// outlives every assessment that adopts it. The pool tests are named
// TestPool* so `make race-pools` can repeat them under the race detector.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// poisonShapes are stale working-set shapes larger and smaller than any
// panel the pool tests assess: iterations, rows, columns.
var poisonShapes = [][3]int{{72, 64, 16}, {8, 6, 2}}

// poisonPools takes up to six entries out of every working-set pool,
// poisons each in place in one of poisonShapes — NaN in every float
// buffer, every slot marked ok, leverages present, no owning pool — and
// puts them back. An acquire that skipped its slot reset, or a read of a
// buffer before it is overwritten, then changes a result's bytes.
// Taking entries out also poisons anything wrongly released while still
// in use.
func poisonPools() {
	const count = 6
	var arenas []*fitArena
	for i := 0; i < count; i++ {
		arenas = append(arenas, fitPool.Get().(*fitArena))
	}
	pools := []*sync.Pool{&groupFactorPool, &elementFactorPool}
	factors := make([][]*panelFactors, len(pools))
	for p, pool := range pools {
		for i := 0; i < count; i++ {
			factors[p] = append(factors[p], pool.Get().(*panelFactors))
		}
	}
	for i, f := range arenas {
		sh := poisonShapes[i%len(poisonShapes)]
		iters, rows, cols := sh[0], sh[1], sh[2]
		stride := 3*rows + cols
		f.buf = nanFloats(f.buf, iters*stride)
		f.fits = make([]iterFit, iters)
		for it := range f.fits {
			buf := f.buf[it*stride : (it+1)*stride]
			f.fits[it] = iterFit{fb: carve(&buf, rows), fa: carve(&buf, rows), beta: carve(&buf, cols), swork: carve(&buf, rows), r2: math.NaN(), ok: true}
		}
	}
	for _, fs := range factors {
		for i, pf := range fs {
			sh := poisonShapes[i%len(poisonShapes)]
			poisonFactors(pf, sh[0], sh[1], sh[2])
		}
	}
	// Put back only once everything is poisoned: the allocations above
	// can start collections, and two of them drop what a pool holds.
	for _, f := range arenas {
		fitPool.Put(f)
	}
	for p, pool := range pools {
		for _, pf := range factors[p] {
			pool.Put(pf)
		}
	}
}

// poisonFactors poisons one factor set in place at iters slots of a
// rows × cols design.
func poisonFactors(pf *panelFactors, iters, rows, cols int) {
	pf.n, pf.k, pf.factorized = -1, -1, -1
	pf.fitRows = make([]int, rows) // all zero: a wrong fit-row map
	pf.partial = true
	pf.pool = nil // a release without the acquire's owner would panic
	pf.slabB, pf.slabA = nanFloats(pf.slabB, iters*2*rows*cols), nanFloats(pf.slabA, iters*rows*cols)
	if cap(pf.iters) < iters {
		pf.iters = make([]iterShared, iters)
	}
	pf.iters = pf.iters[:iters]
	for it := range pf.iters {
		st := &pf.iters[it]
		poisonMatrix(&st.xb, rows, cols)
		poisonMatrix(&st.xa, rows, cols)
		poisonMatrix(&st.xfit, rows, cols)
		st.qr.Factor(&st.xb)
		st.lev, st.work = nanFloats(st.lev, rows), nanFloats(st.work, cols)
		st.hs, st.ok = st.lev, true
	}
}

func poisonMatrix(m *linalg.Matrix, rows, cols int) {
	m.Reshape(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, math.NaN())
		}
	}
}

func nanFloats(buf []float64, n int) []float64 {
	buf = growFloats(buf, n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

// poolCase is one panel shape the pool tests assess: a group whose first
// two studies are fully observed (the shared-factor path) and whose
// third has before-window gaps (its own factors on its fit rows).
type poolCase struct {
	name              string
	studies, controls *timeseries.Panel
	changeAt          time.Time
	cfg               Config
}

func poolCases() []poolCase {
	mk := func(name string, seed int64, days, changeDay, controls int, cfg Config) poolCase {
		w := newSynthWorld(seed, days, changeDay)
		c := poolCase{name: name, controls: w.controls(controls, 0.8, 1.2), changeAt: w.changeAt, cfg: cfg}
		c.studies = timeseries.NewPanel(w.ix)
		c.studies.Add("s1", w.series(10, 1.0, -0.5))
		c.studies.Add("s2", w.series(10, 0.9, 0.3))
		gappy := w.series(10, 1.1, 0)
		gappy.Values[2], gappy.Values[5] = math.NaN(), math.NaN()
		c.studies.Add("s3", gappy)
		return c
	}
	return []poolCase{
		mk("9x28", 41, 28, 14, 9, Config{Workers: 1}),
		mk("15x40", 42, 40, 20, 15, Config{Workers: 2, Iterations: 70}),
		mk("5x21", 43, 21, 12, 5, Config{Workers: 4, Iterations: 30}),
	}
}

// groupText renders a group assessment (or its error) exactly: every
// field of every element (renderElement). Plain %v would print each
// element through its promoted Verdict.String, which rounds and omits
// the forecasts.
func groupText(g GroupResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "group kpi %v overall %v votes %v failures %v\n", g.KPI, g.Overall, g.Votes, g.Failures)
	for _, r := range g.PerElement {
		renderElement(&b, r)
	}
	return b.String()
}

// elementText is groupText for one element assessment.
func elementText(r ElementResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	renderElement(&b, r)
	return b.String()
}

// assess runs the case through AssessGroup, or through
// AssessGroupPrepared when shared is non-nil.
func (c poolCase) assess(a *Assessor, shared *PanelFactors) string {
	g, err := a.AssessGroupPrepared(context.Background(), shared, c.studies, c.controls, c.changeAt, kpi.VoiceRetainability)
	return groupText(g, err)
}

// TestPoolAcquireResetsSlotState pins the acquire half of the invariant
// directly: clean inputs never skip an iteration, so a stale ok flag
// would otherwise only show on degenerate panels. Every slot of a
// recycled arena or factor set must start not ok, with zero R² and no
// leverages, and factors acquired for the whole before window must fit
// on every row and go back to the pool they came from.
func TestPoolAcquireResetsSlotState(t *testing.T) {
	poisonPools()
	const iters, lenB, lenA, k = 50, 12, 9, 3
	var arenas []*fitArena
	var factors []*panelFactors
	for i := 0; i < 6; i++ {
		f := acquireFits(iters, lenB, lenA, lenB, k+1)
		arenas = append(arenas, f)
		if len(f.fits) != iters {
			t.Fatalf("arena has %d slots, want %d", len(f.fits), iters)
		}
		for it, fit := range f.fits {
			if fit.ok || fit.r2 != 0 || len(fit.fb) != lenB || len(fit.fa) != lenA || len(fit.swork) != lenB || len(fit.beta) != k+1 {
				t.Fatalf("arena %d slot %d: ok %v r2 %v lengths %d/%d/%d/%d, want a reset slot of %d/%d/%d/%d", i, it, fit.ok, fit.r2, len(fit.fb), len(fit.fa), len(fit.swork), len(fit.beta), lenB, lenA, lenB, k+1)
			}
		}
		pf := acquirePanelFactors(&groupFactorPool, iters, lenB, lenA, k, nil)
		factors = append(factors, pf)
		if len(pf.iters) != iters || pf.factorized != 0 || pf.partial || pf.pool != &groupFactorPool {
			t.Fatalf("factors %d: %d slots, %d factorizations, partial %v, own pool %v, want %d, 0, false and true", i, len(pf.iters), pf.factorized, pf.partial, pf.pool == &groupFactorPool, iters)
		}
		for r, row := range pf.fitRows {
			if r != row {
				t.Fatalf("factors %d: fit rows %v, want 0..%d", i, pf.fitRows, lenB-1)
			}
		}
		for it := range pf.iters {
			if st := &pf.iters[it]; st.ok || st.hs != nil {
				t.Fatalf("factors %d slot %d: ok %v leverages %v, want a reset slot", i, it, st.ok, st.hs != nil)
			}
		}
	}
	for i := range arenas {
		arenas[i].release()
		factors[i].release()
	}
}

// TestPoolRecycledBuffersMatchColdRun poisons every pool before each
// assessment — single-group, prepared-handle, and per-element — and
// requires the same bytes as the run before any poisoning.
func TestPoolRecycledBuffersMatchColdRun(t *testing.T) {
	for _, c := range poolCases() {
		t.Run(c.name, func(t *testing.T) {
			a := MustNewAssessor(c.cfg)
			cold := c.assess(a, nil)
			gappy := c.studies.IDs()[2]
			want, wantErr := a.AssessElement(gappy, c.studies.MustSeries(gappy), c.controls, c.changeAt, kpi.VoiceRetainability)
			for rep := 0; rep < 3; rep++ {
				poisonPools()
				if got := c.assess(a, nil); got != cold {
					t.Fatalf("rep %d: AssessGroup on poisoned pools differs from the cold run:\n got %s\nwant %s", rep, got, cold)
				}
				poisonPools()
				h := a.PrepPanelFactors(context.Background(), c.controls, c.changeAt)
				if h == nil {
					t.Fatal("PrepPanelFactors returned nil on an assessable panel")
				}
				poisonPools()
				got := c.assess(a, h)
				h.Release()
				if got != cold {
					t.Fatalf("rep %d: AssessGroupPrepared on poisoned pools differs from the cold run:\n got %s\nwant %s", rep, got, cold)
				}
				poisonPools()
				res, err := a.AssessElement(gappy, c.studies.MustSeries(gappy), c.controls, c.changeAt, kpi.VoiceRetainability)
				if got, want := elementText(res, err), elementText(want, wantErr); got != want {
					t.Fatalf("rep %d: AssessElement on poisoned pools differs from the cold run:\n got %s\nwant %s", rep, got, want)
				}
			}
		})
	}
}

// TestPoolConcurrentShapes runs assessors on different panel shapes,
// worker counts and iteration counts at once — group-local factors,
// one prepared handle read by many groups, per-element arenas — while
// the pools trade buffers between them, and requires each result to
// match its sequential run.
func TestPoolConcurrentShapes(t *testing.T) {
	cases := poolCases()
	want := make([]string, len(cases))
	handles := make([]*PanelFactors, len(cases))
	for i, c := range cases {
		a := MustNewAssessor(c.cfg)
		want[i] = c.assess(a, nil)
		handles[i] = a.PrepPanelFactors(context.Background(), c.controls, c.changeAt)
	}
	const rounds = 4
	var wg sync.WaitGroup
	for i, c := range cases {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(i int, c poolCase, prepared bool) {
				defer wg.Done()
				a := MustNewAssessor(c.cfg)
				for r := 0; r < rounds; r++ {
					var shared *PanelFactors
					if prepared {
						shared = handles[i]
					}
					if got := c.assess(a, shared); got != want[i] {
						t.Errorf("%s (prepared %v) round %d: concurrent result differs from the sequential run:\n got %s\nwant %s", c.name, prepared, r, got, want[i])
						return
					}
				}
			}(i, c, g == 1)
		}
	}
	wg.Wait()
	for _, h := range handles {
		h.Release()
	}
}

// TestPoolPreparedHandleSurvivesMembers pins the ownership rule of
// PanelFactors: an assessment adopting a handle only reads it. If a
// member released the handle's factors, the poisoning in between would
// take them out of the pool and corrupt the second call.
func TestPoolPreparedHandleSurvivesMembers(t *testing.T) {
	studies, controls, changeAt := groupWorld(44)
	for _, workers := range []int{1, 4} {
		a := MustNewAssessor(Config{Workers: workers})
		h := a.PrepPanelFactors(context.Background(), controls, changeAt)
		if h == nil {
			t.Fatal("PrepPanelFactors returned nil on an assessable panel")
		}
		reg := obs.NewRegistry()
		inst := a.WithObserver(obs.New("test", reg))
		first := groupText(inst.AssessGroupPrepared(context.Background(), h, studies, controls, changeAt, kpi.VoiceRetainability))
		poisonPools()
		second := groupText(inst.AssessGroupPrepared(context.Background(), h, studies, controls, changeAt, kpi.VoiceRetainability))
		if second != first {
			t.Fatalf("workers %d: second assessment on one handle differs:\n got %s\nwant %s", workers, second, first)
		}
		if got, want := reg.Counter(obs.MetricBatchFactorizationsReused).Value(), 2*h.Factorizations(); got != want || want == 0 {
			t.Errorf("workers %d: factorizations reused = %d, want %d (both calls adopt the handle)", workers, got, want)
		}
		h.Release()
		h.Release() // idempotent
		if h.Factorizations() != 0 {
			t.Errorf("workers %d: released handle still reports %d factorizations", workers, h.Factorizations())
		}
		// An emptied handle falls back to fresh factors: same bytes.
		if got := groupText(a.AssessGroupPrepared(context.Background(), h, studies, controls, changeAt, kpi.VoiceRetainability)); got != first {
			t.Fatalf("workers %d: assessment on a released handle differs:\n got %s\nwant %s", workers, got, first)
		}
	}
	var nilHandle *PanelFactors
	nilHandle.Release() // nil-safe
}
