package core

// Tests for the process-wide working-set pools of scratch.go: recycled
// fit arenas and unit working sets never reach a result, and concurrent
// assessors on different panel shapes share the pools safely. The pool
// tests are named TestPool* so `make race-pools` can repeat them under
// the race detector.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/linalg"
	"repro/internal/timeseries"
)

// poisonShapes are stale working-set shapes larger and smaller than any
// panel the pool tests assess: iterations, rows, columns.
var poisonShapes = [][3]int{{72, 64, 16}, {8, 6, 2}}

// poisonPools takes up to six entries out of both working-set pools,
// poisons each in place in one of poisonShapes — NaN in every float
// buffer, every fit slot marked ok, leverages present — and puts them
// back. An acquire that skipped its slot reset, a design build that
// kept a stale leverage vector, or a read of a buffer before it is
// overwritten then changes a result's bytes. Taking entries out also
// poisons anything wrongly released while still in use.
func poisonPools() {
	const count = 6
	var arenas []*fitArena
	var units []*unitScratch
	for i := 0; i < count; i++ {
		arenas = append(arenas, fitPool.Get().(*fitArena))
		units = append(units, unitPool.Get().(*unitScratch))
	}
	for i, f := range arenas {
		sh := poisonShapes[i%len(poisonShapes)]
		iters, rows := sh[0], sh[1]
		stride := 2 * rows
		f.buf = nanFloats(f.buf, iters*stride)
		f.fits = make([]iterFit, iters)
		for it := range f.fits {
			buf := f.buf[it*stride : (it+1)*stride]
			f.fits[it] = iterFit{fb: carve(&buf, rows), fa: carve(&buf, rows), r2: math.NaN(), ok: true}
		}
	}
	for i, s := range units {
		sh := poisonShapes[i%len(poisonShapes)]
		poisonUnit(s, sh[1], sh[2])
	}
	// Put back only once everything is poisoned: the allocations above
	// can start collections, and two of them drop what a pool holds.
	for i := range arenas {
		fitPool.Put(arenas[i])
		unitPool.Put(units[i])
	}
}

// poisonUnit poisons one unit working set in place at a rows × cols
// design, with its NaN leverages marked present.
func poisonUnit(s *unitScratch, rows, cols int) {
	poisonMatrix(&s.xb, rows, cols)
	poisonMatrix(&s.xa, rows, cols)
	poisonMatrix(&s.xfit, rows, cols)
	s.qr.Factor(&s.xb)
	s.lev, s.work, s.beta = nanFloats(s.lev, rows), nanFloats(s.work, rows), nanFloats(s.beta, cols)
	s.hs = s.lev
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
// two studies are fully observed (the shared design) and whose third has
// before-window gaps (its own design on its fit rows).
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
	// Two identical controls make every design rank deficient: every
	// iteration fits through the ridge fallback and skips the
	// leave-one-out adjustment, so a stale leverage vector would show.
	dup := mk("2dup", 46, 28, 14, 1, Config{Workers: 1})
	twin := dup.controls.MustSeries(controlID(0)).Clone()
	dup.controls.Add("twin", twin)
	return []poolCase{
		mk("9x28", 41, 28, 14, 9, Config{Workers: 1}),
		mk("15x40", 42, 40, 20, 15, Config{Workers: 2, Iterations: 70}),
		mk("5x21", 43, 21, 12, 5, Config{Workers: 4, Iterations: 30}),
		dup,
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

// assess runs the case through AssessGroup.
func (c poolCase) assess(a *Assessor) string {
	return groupText(a.AssessGroup(c.studies, c.controls, c.changeAt, kpi.VoiceRetainability))
}

// assessElements runs every study of the case through AssessElement:
// the fully observed ones fit on a one-element group's shared design,
// the gappy one on its own fit rows.
func (c poolCase) assessElements(a *Assessor) string {
	var b strings.Builder
	for _, id := range c.studies.IDs() {
		b.WriteString(elementText(a.AssessElement(id, c.studies.MustSeries(id), c.controls, c.changeAt, kpi.VoiceRetainability)))
	}
	return b.String()
}

// TestPoolAcquireResetsSlotState pins both resets directly: clean inputs
// never skip an iteration or fail a leverage computation, so stale state
// would otherwise only show on degenerate panels. Every slot of a
// recycled fit arena must start not ok with zero R², and a unit's
// design build must drop a recycled leverage vector when the new
// design is rank deficient.
func TestPoolAcquireResetsSlotState(t *testing.T) {
	poisonPools()
	const iters, lenB, lenA = 50, 12, 9
	var arenas []*fitArena
	for i := 0; i < 6; i++ {
		f := acquireFits(iters, lenB, lenA)
		arenas = append(arenas, f)
		if len(f.fits) != iters {
			t.Fatalf("arena has %d slots, want %d", len(f.fits), iters)
		}
		for it, fit := range f.fits {
			if fit.ok || fit.r2 != 0 || len(fit.fb) != lenB || len(fit.fa) != lenA {
				t.Fatalf("arena %d slot %d: ok %v r2 %v lengths %d/%d, want a reset slot of %d/%d", i, it, fit.ok, fit.r2, len(fit.fb), len(fit.fa), lenB, lenA)
			}
		}
	}
	for _, f := range arenas {
		f.release()
	}

	c := poolCases()[3] // two identical controls: every design is rank deficient
	a := MustNewAssessor(c.cfg)
	n := c.controls.Len()
	xBefore, xAfter := c.controls.SplitAt(c.changeAt)
	rows := make([]int, xBefore.Index().N)
	for i := range rows {
		rows[i] = i
	}
	d := &design{k: a.sampleSize(n, len(rows)), fitRows: rows}
	d.samples = a.samplesFor(n, d.k)
	for _, sh := range poisonShapes {
		s := &unitScratch{}
		poisonUnit(s, sh[1], sh[2])
		if !a.factor(s, 0, n, xBefore.DesignMatrix(), xAfter.DesignMatrix(), d) {
			t.Fatal("factor rejected a design the ridge fallback solves")
		}
		if s.hs != nil {
			t.Fatalf("poisoned %dx%d scratch: rank-deficient design kept %d stale leverages, want none", sh[1], sh[2], len(s.hs))
		}
	}
}

// TestPoolRecycledBuffersMatchColdRun poisons every pool before each
// assessment — a group with a gappy member, and every study through the
// element path — and requires the same bytes as the run before any
// poisoning.
func TestPoolRecycledBuffersMatchColdRun(t *testing.T) {
	for _, c := range poolCases() {
		t.Run(c.name, func(t *testing.T) {
			a := MustNewAssessor(c.cfg)
			cold, coldElems := c.assess(a), c.assessElements(a)
			for rep := 0; rep < 3; rep++ {
				poisonPools()
				if got := c.assess(a); got != cold {
					t.Fatalf("rep %d: AssessGroup on poisoned pools differs from the cold run:\n got %s\nwant %s", rep, got, cold)
				}
				poisonPools()
				if got := c.assessElements(a); got != coldElems {
					t.Fatalf("rep %d: AssessElement on poisoned pools differs from the cold run:\n got %s\nwant %s", rep, got, coldElems)
				}
			}
		})
	}
}

// TestPoolConcurrentShapes runs assessors on different panel shapes,
// worker counts and iteration counts at once — groups and single
// elements — while the pools trade buffers between them, and requires
// each result to match its sequential run.
func TestPoolConcurrentShapes(t *testing.T) {
	cases := poolCases()
	want := make([][2]string, len(cases))
	for i, c := range cases {
		a := MustNewAssessor(c.cfg)
		want[i] = [2]string{c.assess(a), c.assessElements(a)}
	}
	const rounds = 4
	var wg sync.WaitGroup
	for i, c := range cases {
		for path := 0; path < 2; path++ {
			wg.Add(1)
			go func(i int, c poolCase, path int) {
				defer wg.Done()
				a := MustNewAssessor(c.cfg)
				for r := 0; r < rounds; r++ {
					got := c.assess(a)
					if path == 1 {
						got = c.assessElements(a)
					}
					if got != want[i][path] {
						t.Errorf("%s (path %d) round %d: concurrent result differs from the sequential run:\n got %s\nwant %s", c.name, path, r, got, want[i][path])
						return
					}
				}
			}(i, c, path)
		}
	}
	wg.Wait()
}
