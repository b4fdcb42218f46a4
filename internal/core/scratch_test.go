package core

// Tests for the process-wide working-set pools and sample cache of
// scratch.go: recycled fit arenas and unit working sets never reach a
// result, concurrent assessors on different panel shapes share the pools
// safely, and the sample cache keys and bounds its entries. The tests
// are named TestPool* so `make race-pools` can repeat them under the
// race detector.

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

// poisonPools takes up to six entries off each working-set list, or
// makes them when the list runs short, poisons each in place in one of
// poisonShapes — NaN in every float buffer, the arenas' medians and the
// units' forecast differences included, every fit slot marked ok,
// leverages present, every group element a failed twin of a stale
// element with a poisoned arena and its medians marked done, every
// design holding stale elements and samples — and lists them again. An
// acquire that skipped its slot reset, a design build that kept a stale
// leverage vector, a group record reused without its reset, or a read
// of a buffer before it is overwritten then changes a result's bytes.
// Taking entries off also poisons anything wrongly released while still
// in use.
func poisonPools() {
	const count = 6
	var arenas []*fitArena
	var units []*unitScratch
	var groups []*groupScratch
	for i := 0; i < count; i++ {
		f, ok := fitList.Take()
		if !ok {
			f = new(fitArena)
		}
		u, ok := unitList.Take()
		if !ok {
			u = new(unitScratch)
		}
		g, ok := groupList.Take()
		if !ok {
			g = new(groupScratch)
		}
		arenas, units, groups = append(arenas, f), append(units, u), append(groups, g)
	}
	for i, f := range arenas {
		sh := poisonShapes[i%len(poisonShapes)]
		poisonArena(f, sh[0], sh[1])
	}
	for i, s := range units {
		sh := poisonShapes[i%len(poisonShapes)]
		poisonUnit(s, sh[1], sh[2])
	}
	for i, g := range groups {
		sh := poisonShapes[i%len(poisonShapes)]
		poisonGroup(g, sh[0], sh[1])
	}
	for i := range arenas {
		fitList.Put(arenas[i])
		unitList.Put(units[i])
		groupList.Put(groups[i])
	}
}

// poisonArena poisons one fit arena in place at iters slots of two
// windows of rows: NaN forecasts and medians, every slot ok with NaN R².
func poisonArena(f *fitArena, iters, rows int) {
	stride := 2 * rows
	f.buf = nanFloats(f.buf, iters*stride)
	f.med = nanFloats(f.med, stride)
	f.fits = make([]iterFit, iters)
	for it := range f.fits {
		buf := f.buf[it*stride : (it+1)*stride]
		f.fits[it] = iterFit{fb: carve(&buf, rows), fa: carve(&buf, rows), r2: math.NaN(), ok: true}
	}
}

// poisonGroup poisons one group's records in place: n elements, each a
// shared, failed twin of the first with a poisoned arena of its own,
// stale series, hash and counters and its medians marked computed, and
// two designs holding them with stale samples, fit rows and counts.
func poisonGroup(g *groupScratch, n, rows int) {
	if cap(g.elems) < n {
		g.elems = make([]groupElement, n)
	}
	g.elems = g.elems[:n]
	stale := nanFloats(nil, rows)
	samples := [][]int{{0}, {1}}
	for i := range g.elems {
		e := &g.elems[i]
		e.id, e.change, e.err = "stale", "stale", ErrDegenerateStatistics
		e.shared, e.ybFit, e.fitHash = true, stale, hashBits(stale)
		e.twin = &g.elems[0]
		e.fits = new(fitArena)
		poisonArena(e.fits, 4, rows)
		e.levSkipped.Store(99)
		e.medOnce.Do(func() {})
	}
	g.designs = g.designs[:0]
	for j := 0; j < 2; j++ {
		d := g.design()
		d.k, d.fitRows, d.partial, d.samples = 1, []int{0}, j == 1, samples
		for i := range g.elems {
			d.elems = append(d.elems, &g.elems[i])
		}
		d.factorized.Store(99)
		d.resampled.Store(99)
	}
	g.units = append(g.units[:0], &unitScratch{})
}

// poisonUnit poisons one unit working set in place at a rows × cols
// design, with its NaN leverages marked present, NaN control designs and
// NaN finishing buffers (forecast differences of two windows of rows).
func poisonUnit(s *unitScratch, rows, cols int) {
	poisonMatrix(&s.xb, rows, cols)
	poisonMatrix(&s.xa, rows, cols)
	poisonMatrix(&s.xfit, rows, cols)
	poisonMatrix(&s.ctlB, rows, cols)
	poisonMatrix(&s.ctlA, rows, cols)
	s.qr.Factor(&s.xb)
	s.lev, s.work, s.beta = nanFloats(s.lev, rows), nanFloats(s.work, rows), nanFloats(s.beta, cols)
	s.hs = s.lev
	s.col, s.cleanB, s.cleanA = nanFloats(s.col, rows), nanFloats(s.cleanB, rows), nanFloats(s.cleanA, rows)
	s.diff = nanFloats(s.diff, 2*rows)
	s.rank = nanFloats(s.rank, 4*rows)
	s.rows = append(s.rows[:0], s.col, s.cleanB, s.cleanA)
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
// field of every element and its series from log (renderElement). Plain
// %v would print each element through its promoted Verdict.String,
// which rounds and omits the forecasts.
func groupText(log *seriesLog, g GroupResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "group kpi %v overall %v votes %v failures %v\n", g.KPI, g.Overall, g.Votes, g.Failures)
	for _, r := range g.PerElement {
		renderElement(&b, log.of(r))
	}
	return b.String()
}

// elementText is groupText for one element assessment.
func elementText(log *seriesLog, r ElementResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	renderElement(&b, log.of(r))
	return b.String()
}

// assessElementText assesses one study through AssessElement and
// renders the result.
func assessElementText(a *Assessor, id string, study timeseries.Series, controls *timeseries.Panel, changeAt time.Time) string {
	ctx, log := recordSeries(context.Background())
	r, err := a.AssessElementContext(ctx, id, study, controls, changeAt, kpi.VoiceRetainability)
	return elementText(log, r, err)
}

// assess runs the case through AssessGroup.
func (c poolCase) assess(a *Assessor) string {
	ctx, log := recordSeries(context.Background())
	g, err := a.AssessGroupContext(ctx, c.studies, c.controls, c.changeAt, kpi.VoiceRetainability)
	return groupText(log, g, err)
}

// assessElements runs every study of the case through AssessElement:
// the fully observed ones fit on a one-element group's shared design,
// the gappy one on its own fit rows.
func (c poolCase) assessElements(a *Assessor) string {
	var b strings.Builder
	for _, id := range c.studies.IDs() {
		b.WriteString(assessElementText(a, id, c.studies.MustSeries(id), c.controls, c.changeAt))
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

// TestPoolTwinElementsMatchAlone builds groups in which several
// elements share a before window — one with the same after window too,
// one with a shifted one — beside distinct and gappy elements. The
// kernel must make the copies twins of the first (one fit arena, one set
// of medians), and every element's result must match assessing it alone,
// on poisoned pools, whichever worker finishes a twin or its source
// first.
func TestPoolTwinElementsMatchAlone(t *testing.T) {
	for _, c := range poolCases() {
		t.Run(c.name, func(t *testing.T) {
			studies := timeseries.NewPanel(c.studies.Index())
			s1 := c.studies.MustSeries("s1")
			pos := s1.Index.SearchPos(c.changeAt)
			shifted := s1.Clone()
			for i := pos; i < len(shifted.Values); i++ {
				shifted.Values[i] += 0.7
			}
			studies.Add("s1", s1)
			studies.Add("s1-copy", s1.Clone())
			studies.Add("s1-shifted", shifted)
			studies.Add("s2", c.studies.MustSeries("s2"))
			studies.Add("s3", c.studies.MustSeries("s3"))
			wantTwin := map[string]string{"s1-copy": "s1", "s1-shifted": "s1"}

			a := MustNewAssessor(c.cfg)
			var want strings.Builder
			for _, id := range studies.IDs() {
				want.WriteString(assessElementText(a, id, studies.MustSeries(id), c.controls, c.changeAt))
			}
			for _, workers := range []int{1, 4} {
				cfg := c.cfg
				cfg.Workers = workers
				a := MustNewAssessor(cfg)
				for rep := 0; rep < 3; rep++ {
					poisonPools()
					ctx, log := recordSeries(context.Background())
					g, results, _, err := a.assessGroup(ctx, c.controls, c.changeAt, []GroupMember{{Studies: studies, KPI: kpi.VoiceRetainability}})
					if err != nil {
						t.Fatal(err)
					}
					var got strings.Builder
					for i := range g.elems {
						e := &g.elems[i]
						twin := ""
						if e.twin != nil {
							twin = e.twin.id
						}
						if twin != wantTwin[e.id] {
							t.Fatalf("workers %d: element %s is a twin of %q, want %q", workers, e.id, twin, wantTwin[e.id])
						}
						got.WriteString(elementText(log, results[i], e.err))
					}
					g.release()
					if got.String() != want.String() {
						t.Fatalf("workers %d rep %d: group with twins differs from assessing each element alone:\n got %s\nwant %s", workers, rep, got.String(), want.String())
					}
				}
			}
		})
	}
}

// forgetSamples empties the process-wide sample cache.
func forgetSamples() {
	sampleCache.Lock()
	defer sampleCache.Unlock()
	sampleCache.byKey, sampleCache.bytes = nil, 0
}

// cachedSamples reports whether the sample cache holds key, and its size
// in bytes.
func cachedSamples(key sampleKey) (bool, int) {
	sampleCache.Lock()
	defer sampleCache.Unlock()
	_, ok := sampleCache.byKey[key]
	return ok, sampleCache.bytes
}

// checkSamples requires samples to be the contract's draws for Seed and
// Iterations of cfg on an n-column panel with sample size k, checking
// every step-th iteration; it reports the first mismatch with t.Errorf,
// so other goroutines may call it.
func checkSamples(t *testing.T, cfg Config, n, k, step int, samples [][]int) {
	t.Helper()
	if len(samples) != cfg.Iterations {
		t.Errorf("seed %d iterations %d: %d samples", cfg.Seed, cfg.Iterations, len(samples))
		return
	}
	for it := 0; it < len(samples); it += step {
		want := sampleColumns(iterRNG(cfg.Seed, it), n, k)
		if fmt.Sprint(samples[it]) != fmt.Sprint(want) {
			t.Errorf("seed %d iterations %d, iteration %d: %v, want %v", cfg.Seed, cfg.Iterations, it, samples[it], want)
			return
		}
	}
}

// TestPoolSampleCacheKeysSeedAndIterations runs assessors whose panels
// share (n, k) but whose Seed or Iterations differ, concurrently on a
// cold process-wide cache, and requires each to get its own draws.
func TestPoolSampleCacheKeysSeedAndIterations(t *testing.T) {
	forgetSamples()
	const n, k, rounds = 13, 8, 3
	var wg sync.WaitGroup
	for _, seed := range []int64{1, 2, 3} {
		for _, iters := range []int{30, 45} {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func(cfg Config) {
					defer wg.Done()
					a := MustNewAssessor(cfg)
					for r := 0; r < rounds; r++ {
						checkSamples(t, a.Config(), n, k, 1, a.samplesFor(n, k))
					}
				}(Config{Seed: seed, Iterations: iters})
			}
		}
	}
	wg.Wait()
	for _, seed := range []int64{1, 2, 3} {
		for _, iters := range []int{30, 45} {
			if ok, _ := cachedSamples(sampleKey{seed, iters, n, k}); !ok {
				t.Errorf("seed %d iterations %d not cached", seed, iters)
			}
		}
	}
}

// TestPoolSampleCacheByteBound checks the cache's byte bound: a shape
// larger than the whole bound (10,000 iterations drawing 67 of 100
// controls) is drawn correctly but not cached, evicts nothing and does
// not stop later small shapes from being cached; a shape that does not
// fit beside the cached ones empties the cache and is kept.
func TestPoolSampleCacheByteBound(t *testing.T) {
	forgetSamples()
	small := MustNewAssessor(Config{Seed: 5})
	first := small.samplesFor(13, 8)

	huge := MustNewAssessor(Config{Seed: 5, Iterations: 10000})
	hugeKey := sampleKey{5, 10000, 100, 67}
	if hugeKey.bytes() <= maxSampleBytes {
		t.Fatalf("test shape costs %d bytes, want more than the %d-byte bound", hugeKey.bytes(), maxSampleBytes)
	}
	checkSamples(t, huge.Config(), 100, 67, 997, huge.samplesFor(100, 67))
	if ok, bytes := cachedSamples(hugeKey); ok || bytes > maxSampleBytes {
		t.Fatalf("oversized shape: cached %v, cache holds %d bytes (bound %d)", ok, bytes, maxSampleBytes)
	}
	if again := small.samplesFor(13, 8); &again[0][0] != &first[0][0] {
		t.Error("an oversized shape evicted a small one")
	}
	later := small.samplesFor(21, 14)
	if again := small.samplesFor(21, 14); &again[0][0] != &later[0][0] {
		t.Error("a small shape after an oversized one was not cached")
	}

	// Shapes of about half the bound each: the third does not fit
	// beside the first two and the small ones.
	big := MustNewAssessor(Config{Seed: 6, Iterations: 1000})
	for k := 60; k < 63; k++ {
		big.samplesFor(100, k)
		ok, bytes := cachedSamples(sampleKey{6, 1000, 100, k})
		if !ok || bytes > maxSampleBytes {
			t.Fatalf("k %d: cached %v, cache holds %d bytes (bound %d)", k, ok, bytes, maxSampleBytes)
		}
	}
	for _, key := range []sampleKey{{6, 1000, 100, 60}, {6, 1000, 100, 61}, {5, DefaultIterations, 13, 8}} {
		if ok, _ := cachedSamples(key); ok {
			t.Errorf("%+v survived a full cache", key)
		}
	}
}

// TestOversizedSamplesOncePerCall pins the per-call draw of a shape too
// large for the process-wide cache (6,000 iterations drawing 20 of 30
// controls, 1.1 MiB): the factor groups of one call, on the assessor
// ForCall derives, share one draw; a new call draws again; and an
// assessor outside a call keeps nothing.
func TestOversizedSamplesOncePerCall(t *testing.T) {
	const n, k = 30, 20
	a := MustNewAssessor(Config{Seed: 5, Iterations: 6000})
	if key := (sampleKey{5, 6000, n, k}); key.bytes() <= maxSampleBytes {
		t.Fatalf("test shape costs %d bytes, want more than the %d-byte bound", key.bytes(), maxSampleBytes)
	}
	call := a.ForCall(nil)
	first := call.samplesFor(n, k) // the first group's designs
	if second := call.samplesFor(n, k); &second[0][0] != &first[0][0] {
		t.Error("the second group of a call drew the oversized shape again")
	}
	checkSamples(t, a.Config(), n, k, 599, first)
	next := a.ForCall(nil).samplesFor(n, k)
	if &next[0][0] == &first[0][0] {
		t.Error("a new call shares the last call's draw")
	}
	checkSamples(t, a.Config(), n, k, 599, next)
	if again := a.samplesFor(n, k); &again[0][0] == &first[0][0] || &again[0][0] == &next[0][0] {
		t.Error("an assessor outside a call returned a call's draw")
	}
	if a.call != nil {
		t.Error("ForCall changed the receiver")
	}
	scope := obs.New("call", obs.NewRegistry())
	if got := a.WithObserver(scope).ForCall(nil).Observer(); got != scope {
		t.Error("ForCall(nil) dropped the receiver's scope")
	}
}
