package main

// One benchmark run of one workload: set-up (repeated, reported as the
// median), the timed phase, output verification, and — in a traced run —
// the per-layer readings.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	trace    bool
	golden   string // path of testdata/golden_assessment.json
	traceOut string // where a traced run writes its spans
	tmp      string // directory for journals
	size     size
	warmup   time.Duration // how long warmCPUs spins before set-up
	// corrupt, when set, may rewrite the service's answer to item i before
	// verification — the test hook proving that verification catches a
	// wrong byte.
	corrupt func(i int, body []byte)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last: the BENCHMARK.json metrics
// of the run and whether its answers were right.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects every reading of a run: the BENCHMARK.json metrics plus the
// extra lines printed for a human.
type report struct {
	values map[string]metricValue
	order  []string
}

func newReport() *report { return &report{values: map[string]metricValue{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
}

// pick returns the readings named in defs; a reading the run could not
// support (too few samples) is simply absent.
func (r *report) pick(defs []metricDef) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		if v, ok := r.values[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted xs, and
// whether at least minBeyond samples lie beyond it — only then is it
// worth reporting.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return sorted[r-1], n-r >= minBeyond
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setPercentiles reports the p50/p90/p99 of a latency sample in ms;
// failures enter as +Inf, so they count as missing every limit.
func (r *report) setPercentiles(prefix string, ms []float64) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		if v, ok := percentile(s, p.q); ok && !math.IsInf(v, 1) {
			r.set(prefix+"_"+p.name+"_ms", v, "ms")
		}
	}
	r.set(prefix+"_samples", float64(len(ms)), "count")
}

type usage struct {
	cpu   time.Duration // user + system
	alloc uint64        // runtime TotalAlloc
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// peakRSSMiB is the process's resident high-water mark (VmHWM; Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// runWorkload performs one run and returns its result line and every
// reading. A non-nil error means the run could not be measured at all.
func runWorkload(ctx context.Context, opts options) (*result, *report, error) {
	w, err := newWorkload(opts.workload, opts.seed, opts.size)
	if err != nil {
		return nil, nil, err
	}
	goldenWant, err := os.ReadFile(opts.golden)
	if err != nil {
		return nil, nil, fmt.Errorf("reading the golden fixture: %w", err)
	}
	rep := newReport()

	warmCPUs(opts.warmup)
	st, setups, goldenOK, err := setUp(ctx, w, opts, goldenWant)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	rep.set("setup_s", median(setups), "s")

	var tr *traced
	d := newRunner(st, w)
	if opts.trace {
		if tr, err = newTraced(ctx, st); err != nil {
			return nil, nil, err
		}
		d.onDone = tr.onDone
	}
	runtime.GC()
	u0 := readUsage()
	wall := d.run(ctx)
	u1 := readUsage()

	attempted, failed := w.assessments(), 0
	// Latencies in ms; a failure never meets a limit. A miss is a request
	// the service computed — every request of the closed loops.
	var lat, hit, miss []float64
	met := 0
	for i, o := range d.out {
		l := math.Inf(1)
		if o.err != nil {
			failed += w.items[i].assessments()
		} else {
			l = float64(o.latency) / float64(time.Millisecond)
		}
		lat = append(lat, l)
		if o.cached {
			hit = append(hit, l)
		} else {
			miss = append(miss, l)
		}
		if l <= sloMs {
			met++
		}
	}
	completed := attempted - failed
	per := float64(max(completed, 1))
	rep.set("assess_per_s", float64(completed)/wall.Seconds(), "1/s")
	rep.setPercentiles("latency", lat)
	rep.setPercentiles("miss_latency", miss)
	rep.set("cpu_ms_per_assessment", float64(u1.cpu-u0.cpu)/float64(time.Millisecond)/per, "ms")
	rep.set("alloc_kb_per_assessment", float64(u1.alloc-u0.alloc)/1024/per, "KiB")
	rep.set("timed_phase_s", wall.Seconds(), "s")
	rep.set("client.polls", float64(d.polls.Load()), "count")
	if w.clients == 0 {
		rep.setPercentiles("hit_latency", hit)
		rep.set("slo_met_frac", float64(met)/float64(len(lat)), "ratio")
		var late []float64
		for _, l := range d.late {
			late = append(late, float64(l)/float64(time.Millisecond))
		}
		rep.set("generator_late_p50_ms", median(late), "ms")
		sort.Float64s(late)
		rep.set("generator_late_max_ms", late[len(late)-1], "ms")
	}

	if opts.corrupt != nil {
		for i := range d.out {
			if d.out[i].body != nil {
				opts.corrupt(i, d.out[i].body)
			}
		}
	}
	checked, wrong, err := verify(w, d.out)
	if err != nil {
		return nil, nil, err
	}
	if !goldenOK {
		wrong++
	}
	rep.set("verified", float64(checked), "count")
	rep.set("wrong_results", float64(wrong), "count")
	rep.set("failed_frac", float64(failed)/float64(attempted), "ratio")

	if tr != nil {
		if err := tr.finish(ctx, w, d, opts, rep, attempted); err != nil {
			return nil, nil, err
		}
	}
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")

	res := &result{Correct: wrong == 0, Attempted: attempted, Failed: failed}
	if opts.trace {
		res.Metrics = rep.pick(perLayer)
	} else {
		res.Metrics = rep.pick(endToEnd)
	}
	return res, rep, nil
}

// warmCPUs keeps every CPU busy for d. A virtual CPU that has been idle
// runs at about half speed for its first second or so of work; without
// this, set-up would measure that ramp rather than the program.
func warmCPUs(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
}

// sloMs is the latency limit behind slo_met_frac.
const sloMs = 50

// setUp boots the stack opts.size.setups times — each time to readiness,
// the golden check and, for the routed workload, the warmed hot set —
// and keeps the last one. It returns every set-up's duration and whether
// every golden answer matched the fixture byte for byte.
func setUp(ctx context.Context, w *workload, opts options, goldenWant []byte) (*stack, []float64, bool, error) {
	var times []float64
	goldenOK := true
	var st *stack
	for r := 0; r < max(opts.size.setups, 1); r++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, false, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(w, opts.tmp); err != nil {
			return nil, nil, false, err
		}
		ok, err := prepare(ctx, st, w, goldenWant)
		if err != nil {
			st.close()
			return nil, nil, false, fmt.Errorf("set-up: %w", err)
		}
		goldenOK = goldenOK && ok
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, goldenOK, nil
}

func prepare(ctx context.Context, st *stack, w *workload, goldenWant []byte) (bool, error) {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := st.waitReady(rctx); err != nil {
		return false, err
	}
	g := golden
	warm := &workload{clients: maxConns, items: []item{{single: &g}}, checks: map[int]int{0: 0}}
	for i := range w.warm {
		warm.items = append(warm.items, item{single: &w.warm[i]})
	}
	d := newRunner(st, warm)
	d.run(ctx)
	for _, o := range d.out {
		if o.err != nil {
			return false, o.err
		}
	}
	return bytes.Equal(append(d.out[0].body, '\n'), goldenWant), nil
}

// verify recomputes every answer in the workload's verification sample
// through the library and compares the two as compacted JSON. It returns
// how many it checked and how many differed.
func verify(w *workload, out []outcome) (checked, wrong int, err error) {
	for i, it := range w.items {
		e, ok := w.checks[i]
		if !ok || out[i].err != nil {
			continue
		}
		c := it.single
		if it.batch != nil {
			c = &it.batch[e]
		}
		want, err := libraryAssess(*c)
		if err != nil {
			return 0, 0, fmt.Errorf("recomputing %s: %w", c.id, err)
		}
		checked++
		if !sameJSON(out[i].body, want) {
			wrong++
		}
	}
	return checked, wrong, nil
}

func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
