package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe collection of named metrics. Handles
// are get-or-create: the first caller of Counter/Gauge/Histogram for a
// name creates the series, later callers share it. A nil *Registry is a
// no-op fast path — every lookup returns a nil handle whose methods do
// nothing.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// stages memoizes the MetricStageSeconds histogram per span name,
	// so Scope.End does not render the labeled series name each time.
	stages map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		stages:     map[string]*Histogram{},
	}
}

// Labeled renders a labeled series name, name{k1="v1",k2="v2"}, from
// alternating key/value pairs. The registry treats the result as an
// ordinary series name; WritePrometheus splits it back apart.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	return string(appendLabeled(nil, name, kv))
}

// appendLabeled appends the series name Labeled(name, kv...) renders:
// each value quoted as %q quotes it.
func appendLabeled(dst []byte, name string, kv []string) []byte {
	dst = append(dst, name...)
	if len(kv) == 0 {
		return dst
	}
	dst = append(dst, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, kv[i]...)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, kv[i+1])
	}
	return append(dst, '}')
}

// splitSeries splits a (possibly Labeled) series name into its base name
// and label body ("" when unlabeled).
func splitSeries(series string) (base, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 && strings.HasSuffix(series, "}") {
		return series[:i], series[i+1 : len(series)-1]
	}
	return series, ""
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter (no-op on a nil handle).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v (no-op on a nil handle).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge (no-op on a nil handle).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. bounds are inclusive
// upper bucket bounds in ascending order; an overflow (+Inf) bucket is
// implicit.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample (no-op on a nil handle).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (bounds are inclusive)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of samples observed (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Counter returns the named counter, creating it on first use
// (nil-safe).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// LabeledCounter returns the counter of the series Labeled(name,
// kv...), creating it on first use (nil-safe). Looking up a series that
// exists allocates nothing: the name is rendered into a stack buffer,
// and the map is indexed with it without making a string.
func (r *Registry) LabeledCounter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	var room [128]byte
	series := appendLabeled(room[:0], name, kv)
	r.mu.RLock()
	c := r.counters[string(series)]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	return r.Counter(string(series))
}

// Gauge returns the named gauge, creating it on first use (nil-safe).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on
// first use (nil-safe). Later callers share the original bounds; passing
// different bounds for an existing name is a no-op on the bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// stageHistogram returns the MetricStageSeconds{stage=<name>}
// histogram, creating it through Histogram on first use.
func (r *Registry) stageHistogram(name string) *Histogram {
	r.mu.RLock()
	h := r.stages[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	h = r.Histogram(Labeled(MetricStageSeconds, "stage", name), StageBuckets)
	r.mu.Lock()
	r.stages[name] = h
	r.mu.Unlock()
	return h
}

// WritePrometheus dumps every metric in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered: counters, gauges,
// then histograms, each sorted by series name. Labeled series render
// with their labels; histogram series expand into cumulative _bucket
// lines plus _sum and _count. Base names with canonical documentation
// (see Help) get a # HELP line ahead of their # TYPE line.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	histograms := sortedKeys(r.histograms)
	r.mu.RUnlock()

	typed := map[string]bool{}
	writeType := func(base, kind string) error {
		if typed[base] {
			return nil
		}
		typed[base] = true
		if help := Help(base); help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, help); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}

	for _, series := range counters {
		base, labels := splitSeries(series)
		if err := writeType(base, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", renderSeries(base, labels), r.Counter(series).Value()); err != nil {
			return err
		}
	}
	for _, series := range gauges {
		base, labels := splitSeries(series)
		if err := writeType(base, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", renderSeries(base, labels), formatFloat(r.Gauge(series).Value())); err != nil {
			return err
		}
	}
	for _, series := range histograms {
		base, labels := splitSeries(series)
		if err := writeType(base, "histogram"); err != nil {
			return err
		}
		h := r.Histogram(series, nil)
		var cum int64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			le := formatFloat(bound)
			if _, err := fmt.Fprintf(w, "%s %d\n", renderSeries(base+"_bucket", joinLabels(labels, `le="`+le+`"`)), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", renderSeries(base+"_bucket", joinLabels(labels, `le="+Inf"`)), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", renderSeries(base+"_sum", labels), formatFloat(h.Sum())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", renderSeries(base+"_count", labels), h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a plain map view of every metric, suitable for
// expvar or JSON encoding. Histograms render as {count, sum}.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = map[string]any{"count": h.Count(), "sum": h.Sum()}
	}
	return out
}

// published guards expvar.Publish, which panics on duplicate names. Each
// name maps to a holder the expvar Func reads through, so republishing a
// name re-points /debug/vars at the newest registry instead of silently
// serving the first one forever (a process can build several registries
// over its lifetime — CLI runs, tests, a restarted service — and the
// live one must win).
var (
	publishedMu sync.Mutex
	published   = map[string]*atomic.Pointer[Registry]{}
)

// PublishExpvar exposes the registry's Snapshot under the given expvar
// name (conventionally "litmus.metrics", served on /debug/vars by any
// HTTP server on http.DefaultServeMux — e.g. the -pprof listener).
// Publishing a second registry under a name already taken in this
// process atomically re-points the expvar at the new registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	publishedMu.Lock()
	defer publishedMu.Unlock()
	holder, ok := published[name]
	if !ok {
		holder = &atomic.Pointer[Registry]{}
		published[name] = holder
		expvar.Publish(name, expvar.Func(func() any { return holder.Load().Snapshot() }))
	}
	holder.Store(r)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func renderSeries(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatFloat renders a float the way Prometheus text format expects
// (shortest round-trip, no exponent for common values).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
