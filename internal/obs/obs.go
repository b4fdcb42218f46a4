// Package obs is the zero-dependency observability layer of the Litmus
// assessment engine: structured tracing (a span tree over the assessment
// stages), a concurrency-safe metrics registry (counters, gauges,
// histograms with Prometheus-text and expvar publication), and a
// net/http/pprof hook for live profiling.
//
// The engine's hot paths accept an optional *Scope. A nil Scope is the
// documented fast path: every method on a nil *Scope (and on the nil
// metric handles it returns) is a no-op that compiles down to a single
// branch, so uninstrumented assessments cost nothing and — because the
// layer only ever reads timings and increments counters — instrumented
// assessments remain bit-identical to uninstrumented ones. The
// (Seed, iteration) RNG-derivation contract of internal/core is never
// touched.
//
// A Scope is a position in the trace tree plus a handle on the registry:
//
//	reg := obs.NewRegistry()
//	scope := obs.New("assess", reg)        // root span starts now
//	sel := scope.Child("control-select")   // nested stage
//	...
//	sel.End()                              // duration recorded + histogrammed
//	scope.End()
//	scope.Span().WriteJSON(os.Stdout)      // trace tree (a frozen copy)
//	reg.WritePrometheus(os.Stdout)         // metrics dump
//
// Scopes are safe for concurrent use: sibling children may be created
// and ended from different goroutines (the per-element and per-KPI
// fan-outs of the parallel engine do exactly that). A scope records
// into a flat trace store that a Recorder owns and reuses from one
// recording to the next; Scope.Span copies what a reader keeps.
package obs

// Scope is a handle on one position in a trace plus the metrics
// registry recording the run: the trace store, the span's index in it
// and the store's generation when the scope was made (24 bytes). The
// zero value is not useful; a nil *Scope is the documented no-op fast
// path. A scope whose recorder has started again (see Recorder.Start)
// records no span, attr or stage duration, and its Child and Span
// return nil; its metric handles still reach the registry.
type Scope struct {
	t   *trace
	i   int32
	gen uint32
	reg *Registry
}

// Recorder owns a trace store that successive recordings reuse: its
// chunks stay allocated from one Start to the next, up to a bound of
// 512 KiB, so a warm recording allocates only its scopes and the copy
// it keeps (Scope.Span). The zero value is ready to use; a Recorder
// must not be copied after its first Start. One recording at a time:
// Start ends the last one.
type Recorder struct {
	t trace
}

// Start begins a new recording on r and returns its root Scope, a span
// named name that records metrics into reg (nil reg: tracing only).
// Every scope of r's previous recording becomes a no-op, and the attr
// values it set are released.
func (r *Recorder) Start(name string, reg *Registry) *Scope {
	r.t.reset(name, now())
	return &Scope{t: &r.t, gen: r.t.gen, reg: reg}
}

// New returns a live Scope rooted at a span named name that records
// metrics into reg (nil reg: tracing only), on a recorder of its own.
func New(name string, reg *Registry) *Scope {
	return new(Recorder).Start(name, reg)
}

// Child starts a nested span and returns the Scope positioned at it.
// Nil-safe: a nil receiver, or a scope whose recording is over, returns
// nil, keeping the whole downstream call chain no-op.
func (s *Scope) Child(name string) *Scope {
	if s == nil {
		return nil
	}
	c, ok := s.t.child(s.i, s.gen, name)
	if !ok {
		return nil
	}
	return &Scope{t: s.t, i: c, gen: s.gen, reg: s.reg}
}

// End closes the scope's span and, when a registry is attached, observes
// the span duration into the per-stage latency histogram
// MetricStageSeconds{stage=<span name>}.
func (s *Scope) End() {
	if s == nil {
		return
	}
	name, d, ok := s.t.end(s.i, s.gen)
	if ok && s.reg != nil {
		s.reg.stageHistogram(name).Observe(d.Seconds())
	}
}

// Span returns an immutable copy of the scope's span and its subtree as
// they stand (nil for a nil scope or one whose recording is over). A
// span still open reports its age at the call and keeps it.
func (s *Scope) Span() *Span {
	if s == nil {
		return nil
	}
	return s.t.freeze(s.i, s.gen)
}

// Registry returns the scope's metrics registry (nil for a nil scope or
// a tracing-only scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// SetAttr attaches a key/value annotation to the scope's span.
func (s *Scope) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.t.setAttr(s.i, s.gen, key, value)
}

// Counter returns the named counter from the scope's registry; nil-safe
// in both directions (nil scope or tracing-only scope returns a nil
// handle whose methods are no-ops).
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(name)
}

// Histogram returns the named histogram from the scope's registry
// (nil-safe). bounds are the inclusive upper bucket bounds, ascending; a
// +Inf overflow bucket is implicit.
func (s *Scope) Histogram(name string, bounds []float64) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(name, bounds)
}
