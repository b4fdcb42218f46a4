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
//	scope.Span().WriteJSON(os.Stdout)      // trace tree
//	reg.WritePrometheus(os.Stdout)         // metrics dump
//
// Scopes are safe for concurrent use: sibling children may be created
// and ended from different goroutines (the per-element and per-KPI
// fan-outs of the parallel engine do exactly that).
package obs

// Scope is a handle on one position in a trace tree plus the metrics
// registry recording the run. The zero value is not useful; a nil *Scope
// is the documented no-op fast path.
type Scope struct {
	span *Span
	reg  *Registry
}

// New returns a live Scope rooted at a span named name that records
// metrics into reg (nil reg: tracing only).
func New(name string, reg *Registry) *Scope {
	return &Scope{span: newSpan(name), reg: reg}
}

// Child starts a nested span and returns the Scope positioned at it.
// Nil-safe: a nil receiver returns nil, keeping the whole downstream
// call chain no-op.
func (s *Scope) Child(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{span: s.span.startChild(name), reg: s.reg}
}

// End closes the scope's span and, when a registry is attached, observes
// the span duration into the per-stage latency histogram
// MetricStageSeconds{stage=<span name>}.
func (s *Scope) End() {
	if s == nil {
		return
	}
	d := s.span.end()
	if s.reg != nil {
		s.reg.stageHistogram(s.span.Name).Observe(d.Seconds())
	}
}

// Span returns the scope's span (nil for a nil scope).
func (s *Scope) Span() *Span {
	if s == nil {
		return nil
	}
	return s.span
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
	s.span.setAttr(key, value)
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
