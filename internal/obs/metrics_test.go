package obs

import (
	"expvar"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentUse hammers one registry from many goroutines —
// shared handles, get-or-create races, concurrent dumps — and must stay
// clean under `go test -race`.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("c").Add(1)
				reg.Counter(Labeled("lc", "worker", "w")).Add(2)
				reg.Gauge("g").Set(float64(i))
				reg.Gauge("gsum").Add(1)
				reg.Histogram("h", []float64{1, 10, 100}).Observe(float64(i % 20))
			}
		}()
	}
	// Concurrent readers while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			reg.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if got := reg.Counter("c").Value(); got != goroutines*perG {
		t.Errorf("counter c = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Counter(Labeled("lc", "worker", "w")).Value(); got != 2*goroutines*perG {
		t.Errorf("labeled counter = %d, want %d", got, 2*goroutines*perG)
	}
	if got := reg.Gauge("gsum").Value(); got != goroutines*perG {
		t.Errorf("gauge gsum = %v, want %d", got, goroutines*perG)
	}
	h := reg.Histogram("h", nil)
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("litmus_sampling_iterations_total").Add(50)
	reg.Counter(Labeled("litmus_decisions_total", "decision", "go")).Add(1)
	reg.Gauge("litmus_controls").Set(12.5)
	h := reg.Histogram(Labeled("litmus_stage_seconds", "stage", "rank-test"), []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE litmus_sampling_iterations_total counter\n",
		"litmus_sampling_iterations_total 50\n",
		`litmus_decisions_total{decision="go"} 1` + "\n",
		"# TYPE litmus_controls gauge\n",
		"litmus_controls 12.5\n",
		"# TYPE litmus_stage_seconds histogram\n",
		`litmus_stage_seconds_bucket{stage="rank-test",le="0.01"} 1` + "\n",
		`litmus_stage_seconds_bucket{stage="rank-test",le="0.1"} 2` + "\n",
		`litmus_stage_seconds_bucket{stage="rank-test",le="1"} 2` + "\n",
		`litmus_stage_seconds_bucket{stage="rank-test",le="+Inf"} 3` + "\n",
		`litmus_stage_seconds_sum{stage="rank-test"} 5.055` + "\n",
		`litmus_stage_seconds_count{stage="rank-test"} 3` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Prometheus dump missing %q; got:\n%s", want, got)
		}
	}
	// Each base name gets exactly one TYPE line.
	if n := strings.Count(got, "# TYPE litmus_stage_seconds histogram"); n != 1 {
		t.Errorf("TYPE line count = %d, want 1", n)
	}
}

func TestWritePrometheusHelp(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricIterations).Add(3)
	reg.Counter(Labeled(MetricDecisions, "decision", "go")).Add(1)
	reg.Counter("adhoc_series_total").Add(1)
	reg.Histogram(Labeled(MetricStageSeconds, "stage", "rank-test"), StageBuckets).Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	// Canonical names carry their HELP line, immediately before TYPE.
	for name, kind := range map[string]string{
		MetricIterations:   "counter",
		MetricDecisions:    "counter",
		MetricStageSeconds: "histogram",
	} {
		want := "# HELP " + name + " " + Help(name) + "\n# TYPE " + name + " " + kind + "\n"
		if !strings.Contains(got, want) {
			t.Errorf("dump missing HELP/TYPE pair for %s; got:\n%s", name, got)
		}
		if n := strings.Count(got, "# HELP "+name+" "); n != 1 {
			t.Errorf("HELP line count for %s = %d, want 1", name, n)
		}
	}
	// Ad-hoc series scrape fine but carry no HELP.
	if strings.Contains(got, "# HELP adhoc_series_total") {
		t.Errorf("unexpected HELP line for ad-hoc series:\n%s", got)
	}
	if !strings.Contains(got, "# TYPE adhoc_series_total counter\n") {
		t.Errorf("ad-hoc series lost its TYPE line:\n%s", got)
	}
	// Every canonical metric name has documented help text.
	for _, name := range []string{
		MetricStageSeconds, MetricIterations, MetricIterationsFailed,
		MetricControlsSampled, MetricIterationsResampled,
		MetricBeforeFactorizations, MetricLeverageSkipped,
		MetricGroupSharedElements, MetricElementsAssessed,
		MetricElementsSkipped, MetricPValue, MetricControlCandidates,
		MetricControlsSelected, MetricControlsFlagged,
		MetricControlsDiagnosed, MetricDecisions, MetricEvalCases,
		MetricHTTPRequests, MetricQueueDepth, MetricQueueRejected,
		MetricCacheHits, MetricCacheMisses, MetricJobSeconds,
		MetricJobQueueSeconds, MetricJobRunSeconds, MetricJobs,
		MetricJobPanics,
		MetricWorldCacheHits, MetricWorldCacheMisses,
		MetricJournalAppends, MetricJournalReplayed, MetricJournalCompactions,
		MetricRouterBreakerTransitions, MetricRouterHedges, MetricRouterHedgeWins,
	} {
		if Help(name) == "" {
			t.Errorf("metric %s has no help text", name)
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // inclusive upper bound → first bucket
	h.Observe(1.5)
	h.Observe(3) // overflow
	if got := h.buckets[0].Load(); got != 1 {
		t.Errorf("bucket le=1 count = %d, want 1", got)
	}
	if got := h.buckets[1].Load(); got != 1 {
		t.Errorf("bucket le=2 count = %d, want 1", got)
	}
	if got := h.buckets[2].Load(); got != 1 {
		t.Errorf("overflow bucket count = %d, want 1", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Gauge("y").Add(1)
	r.Histogram("z", []float64{1}).Observe(0.5)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	r.PublishExpvar("nil-registry")
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Histogram("z", nil).Count() != 0 {
		t.Error("nil handles should read zero")
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(1)
	reg.PublishExpvar("litmus.metrics.test")
	// A second publication under the same name must not panic.
	NewRegistry().PublishExpvar("litmus.metrics.test")
}

// TestPublishExpvarRepoints: republishing a name must re-point the
// expvar at the newest registry — previously the first registry was
// served forever and later runs' metrics silently vanished from
// /debug/vars.
func TestPublishExpvarRepoints(t *testing.T) {
	first := NewRegistry()
	first.Counter("litmus_repoint_total").Add(1)
	first.PublishExpvar("litmus.metrics.repoint")

	second := NewRegistry()
	second.Counter("litmus_repoint_total").Add(99)
	second.PublishExpvar("litmus.metrics.repoint")

	v := expvar.Get("litmus.metrics.repoint")
	if v == nil {
		t.Fatal("expvar not published")
	}
	snap, ok := v.(expvar.Func)().(map[string]any)
	if !ok {
		t.Fatalf("expvar value is %T, want snapshot map", v.(expvar.Func)())
	}
	if got := snap["litmus_repoint_total"]; got != int64(99) {
		t.Errorf("expvar serves counter = %v, want 99 (the newest registry)", got)
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("m"); got != "m" {
		t.Errorf("Labeled no-kv = %q", got)
	}
	if got := Labeled("m", "a", "1", "b", "x\"y"); got != `m{a="1",b="x\"y"}` {
		t.Errorf("Labeled = %q", got)
	}
	base, labels := splitSeries(`m{a="1"}`)
	if base != "m" || labels != `a="1"` {
		t.Errorf("splitSeries = %q, %q", base, labels)
	}
	base, labels = splitSeries("plain")
	if base != "plain" || labels != "" {
		t.Errorf("splitSeries plain = %q, %q", base, labels)
	}
}

// TestLabeledMatchesFmt: Labeled renders each label as fmt's "%s=%q"
// would, control bytes, invalid UTF-8 and non-ASCII text included.
func TestLabeledMatchesFmt(t *testing.T) {
	for _, v := range []string{"", "200", `x"y\z`, "tab\tnl\n", "\xff\xfe", "ünï ↑", " ", "\x00\x7f"} {
		want := fmt.Sprintf("m{k=%q,path=%q}", v, "POST /v1/assess")
		if got := Labeled("m", "k", v, "path", "POST /v1/assess"); got != want {
			t.Errorf("Labeled(%q) = %s, want %s", v, got, want)
		}
	}
}

// TestLabeledCounterAllocs: a labeled counter looked up by its labels
// is the counter of the rendered series name, and a warm lookup
// allocates nothing.
func TestLabeledCounterAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.LabeledCounter(MetricHTTPRequests, "path", "GET /v1/jobs/{id}", "code", "200")
	if c != reg.Counter(Labeled(MetricHTTPRequests, "path", "GET /v1/jobs/{id}", "code", "200")) {
		t.Fatal("LabeledCounter returned another series than Counter(Labeled(...))")
	}
	allocs := testing.AllocsPerRun(100, func() {
		reg.LabeledCounter(MetricHTTPRequests, "path", "GET /v1/jobs/{id}", "code", "200").Add(1)
	})
	if allocs != 0 {
		t.Errorf("warm LabeledCounter allocates %v objects, want 0", allocs)
	}
	var nilReg *Registry
	if nilReg.LabeledCounter("m", "k", "v") != nil {
		t.Error("a nil registry returned a counter")
	}
}
