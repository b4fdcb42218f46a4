package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilScopeFastPath(t *testing.T) {
	var s *Scope
	c := s.Child("stage")
	if c != nil {
		t.Fatal("nil scope Child should return nil")
	}
	c.SetAttr("k", "v")
	c.Counter("n").Add(1)
	c.Histogram("h", []float64{1}).Observe(1)
	c.End()
	if c.Span() != nil || c.Registry() != nil {
		t.Error("nil scope accessors should return zero values")
	}
}

func TestScopeTraceTree(t *testing.T) {
	reg := NewRegistry()
	root := New("assess", reg)
	sel := root.Child(SpanControlSelect)
	sel.SetAttr("candidates", 12)
	sel.End()
	grp := root.Child(SpanAssessGroup)
	el := grp.Child(SpanAssessElement)
	el.End()
	grp.End()
	root.End()

	span := root.Span()
	if span.Name != "assess" {
		t.Fatalf("root name = %q", span.Name)
	}
	kids := span.Children()
	if len(kids) != 2 || kids[0].Name != SpanControlSelect || kids[1].Name != SpanAssessGroup {
		t.Fatalf("children = %v", kids)
	}
	if attrs := kids[0].Attrs(); len(attrs) != 1 || attrs[0].Key != "candidates" {
		t.Errorf("attrs = %v", attrs)
	}
	// Scope.End records every span into the stage histogram.
	for _, stage := range []string{"assess", SpanControlSelect, SpanAssessGroup, SpanAssessElement} {
		h := reg.Histogram(Labeled(MetricStageSeconds, "stage", stage), nil)
		if h.Count() != 1 {
			t.Errorf("stage %q histogram count = %d, want 1", stage, h.Count())
		}
	}

	var sb strings.Builder
	if err := span.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name     string `json:"name"`
		Children []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"children"`
		DurationMs float64 `json:"durationMs"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, sb.String())
	}
	if doc.Name != "assess" || len(doc.Children) != 2 {
		t.Errorf("JSON tree = %+v", doc)
	}
	if doc.Children[0].Attrs["candidates"] != float64(12) {
		t.Errorf("JSON attrs = %v", doc.Children[0].Attrs)
	}
}

// TestScopeChildEndAllocs: once a stage's histogram exists, a
// Child+End pair allocates only the child's 24-byte scope: the span
// goes into the recorder's store, and the stage series name is not
// rendered again.
func TestScopeChildEndAllocs(t *testing.T) {
	root := New("run", NewRegistry())
	allocs := testing.AllocsPerRun(100, func() {
		root.Child(SpanAssessElement).End()
	})
	if allocs > 1 {
		t.Errorf("warm Child+End allocates %v objects, want 1 (the scope)", allocs)
	}
}

func TestScopeConcurrentChildren(t *testing.T) {
	root := New("root", NewRegistry())
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			el := root.Child(SpanAssessElement)
			inner := el.Child(SpanSampling)
			inner.End()
			el.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Span().Children()); got != 32 {
		t.Errorf("children = %d, want 32", got)
	}
}

func TestWriteFlameMergesSiblings(t *testing.T) {
	root := New("run", nil)
	for i := 0; i < 3; i++ {
		el := root.Child(SpanAssessElement)
		el.Child(SpanSampling).End()
		el.End()
	}
	root.End()
	var sb strings.Builder
	if err := root.Span().WriteFlame(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "assess-element ×3") {
		t.Errorf("flame should merge siblings:\n%s", got)
	}
	if !strings.Contains(got, "sampling-iterations ×3") {
		t.Errorf("flame should merge nested stages:\n%s", got)
	}
	if !strings.Contains(got, "100.0%") {
		t.Errorf("flame should show root share:\n%s", got)
	}
}

func TestStageStatsAndCoverage(t *testing.T) {
	root := New("run", nil)
	a := root.Child("a")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := root.Child("b")
	time.Sleep(2 * time.Millisecond)
	b.End()
	root.End()

	stats := StageStats(root.Span())
	if len(stats) != 3 || stats[0].Name != "run" {
		t.Fatalf("stats = %+v", stats)
	}
	for _, st := range stats {
		if st.Count != 1 || st.Total <= 0 || st.Mean() != st.Total {
			t.Errorf("stat %+v malformed", st)
		}
	}
	if cov := Coverage(root.Span()); cov < 0.5 || cov > 1 {
		t.Errorf("coverage = %v, want most of the root covered", cov)
	}
}

func TestServePprof(t *testing.T) {
	addr, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status = %d", resp.StatusCode)
	}
	if _, err := ServePprof("256.0.0.1:99999"); err == nil {
		t.Error("bad address should fail synchronously")
	}
}
