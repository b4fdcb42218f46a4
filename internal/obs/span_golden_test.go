package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the span-export golden files")

// syntheticTrace builds a deterministic span tree shaped like a real
// two-KPI assessment: fixed starts and finishes, the canonical stage
// taxonomy, attrs on the interesting nodes. Same-package access to the
// unexported finish field is what makes the tree time-independent.
func syntheticTrace() *Span {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	mk := func(name string, offset, dur time.Duration, children ...*Span) *Span {
		s := &Span{Name: name, Start: at.Add(offset)}
		s.finish = s.Start.Add(dur)
		s.children = children
		return s
	}
	group := func(offset, dur time.Duration, kpi string) *Span {
		el := mk(SpanAssessElement, offset+16*time.Millisecond, 4*time.Millisecond,
			mk(SpanAggregate, offset+16*time.Millisecond, 2*time.Millisecond),
			mk(SpanRankTest, offset+18*time.Millisecond, time.Millisecond),
		)
		el.attrs = []Attr{{Key: "element", Value: "nb1-ne-1"}, {Key: "kpi", Value: kpi}}
		g := mk(SpanAssessGroup, offset, dur,
			mk(SpanSampling, offset+time.Millisecond, 14*time.Millisecond),
			el,
		)
		g.attrs = []Attr{{Key: "kpi", Value: kpi}, {Key: "members", Value: 1}, {Key: "elements", Value: 1}}
		return g
	}
	root := mk(SpanAssessChange, 0, 100*time.Millisecond,
		mk(SpanControlSelect, time.Millisecond, 9*time.Millisecond),
		mk(SpanPanelAssembly, 10*time.Millisecond, 12*time.Millisecond),
		group(25*time.Millisecond, 32*time.Millisecond, "voice-retainability"),
		group(60*time.Millisecond, 35*time.Millisecond, "data-accessibility"),
	)
	root.attrs = []Attr{{Key: "change", Value: "CHG-GOLD"}, {Key: "kpis", Value: 2}}
	return root
}

// TestSpanExportGolden pins the two trace export formats — the indented
// JSON tree and the flame text summary — byte for byte against golden
// files. Run with -update to rewrite them after an intentional format
// change.
func TestSpanExportGolden(t *testing.T) {
	root := syntheticTrace()
	exports := []struct {
		golden string
		write  func(*bytes.Buffer) error
	}{
		{"golden_span_tree.json", func(b *bytes.Buffer) error { return root.WriteJSON(b) }},
		{"golden_span_flame.txt", func(b *bytes.Buffer) error { return root.WriteFlame(b) }},
	}
	for _, e := range exports {
		t.Run(e.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", e.golden, buf.Bytes(), want)
			}
		})
	}
}

// TestSyntheticTraceStats sanity-checks the synthetic tree against the
// aggregation helpers, so the golden files cover trees the helpers
// consider well-formed.
func TestSyntheticTraceStats(t *testing.T) {
	root := syntheticTrace()
	stats := StageStats(root)
	if stats[0].Name != SpanAssessChange || stats[0].Total != 100*time.Millisecond {
		t.Fatalf("root stat = %+v", stats[0])
	}
	byName := map[string]StageStat{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	if st := byName[SpanAssessGroup]; st.Count != 2 || st.Total != 67*time.Millisecond {
		t.Errorf("assess-group stat = %+v", st)
	}
	if st := byName[SpanRankTest]; st.Count != 2 || st.Mean() != time.Millisecond {
		t.Errorf("rank-test stat = %+v", st)
	}
	if cov := Coverage(root); cov != 0.88 {
		t.Errorf("root coverage = %v, want 0.88", cov)
	}
}
