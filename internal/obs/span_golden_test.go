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

// synth is one span of the synthetic trace: its name, start offset,
// duration, attrs and children.
type synth struct {
	name        string
	offset, dur time.Duration
	attrs       []Attr
	kids        []synth
}

// record records sp as a child of parent, the clock set to each step's
// time.
func (sp synth) record(clock *time.Time, at time.Time, parent *Scope) {
	*clock = at.Add(sp.offset)
	c := parent.Child(sp.name)
	sp.fill(clock, at, c)
}

// fill sets sp's attrs on c, records its children and ends it.
func (sp synth) fill(clock *time.Time, at time.Time, c *Scope) {
	for _, a := range sp.attrs {
		c.SetAttr(a.Key, a.Value)
	}
	for _, k := range sp.kids {
		k.record(clock, at, c)
	}
	*clock = at.Add(sp.offset + sp.dur)
	c.End()
}

// syntheticTrace records a deterministic span tree shaped like a real
// two-KPI assessment through the trace store, on a fake clock: fixed
// starts and finishes, the canonical stage taxonomy, attrs on the
// interesting nodes.
func syntheticTrace(t *testing.T) *Span {
	clock := fakeClock(t)
	at := *clock
	mk := func(name string, offset, dur time.Duration, kids ...synth) synth {
		return synth{name: name, offset: offset, dur: dur, kids: kids}
	}
	group := func(offset, dur time.Duration, kpi string) synth {
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
	scope := New(root.name, nil)
	root.fill(clock, at, scope)
	return scope.Span()
}

// TestSpanExportGolden pins the two trace export formats — the indented
// JSON tree and the flame text summary — byte for byte against golden
// files. Run with -update to rewrite them after an intentional format
// change.
func TestSpanExportGolden(t *testing.T) {
	root := syntheticTrace(t)
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
	root := syntheticTrace(t)
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
