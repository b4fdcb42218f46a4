package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// liveTree builds a closed trace with real clock times: element spans
// opened and ended from several goroutines, nested stages, attrs of
// several types and a key set twice on one span.
func liveTree() *Span {
	root := New(SpanServeJob, NewRegistry())
	root.SetAttr("job", "j-1")
	batch := root.Child(SpanAssessBatch)
	batch.SetAttr("entries", 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			el := batch.Child(SpanAssessElement)
			el.SetAttr("element", i)
			el.SetAttr("elapsedMs", 0.25*float64(i))
			s := el.Child(SpanSampling)
			s.SetAttr("degraded", i%2 == 0)
			s.End()
			el.Child(SpanRankTest).End()
			el.SetAttr("element", "final")
			el.End()
		}(i)
	}
	wg.Wait()
	batch.End()
	root.End()
	return root.Span()
}

// liveJSON renders the live tree through its accessors, node by node:
// the reference the frozen renderer must reproduce.
func liveJSON(t *testing.T, s *Span) []byte {
	t.Helper()
	var node func(s *Span) spanJSON
	node = func(s *Span) spanJSON {
		out := spanJSON{Name: s.Name, Start: s.Start, DurationMs: float64(s.Duration()) / float64(time.Millisecond)}
		if attrs := s.Attrs(); len(attrs) > 0 {
			out.Attrs = map[string]any{}
			for _, a := range attrs {
				out.Attrs[a.Key] = a.Value
			}
		}
		for _, c := range s.Children() {
			out.Children = append(out.Children, node(c))
		}
		return out
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(node(s)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func frozenJSON(t *testing.T, f *FrozenSpan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFreezeMatchesLiveJSON: a frozen tree renders the live tree's JSON
// byte for byte, wall-clock start times and durations included.
func TestFreezeMatchesLiveJSON(t *testing.T) {
	root := liveTree()
	f := root.Freeze()
	if got, want := len(f.nodes), 1+1+4*3; got != want {
		t.Errorf("frozen nodes = %d, want %d", got, want)
	}
	if got, want := len(f.attrs), 1+1+4*4; got != want {
		t.Errorf("frozen attrs = %d, want %d", got, want)
	}
	want := liveJSON(t, root)
	if got := frozenJSON(t, f); !bytes.Equal(got, want) {
		t.Errorf("frozen JSON differs from the live tree's.\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := unsafe.Sizeof(frozenNode{}); got != 48 {
		t.Errorf("frozen node is %d bytes, want 48", got)
	}
}

// TestFreezeOpenSpanStable: a span never ended is frozen at its age at
// freeze time, and the frozen tree renders the same bytes ever after.
func TestFreezeOpenSpanStable(t *testing.T) {
	root := New(SpanServeJob, nil)
	root.Child(SpanAssessBatch) // never ended, as a panic leaves it
	root.End()
	f := root.Span().Freeze()
	if f.nodes[1].dur <= 0 {
		t.Errorf("open span frozen with duration %d ns", f.nodes[1].dur)
	}
	first := frozenJSON(t, f)
	time.Sleep(2 * time.Millisecond)
	if second := frozenJSON(t, f); !bytes.Equal(first, second) {
		t.Errorf("frozen trace changed between renders.\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}
