package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// fakeClock makes the trace clock read the returned time, which the
// test moves, until the test ends.
func fakeClock(t *testing.T) *time.Time {
	t.Helper()
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	now = func() time.Time { return at }
	t.Cleanup(func() { now = time.Now })
	return &at
}

// refSpan is one span of a pointer tree like the one the trace store
// replaced: the reference a frozen copy must render.
type refSpan struct {
	name          string
	start, finish time.Time
	attrs         []Attr
	kids          []*refSpan
}

// twin records every step into a trace store and into a reference tree.
type twin struct {
	scope *Scope
	ref   *refSpan
}

func newTwin(rec *Recorder, name string) twin {
	return twin{rec.Start(name, nil), &refSpan{name: name, start: now()}}
}

func (p twin) child(name string) twin {
	c := &refSpan{name: name, start: now()}
	p.ref.kids = append(p.ref.kids, c)
	return twin{p.scope.Child(name), c}
}

func (p twin) attr(key string, value any) {
	p.scope.SetAttr(key, value)
	p.ref.attrs = append(p.ref.attrs, Attr{Key: key, Value: value})
}

func (p twin) end() {
	if p.ref.finish.IsZero() {
		p.ref.finish = now()
	}
	p.scope.End()
}

// refJSON renders the reference tree as of at (the finish of spans
// still open) in the trace-JSON schema.
func refJSON(t *testing.T, r *refSpan, at time.Time) []byte {
	t.Helper()
	var node func(r *refSpan) spanJSON
	node = func(r *refSpan) spanJSON {
		finish := r.finish
		if finish.IsZero() {
			finish = at
		}
		out := spanJSON{Name: r.name, Start: r.start, DurationMs: float64(finish.Sub(r.start)) / float64(time.Millisecond)}
		if len(r.attrs) > 0 {
			out.Attrs = map[string]any{}
			for _, a := range r.attrs {
				out.Attrs[a.Key] = a.Value
			}
		}
		for _, c := range r.kids {
			out.Children = append(out.Children, node(c))
		}
		return out
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(node(r)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func spanJSONBytes(t *testing.T, s *Span) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordScript records a job-shaped trace of more than one chunk:
// nested stages, attrs of several types, a key set twice on one span,
// a span ended twice and spans still open at the freeze.
func recordScript(clock *time.Time, root twin) (open twin) {
	tick := func() { *clock = clock.Add(1500 * time.Microsecond) }
	root.attr("job", "j-1")
	batch := root.child(SpanAssessBatch)
	batch.attr("entries", 60)
	for i := 0; i < 60; i++ {
		tick()
		el := batch.child(SpanAssessElement)
		el.attr("element", i)
		el.attr("elapsedMs", 0.25*float64(i))
		tick()
		s := el.child(SpanSampling)
		s.attr("degraded", i%2 == 0)
		tick()
		s.end()
		el.child(SpanRankTest).end()
		el.attr("element", "final")
		tick()
		el.end()
		el.end()
	}
	tick()
	open = batch.child(SpanBatchMarshal)
	open.child(SpanBatchRecord)
	tick()
	batch.end()
	return open
}

// TestFreezeMatchesLiveJSON: a frozen copy renders, byte for byte, the
// JSON of the live recording: a pointer tree like the one the store
// replaced, fed the same steps at the same clock readings, is the
// reference. The whole tree and a subtree, with spans open at the copy.
func TestFreezeMatchesLiveJSON(t *testing.T) {
	clock := fakeClock(t)
	var rec Recorder
	root := newTwin(&rec, SpanServeJob)
	open := recordScript(clock, root)
	*clock = clock.Add(3 * time.Millisecond)

	f := root.scope.Span()
	if got, want := len(f.nodes), 1+1+60*3+2; got != want {
		t.Errorf("frozen nodes = %d, want %d", got, want)
	}
	if got, want := len(f.attrs), 1+1+60*4; got != want {
		t.Errorf("frozen attrs = %d, want %d", got, want)
	}
	if got, want := spanJSONBytes(t, f), refJSON(t, root.ref, *clock); !bytes.Equal(got, want) {
		t.Errorf("frozen JSON differs from the live recording's.\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, want := spanJSONBytes(t, open.scope.Span()), refJSON(t, open.ref, *clock); !bytes.Equal(got, want) {
		t.Errorf("frozen subtree JSON differs from the live recording's.\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := unsafe.Sizeof(frozenNode{}); got != 48 {
		t.Errorf("frozen node is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(node{}); got != 64 {
		t.Errorf("store node is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Scope{}); got != 24 {
		t.Errorf("scope is %d bytes, want 24", got)
	}
}

// TestFreezeOpenSpanStable: a span never ended is frozen at its age at
// freeze time, and the frozen tree renders the same bytes ever after.
func TestFreezeOpenSpanStable(t *testing.T) {
	root := New(SpanServeJob, nil)
	root.Child(SpanAssessBatch) // never ended, as a panic leaves it
	root.End()
	f := root.Span()
	if f.nodes[1].dur <= 0 {
		t.Errorf("open span frozen with duration %d ns", f.nodes[1].dur)
	}
	first := spanJSONBytes(t, f)
	time.Sleep(2 * time.Millisecond)
	if second := spanJSONBytes(t, f); !bytes.Equal(first, second) {
		t.Errorf("frozen trace changed between renders.\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestTraceConcurrentSiblings: siblings created from several goroutines
// keep their creation order, and a key set twice renders its last
// value.
func TestTraceConcurrentSiblings(t *testing.T) {
	root := New(SpanServeJob, NewRegistry())
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("%d-%d", g, i)
				mu.Lock()
				el := root.Child(SpanAssessElement)
				el.SetAttr("element", id)
				order = append(order, id)
				mu.Unlock()
				el.Child(SpanSampling).End()
				el.SetAttr("element", "final-"+id)
				el.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()

	var doc struct {
		Children []struct {
			Attrs    map[string]any `json:"attrs"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"children"`
	}
	if err := json.Unmarshal(spanJSONBytes(t, root.Span()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Children) != len(order) {
		t.Fatalf("root has %d children, want %d", len(doc.Children), len(order))
	}
	for i, c := range doc.Children {
		if got, want := c.Attrs["element"], "final-"+order[i]; got != want {
			t.Errorf("child %d: element = %v, want %v", i, got, want)
		}
		if len(c.Children) != 1 || c.Children[0].Name != SpanSampling {
			t.Errorf("child %d: children %+v, want one %s", i, c.Children, SpanSampling)
		}
	}
}

// TestTraceStaleScope: once its recorder starts again, a scope of the
// last recording is a no-op, and the new recording is unchanged by it.
func TestTraceStaleScope(t *testing.T) {
	clock := fakeClock(t)
	reg := NewRegistry()
	var rec Recorder
	old := rec.Start("first", reg)
	el := old.Child(SpanAssessElement)
	el.SetAttr("element", "nb1-ne-1")

	root := rec.Start("second", reg)
	*clock = clock.Add(time.Millisecond)
	root.Child(SpanAssessGroup).End()
	// The new root stays open: a stale End must not close it either.
	wantAt := *clock
	want := spanJSONBytes(t, root.Span())

	if old.Child(SpanSampling) != nil || el.Child(SpanSampling) != nil {
		t.Error("a stale scope's Child returned a scope")
	}
	el.SetAttr("element", "late")
	old.SetAttr("job", "late")
	*clock = clock.Add(time.Millisecond)
	el.End()
	old.End()
	if el.Span() != nil || old.Span() != nil {
		t.Error("a stale scope's Span returned a tree")
	}
	if h := reg.Histogram(Labeled(MetricStageSeconds, "stage", SpanAssessElement), nil); h.Count() != 0 {
		t.Errorf("a stale scope's End observed %d stage durations", h.Count())
	}
	*clock = wantAt
	if got := spanJSONBytes(t, root.Span()); !bytes.Equal(got, want) {
		t.Errorf("stale scopes changed the new recording.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceChunks: entries 0, 1, 2, ... fill the chunks grow appends
// one after the other, each entry its own slot, in chunks of 16, 16,
// 32, 64 and then 128 entries.
func TestTraceChunks(t *testing.T) {
	var chunks [][]struct{}
	prevK, prevOff := int32(0), int32(-1)
	for i := int32(0); i < 6*chunkLen; i++ {
		chunks = grow(chunks, i)
		k, off := locate(i)
		if next := (k == prevK && off == prevOff+1) || (k == prevK+1 && off == 0 && int(prevOff) == len(chunks[prevK])-1); !next {
			t.Fatalf("entry %d at chunk %d offset %d, after chunk %d offset %d", i, k, off, prevK, prevOff)
		}
		if int(k) != len(chunks)-1 || int(off) >= len(chunks[k]) {
			t.Fatalf("entry %d at chunk %d offset %d outside the %d chunks grown", i, k, off, len(chunks))
		}
		prevK, prevOff = k, off
	}
	var sizes []int
	for _, c := range chunks {
		sizes = append(sizes, len(c))
	}
	if want := []int{16, 16, 32, 64, 128, 128, 128, 128, 128}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Errorf("chunk sizes %v, want %v", sizes, want)
	}
}

// TestTraceStartClearsAttrs: Start releases every attr value the last
// recording set, so a reused chunk keeps none of them alive.
func TestTraceStartClearsAttrs(t *testing.T) {
	var rec Recorder
	root := rec.Start("first", nil)
	for i := 0; i < 3*chunkLen; i++ {
		root.SetAttr("payload", &[64]byte{})
	}
	rec.Start("second", nil)
	for c, chunk := range rec.t.attrs {
		for i, a := range chunk {
			if a.value != nil || a.key != "" {
				t.Fatalf("attr %d of chunk %d kept %q=%v across Start", i, c, a.key, a.value)
			}
		}
	}
}

// TestTraceRetainBound: a recorder keeps its chunks across Start up to
// retainBytes and drops them beyond it.
func TestTraceRetainBound(t *testing.T) {
	var rec Recorder
	root := rec.Start("small", nil)
	for i := 0; i < 2*chunkLen; i++ {
		root.Child(SpanAssessElement).End()
	}
	chunks := len(rec.t.nodes)
	rec.Start("next", nil)
	if len(rec.t.nodes) != chunks {
		t.Errorf("a recorder within its bound kept %d of %d node chunks", len(rec.t.nodes), chunks)
	}
	root = rec.Start("large", nil)
	for rec.t.bytes() <= retainBytes {
		root.Child(SpanAssessElement).End()
	}
	rec.Start("next", nil)
	if got := rec.t.bytes(); got > retainBytes {
		t.Errorf("a recorder past its bound kept %d B of chunks, want at most %d", got, retainBytes)
	}
}
