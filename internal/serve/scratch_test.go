package serve

// Tests of the memory a serve worker reuses job after job: its trace
// recorder and its document buffer (scratch, server.go), and of the
// response encoders the handlers reuse (writeJSON).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/obs"

	litmus "repro"
)

// skeleton is a span tree without its times: names, attrs and children
// in order.
type skeleton struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []skeleton     `json:"children,omitempty"`
}

// traceSkeleton fetches job id's trace and renders its span tree's
// skeleton, without the root's traceId attr: a batch submitted without
// a traceparent gets a random one.
func traceSkeleton(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	tr, _ := getTrace(t, ts, id)
	if len(tr.Spans) != 1 {
		t.Fatalf("job %s: %d span trees, want 1", id, len(tr.Spans))
	}
	var sk skeleton
	if err := json.Unmarshal(tr.Spans[0].Span, &sk); err != nil {
		t.Fatal(err)
	}
	if sk.Attrs["traceId"] != tr.TraceID {
		t.Errorf("job %s: traceId attr %v, want %s", id, sk.Attrs["traceId"], tr.TraceID)
	}
	delete(sk.Attrs, "traceId")
	b, err := json.MarshalIndent(sk, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTraceWorkersMatchFreshRecorder: two workers run many jobs at once,
// each on the recorder its worker reused, and every job's trace has the
// span names, order and attrs of the same job recorded on a fresh
// recorder (a new server's first job).
func TestTraceWorkersMatchFreshRecorder(t *testing.T) {
	type work struct {
		bare  *AssessRequest
		batch *BatchAssessRequest
	}
	var jobs []work
	for i := 0; i < 6; i++ {
		req := requestWithSeed(t, int64(300+i%3))
		req.Change.ID = fmt.Sprintf("CHG-W-%d", i)
		req.Assessor = &AssessorSpec{Seed: 9, Workers: 1}
		jobs = append(jobs, work{bare: req})
	}
	for i := 0; i < 2; i++ {
		g := goldenRequest(t)
		var changes []ChangeSpec
		for k := 0; k < 3; k++ {
			ch := g.Change
			ch.ID = fmt.Sprintf("CHG-B-%d-%d", i, k)
			changes = append(changes, ch)
		}
		req := goldenBatchRequest(t, changes)
		req.Assessor = &AssessorSpec{Seed: 9, Workers: 1}
		jobs = append(jobs, work{batch: req})
	}
	run := func(ts *httptest.Server, w work) string {
		if w.bare != nil {
			sub, _ := submit(t, ts, w.bare)
			return sub.ID
		}
		sub, _ := submitBatch(t, ts, w.batch)
		return sub.ID
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	ids := make([]string, len(jobs))
	for i, w := range jobs {
		ids[i] = run(ts, w)
	}
	got := make([]string, len(jobs))
	for i, id := range ids {
		if st := waitDone(t, ts, id); st.Status != stateDone {
			t.Fatalf("job %d finished %s: %s", i, st.Status, st.Error)
		}
		got[i] = traceSkeleton(t, ts, id)
	}
	for i, w := range jobs {
		_, fresh := newTestServer(t, Config{Workers: 1})
		id := run(fresh, w)
		waitDone(t, fresh, id)
		if want := traceSkeleton(t, fresh, id); got[i] != want {
			t.Errorf("job %d: trace on a reused recorder differs from a fresh recorder's.\ngot:\n%s\nwant:\n%s", i, got[i], want)
		}
	}
}

// replayOp is one span of a recorded trace, replayed into a recorder.
type replayOp struct {
	name  string
	attrs []obs.Attr
	kids  []replayOp
}

func replayScript(sp *obs.Span) replayOp {
	op := replayOp{name: sp.Name, attrs: sp.Attrs()}
	for _, c := range sp.Children() {
		op.kids = append(op.kids, replayScript(c))
	}
	return op
}

func (op *replayOp) spans() int {
	n := 1
	for i := range op.kids {
		n += op.kids[i].spans()
	}
	return n
}

func (op *replayOp) fill(sc *obs.Scope) {
	for _, a := range op.attrs {
		sc.SetAttr(a.Key, a.Value)
	}
	for i := range op.kids {
		c := sc.Child(op.kids[i].name)
		op.kids[i].fill(c)
	}
	sc.End()
}

// TestTraceBytes: a warm recorder recording the golden job's trace
// allocates only its scopes (24 B each) and the frozen copy the job
// keeps (three allocations). The golden job's 27 spans read 3,048 B in
// 30 allocations; a live tree of span nodes and its frozen copy read
// 7,904 B in 103.
func TestTraceBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sub, _ := submit(t, ts, goldenRequest(t))
	waitDone(t, ts, sub.ID)
	s.mu.Lock()
	span := s.jobs[sub.ID].span
	s.mu.Unlock()
	script := replayScript(span)
	nodes := script.spans()

	reg := obs.NewRegistry()
	var rec obs.Recorder
	record := func() {
		root := rec.Start(script.name, reg)
		script.fill(root)
		spanSink = root.Span()
	}
	record()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(20, record)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		record()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("golden job trace: %d spans, %d B in %v allocations", nodes, per, allocs)
	if want := float64(nodes + 3); allocs != want {
		t.Errorf("recording allocates %v objects, want %v (a scope per child span, the root scope and the frozen copy's three)", allocs, want)
	}
	if per > 3810 {
		t.Errorf("recording allocates %d B, want at most 3810", per)
	}
}

var spanSink *obs.Span

// statusDocs are the status documents the handlers write, with strings
// encoding/json escapes.
func statusDocs() []any {
	at := time.Date(2026, 10, 21, 14, 42, 33, 123456789, time.UTC)
	later := at.Add(1500 * time.Millisecond)
	return []any{
		JobStatus{ID: "j0123", Status: stateDone, Cached: true, Degraded: true, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SubmittedAt: at, StartedAt: &at, FinishedAt: &later},
		JobStatus{ID: "j4567", Status: stateFailed, SubmittedAt: at, Error: "job panicked: <nil> & \"quoted\"\n\tstack   \xff"},
		SubmitResponse{ID: "j89ab", Status: stateQueued},
		SubmitResponse{ID: "jcdef", Status: stateDone, Cached: true},
		BatchSubmitResponse{ID: "b0123", Status: stateQueued, Entries: []BatchEntrySubmit{{ID: "j1", Cached: true}, {Error: "change.elements: <bad> & worse"}}, Unique: 1, CachedEntries: 1},
		BatchSubmitResponse{ID: "b4567", Status: stateDone, Entries: []BatchEntrySubmit{}},
		APIError{Error: `unknown job "x<y>"`},
		map[string]any{"status": "ready", "queueDepth": 3, "queueCap": 64},
	}
}

// TestWriteJSONMatchesEncoder: writeJSON's body is the bytes of a new
// json.Encoder with SetIndent("", "  "), trailing newline included,
// for every status document, a reused encoder's included.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for round := 0; round < 2; round++ {
		for i, v := range statusDocs() {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusAccepted, v)
			if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("doc %d: code %d, content type %q", i, rec.Code, rec.Header().Get("Content-Type"))
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("round %d, doc %d: body differs from encoding/json's.\ngot:\n%s\nwant:\n%s", round, i, rec.Body.Bytes(), want.Bytes())
			}
		}
	}
}

// TestWriteJSONDropsLargeEncoder: an encoder whose buffer outgrew
// maxEncoderBytes does not go back to the pool.
func TestWriteJSONDropsLargeEncoder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	huge := APIError{Error: string(bytes.Repeat([]byte("x"), 2*maxEncoderBytes))}
	writeJSON(httptest.NewRecorder(), http.StatusOK, huge)
	e := encoders.Get().(*responseEncoder)
	defer encoders.Put(e)
	if e.buf.Cap() > maxEncoderBytes {
		t.Errorf("pooled encoder holds a %d B buffer, want at most %d", e.buf.Cap(), maxEncoderBytes)
	}
}

// TestBatchDocumentMatchesMarshal: the batch document a worker's
// encoder writes is the bytes json.Marshal writes for its
// BatchResultDoc (omitted empty fields, escaped strings, compacted
// assessments), also when the encoder and its buffer are reused, and a
// document that is not valid JSON fails as it does there.
func TestBatchDocumentMatchesMarshal(t *testing.T) {
	hostile := &litmus.ChangeAssessment{
		Change:       &changelog.Change{ID: "CHG <&> \"q\" \\    \xff ü"},
		ControlGroup: []string{"nb1-ne-9", "tab\there"},
		PerKPI: map[litmus.KPI]litmus.GroupResult{
			litmus.KPI(0): {Votes: map[litmus.Impact]int{}},
		},
		Degraded: true,
		Failures: []litmus.AssessmentFailure{{Element: "e <1>", Reason: "no-data", Detail: "line\nbreak"}},
	}
	doc, err := litmus.MarshalAssessment(hostile)
	if err != nil {
		t.Fatal(err)
	}
	entries := []BatchEntryResult{
		{ID: "j0", ChangeID: "CHG-GOLD", Assessment: goldenFixture(t)},
		{ID: "j1", ChangeID: "CHG <&> \"q\" \xff", Cached: true, Degraded: true, Assessment: doc},
		{ChangeID: "bad", Error: `change.at: parsing time "x<y>": invalid`},
		{ID: "j2", Error: "change does not fit the requested topology:  "},
		{},
	}
	sc := new(scratch)
	for n := len(entries); n >= 0; n-- {
		bd := &BatchResultDoc{Entries: entries[:n]}
		want, err := json.Marshal(bd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.encode(bd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d entries: document differs from json.Marshal's.\ngot:\n%s\nwant:\n%s", n, got, want)
		}
	}
	if _, err := sc.encode(&BatchResultDoc{Entries: []BatchEntryResult{{Assessment: []byte(`{"cut`)}}}); err == nil {
		t.Error("a batch entry whose assessment is not JSON encoded without an error")
	}
}

// TestScratchDocBound: a worker drops a document buffer that outgrew
// maxDocBytes once its job is done, and keeps one within it.
func TestScratchDocBound(t *testing.T) {
	s := newServer(Config{Workers: 1})
	var sizes []int
	s.testExecute = func(ctx context.Context, j *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		return []byte("{}"), false, nil, nil
	}
	sc := new(scratch)
	for _, n := range []int{maxDocBytes, maxDocBytes + 1} {
		sc.doc = make([]byte, 0, n)
		j := newJob(fmt.Sprint("j", n), true, time.Now())
		j.batch = &batchState{}
		s.runJob(j, sc)
		sizes = append(sizes, cap(sc.doc))
	}
	if sizes[0] != maxDocBytes || sizes[1] != 0 {
		t.Errorf("document buffers kept after jobs: %d and %d B, want %d and 0", sizes[0], sizes[1], maxDocBytes)
	}
}
