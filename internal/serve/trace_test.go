package serve

// Tests of request-scoped tracing: traceparent propagation in and out,
// the trace endpoint's timings, degradation surfacing and span-tree
// capture.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"

	litmus "repro"
)

// submitTraced posts req with a traceparent header and returns the
// submit response plus the raw HTTP response (body drained).
func submitTraced(t *testing.T, ts *httptest.Server, req *AssessRequest, traceparent string) (*SubmitResponse, *http.Response) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/assess", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set(traceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: unexpected status %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	return &sub, resp
}

// getTrace fetches GET /v1/jobs/{id}/trace.
func getTrace(t *testing.T, ts *httptest.Server, id string) (JobTrace, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", resp.StatusCode, body)
	}
	var tr JobTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decoding trace: %v\n%s", err, body)
	}
	return tr, resp
}

// traceNode mirrors the obs span-JSON schema for assertions.
type traceNode struct {
	Name       string         `json:"name"`
	DurationMs float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs"`
	Children   []traceNode    `json:"children"`
}

func collectSpanNames(n traceNode, set map[string]bool) {
	set[n.Name] = true
	for _, c := range n.Children {
		collectSpanNames(c, set)
	}
}

var hexID32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestTraceparentPropagation: a submitted traceparent becomes the job's
// trace identity, echoed on every response naming the job; the trace
// endpoint exposes queue/run timings and the full pipeline span tree.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const wantTrace = "0af7651916cd43dd8448eb211c80319c"
	const parent = "00-" + wantTrace + "-00f067aa0ba902b7-01"

	sub, resp := submitTraced(t, ts, goldenRequest(t), parent)
	if got := resp.Header.Get(traceparentHeader); len(got) != 55 || got[3:35] != wantTrace {
		t.Errorf("submit response traceparent %q does not carry trace id %s", got, wantTrace)
	}
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateDone {
		t.Fatalf("job finished %s: %s", st.Status, st.Error)
	}
	if st.TraceID != wantTrace {
		t.Errorf("job status traceId = %q, want %q", st.TraceID, wantTrace)
	}

	tr, tresp := getTrace(t, ts, sub.ID)
	if got := tresp.Header.Get(traceparentHeader); len(got) != 55 || got[3:35] != wantTrace {
		t.Errorf("trace response traceparent %q does not carry trace id %s", got, wantTrace)
	}
	if tr.TraceID != wantTrace || tr.Status != stateDone {
		t.Errorf("trace identity/status = %q/%q, want %q/done", tr.TraceID, tr.Status, wantTrace)
	}
	if tr.QueueSeconds == nil || *tr.QueueSeconds < 0 {
		t.Error("trace missing queueSeconds")
	}
	if tr.RunSeconds == nil || *tr.RunSeconds <= 0 {
		t.Error("trace missing runSeconds")
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("trace has %d span trees, want 1", len(tr.Spans))
	}
	var root traceNode
	if err := json.Unmarshal(tr.Spans[0].Span, &root); err != nil {
		t.Fatalf("decoding span tree: %v", err)
	}
	if root.Name != obs.SpanServeJob {
		t.Errorf("span root = %q, want %q", root.Name, obs.SpanServeJob)
	}
	if got := root.Attrs["job"]; got != sub.ID {
		t.Errorf("root span job attr = %v, want %s", got, sub.ID)
	}
	names := map[string]bool{}
	collectSpanNames(root, names)
	for _, want := range []string{obs.SpanWorld, obs.SpanAssessChange, obs.SpanControlSelect, obs.SpanAssessGroup, obs.SpanRankTest} {
		if !names[want] {
			t.Errorf("span tree is missing pipeline stage %q", want)
		}
	}
	// A single job is a bare one-entry submission, not a batch: no batch
	// span and no entry list in its trace.
	for _, unwanted := range []string{obs.SpanAssessBatch, obs.SpanBatchEntry} {
		if names[unwanted] {
			t.Errorf("single-job span tree holds a %q span", unwanted)
		}
	}
	if len(tr.Entries) != 0 {
		t.Errorf("single-job trace lists %d batch entries, want none", len(tr.Entries))
	}

	// A later identical submission joins the existing job's trace: the
	// resubmitter's own traceparent does not rename the job.
	const otherParent = "00-ffffffffffffffffffffffffffffff00-00f067aa0ba902b7-01"
	_, resp2 := submitTraced(t, ts, goldenRequest(t), otherParent)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200 cache hit", resp2.StatusCode)
	}
	if got := resp2.Header.Get(traceparentHeader); got[3:35] != wantTrace {
		t.Errorf("cache-hit traceparent %q does not keep the job's trace id %s", got, wantTrace)
	}
}

// TestTraceFreshIDWithoutHeader: absent or malformed traceparent gets a
// generated identity, valid per the W3C grammar.
func TestTraceFreshIDWithoutHeader(t *testing.T) {
	s := newServer(Config{})
	s.testExecute = func(context.Context, *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		return []byte(`{}`), false, nil, nil
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	for _, header := range []string{"", "not-a-traceparent", "00-TRACEIDUPPERCASE-0000000000000001-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01"} {
		sub, resp := submitTraced(t, ts, requestWithSeed(t, 9100+int64(len(header))), header)
		st := waitDone(t, ts, sub.ID)
		if !hexID32.MatchString(st.TraceID) {
			t.Errorf("header %q: job traceId %q is not 32 lowercase hex digits", header, st.TraceID)
		}
		if got := resp.Header.Get(traceparentHeader); len(got) != 55 || got[3:35] != st.TraceID {
			t.Errorf("header %q: response traceparent %q does not match job trace %s", header, got, st.TraceID)
		}
	}
}

// TestTraceDegradedJob: the trace of a degraded job carries its
// machine-readable degradation reasons alongside timings and spans.
func TestTraceDegradedJob(t *testing.T) {
	failures := []litmus.AssessmentFailureDoc{
		{KPI: "voice-retainability", Element: "nb1-ne-1", Reason: "insufficient-controls", Detail: "2 controls after exclusion, need 3"},
		{KPI: "data-accessibility", Reason: "no-data", Detail: "control group has no usable data"},
	}
	s := newServer(Config{})
	s.testExecute = func(context.Context, *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		return []byte(`{"degraded": true}`), true, failures, nil
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	sub, _ := submitTraced(t, ts, requestWithSeed(t, 9201), "")
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateDone || !st.Degraded {
		t.Fatalf("job status/degraded = %s/%v, want done/true", st.Status, st.Degraded)
	}
	tr, _ := getTrace(t, ts, sub.ID)
	if !tr.Degraded {
		t.Error("trace does not surface Degraded")
	}
	if len(tr.Degradations) != len(failures) {
		t.Fatalf("trace has %d degradations, want %d", len(tr.Degradations), len(failures))
	}
	for i, want := range failures {
		if tr.Degradations[i] != want {
			t.Errorf("degradation %d = %+v, want %+v", i, tr.Degradations[i], want)
		}
	}
	if tr.QueueSeconds == nil || tr.RunSeconds == nil {
		t.Error("degraded trace missing queue/run timings")
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("trace has %d span trees, want 1 (hook runs trace too)", len(tr.Spans))
	}
	var root traceNode
	if err := json.Unmarshal(tr.Spans[0].Span, &root); err != nil {
		t.Fatal(err)
	}
	if root.Name != obs.SpanServeJob {
		t.Errorf("span root = %q, want %q", root.Name, obs.SpanServeJob)
	}
}

// TestTraceConcurrentReads: several goroutines read job traces while
// the jobs run and finish. A job has span trees only once it is
// terminal, and from then on every read returns the same bytes: the
// retained trees are frozen.
func TestTraceConcurrentReads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var ids []string
	for seed := int64(31); seed < 35; seed++ {
		req := goldenRequest(t)
		req.Assessor.Seed = seed
		sub, _ := submit(t, ts, req)
		ids = append(ids, sub.ID)
	}

	readTrace := func(id string) ([]byte, error) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					body, err := readTrace(id)
					if err != nil {
						t.Error(err)
						return
					}
					var tr JobTrace
					if err := json.Unmarshal(body, &tr); err != nil {
						t.Errorf("trace of %s does not parse: %v", id, err)
						return
					}
					terminal := tr.Status == stateDone || tr.Status == stateFailed
					if terminal != (len(tr.Spans) == 1) {
						t.Errorf("job %s in state %s has %d span trees", id, tr.Status, len(tr.Spans))
						return
					}
				}
			}
		}()
	}
	for _, id := range ids {
		if st := waitDone(t, ts, id); st.Status != stateDone {
			t.Errorf("job %s finished %s: %s", id, st.Status, st.Error)
		}
	}
	for _, id := range ids {
		first, err := readTrace(id)
		if err != nil {
			t.Fatal(err)
		}
		second, err := readTrace(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("trace of finished job %s changed between reads", id)
		}
		var tr JobTrace
		if err := json.Unmarshal(first, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) != 1 {
			t.Fatalf("finished job %s has %d span trees, want 1", id, len(tr.Spans))
		}
		var root traceNode
		if err := json.Unmarshal(tr.Spans[0].Span, &root); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		collectSpanNames(root, names)
		if root.Name != obs.SpanServeJob || !names[obs.SpanAssessChange] || !names[obs.SpanRankTest] {
			t.Errorf("job %s span tree %q lacks the engine stages: %v", id, root.Name, names)
		}
	}
}

// TestStructuredLogging: a configured slog.Logger receives JSON access
// and job-lifecycle records carrying the job and trace identities.
func TestStructuredLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	logger := slog.New(slog.NewJSONHandler(lockedWriter, nil))

	s := newServer(Config{Logger: logger})
	s.testExecute = func(context.Context, *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		return []byte(`{}`), false, nil, nil
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	sub, _ := submitTraced(t, ts, requestWithSeed(t, 9401), "")
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateDone {
		t.Fatalf("job finished %s", st.Status)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	var sawSubmit, sawJob bool
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		switch rec["msg"] {
		case "http request":
			if rec["route"] == "POST /v1/assess" {
				sawSubmit = true
				if rec["job"] != sub.ID || rec["traceId"] != st.TraceID {
					t.Errorf("submit access log job/trace = %v/%v, want %s/%s", rec["job"], rec["traceId"], sub.ID, st.TraceID)
				}
			}
		case "job finished":
			sawJob = true
			if rec["job"] != sub.ID || rec["traceId"] != st.TraceID || rec["status"] != stateDone {
				t.Errorf("job log = %v, want job %s trace %s status done", rec, sub.ID, st.TraceID)
			}
			if _, ok := rec["queueSeconds"].(float64); !ok {
				t.Error("job log missing queueSeconds")
			}
			if _, ok := rec["runSeconds"].(float64); !ok {
				t.Error("job log missing runSeconds")
			}
		}
	}
	if !sawSubmit || !sawJob {
		t.Errorf("log stream missing records: submit=%v job=%v\n%s", sawSubmit, sawJob, buf.String())
	}
}

// holdHandler is a slog handler that, on a record with message msg,
// signals held and waits for release before passing it on.
type holdHandler struct {
	slog.Handler
	msg     string
	held    chan<- struct{}
	release <-chan struct{}
}

func (h holdHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.held <- struct{}{}
		<-h.release
	}
	return h.Handler.Handle(ctx, r)
}

// TestJobLoggedBeforeDone: a job is logged, timed and counted before its
// terminal state becomes visible. While a handler holds the "job
// finished" record, GET /v1/jobs/{id} must not read done, and the job
// histograms must already hold the job.
func TestJobLoggedBeforeDone(t *testing.T) {
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	logger := slog.New(holdHandler{slog.NewJSONHandler(io.Discard, nil), "job finished", held, release})

	s := newServer(Config{Logger: logger})
	s.testExecute = func(context.Context, *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		return []byte(`{}`), false, nil, nil
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		releaseOnce.Do(func() { close(release) })
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	sub, _ := submitTraced(t, ts, requestWithSeed(t, 9402), "")
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never logged \"job finished\"")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Status == stateDone {
		t.Error("the job reads done before its \"job finished\" record is written")
	}
	for _, name := range []string{obs.MetricJobSeconds, obs.MetricJobQueueSeconds, obs.MetricJobRunSeconds} {
		if n := s.reg.Histogram(name, obs.StageBuckets).Count(); n != 1 {
			t.Errorf("%s holds %d observations while the job is being logged, want 1", name, n)
		}
	}
	releaseOnce.Do(func() { close(release) })
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("job finished %s", st.Status)
	}
}

// writerFunc adapts a function to io.Writer for the log tests.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestTraceUnknownJob: the trace endpoint 404s like the status endpoint.
func TestTraceUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/jdeadbeef/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp.StatusCode)
	}
}

// TestParseTraceparent pins the header grammar.
func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01", "0af7651916cd43dd8448eb211c80319c", true},
		{"00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-00", "0af7651916cd43dd8448eb211c80319c", true},
		{"", "", false},
		{"00-short-00f067aa0ba902b7-01", "", false},
		{"00-0AF7651916CD43DD8448EB211C80319C-00f067aa0ba902b7-01", "", false}, // uppercase
		{"ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01", "", false}, // forbidden version
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", "", false}, // zero trace id
		{"00_0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01", "", false}, // bad separator
	}
	for _, c := range cases {
		got, ok := parseTraceparent(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseTraceparent(%q) = %q/%v, want %q/%v", c.in, got, ok, c.want, c.ok)
		}
	}
	if tid := newTraceID(); !hexID32.MatchString(tid) {
		t.Errorf("newTraceID() = %q, want 32 lowercase hex digits", tid)
	}
	if sid := newSpanID(); len(sid) != 16 {
		t.Errorf("newSpanID() = %q, want 16 hex digits", sid)
	}
}
