package serve

// HTTP-level tests of the assessment service: every endpoint's happy
// path and error contract, cache idempotency against the committed
// golden fixture, deterministic queue backpressure (worker-gate test
// hooks — no sleeps), and graceful-shutdown draining.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// goldenStudyElements rebuilds the golden topology (seed 17) to discover
// the same three study element IDs golden_test.go uses.
func goldenStudyElements(t *testing.T) []string {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) == 0 {
		t.Fatal("golden topology has no RNCs")
	}
	children := net.Children(rncs[0])
	if len(children) < 3 {
		t.Fatalf("golden RNC has %d children, need 3", len(children))
	}
	return children[:3]
}

// goldenRequest is the HTTP form of golden_test.go's goldenWorld: the
// service must reproduce testdata/golden_assessment.json from it
// bit-for-bit.
func goldenRequest(t *testing.T) *AssessRequest {
	t.Helper()
	return &AssessRequest{
		Topology:  &TopologySpec{Seed: 17},
		Generator: &GeneratorSpec{Seed: 23},
		Index:     IndexSpec{Start: "2012-03-01T00:00:00Z", Step: "6h", N: 28 * 4},
		Change: ChangeSpec{
			ID:          "CHG-GOLD",
			Type:        "config-change",
			Description: "golden fixture change",
			Elements:    goldenStudyElements(t),
			At:          "2012-03-15T00:00:00Z",
			TrueQuality: -1.5,
		},
		KPIs:       []string{"voice-retainability", "data-accessibility"},
		WindowDays: 14,
		Assessor:   &AssessorSpec{Seed: 9},
		Controls:   &ControlsSpec{Predicates: []string{"same-kind", "same-parent"}},
	}
}

func goldenFixture(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func submit(t *testing.T, ts *httptest.Server, req *AssessRequest) (*SubmitResponse, *http.Response) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/assess", payload)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: unexpected status %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return &sub, resp
}

// waitDone polls job status until the job reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == stateDone || st.Status == stateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.Snapshot()[name]
	if !ok {
		return 0
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("metric %s is %T, want int64", name, v)
	}
	return n
}

func TestSubmitMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/assess", []byte("{not json"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var apiErr APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if apiErr.Error == "" {
		t.Error("error body has empty message")
	}
}

func TestSubmitUnknownFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/assess", []byte(`{"bogusField": 1}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestSubmitInvalidRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, mutate := range map[string]func(*AssessRequest){
		"bad KPI":            func(r *AssessRequest) { r.KPIs = []string{"no-such-kpi"} },
		"bad index start":    func(r *AssessRequest) { r.Index.Start = "yesterday" },
		"short window":       func(r *AssessRequest) { r.WindowDays = 1 },
		"no change id":       func(r *AssessRequest) { r.Change.ID = "" },
		"bad predicate":      func(r *AssessRequest) { r.Controls.Predicates = []string{"same-horoscope"} },
		"huge topology":      func(r *AssessRequest) { r.Topology.CellsPerTower = 10_000 },
		"huge control group": func(r *AssessRequest) { r.Controls.MaxControls = maxControls + 1 },
		"repeated element": func(r *AssessRequest) {
			r.Change.Elements = append([]string{r.Change.Elements[0]}, r.Change.Elements...)
		},
	} {
		req := goldenRequest(t)
		mutate(req)
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/assess", payload)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthAndReadiness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestGoldenOverHTTPAndCacheHit is the end-to-end acceptance test: the
// golden scenario submitted over HTTP must return exactly the committed
// fixture bytes, and resubmitting the same request in any notation must
// be a cache hit that returns the identical bytes without recomputing.
func TestGoldenOverHTTPAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	sub, resp := submit(t, ts, goldenRequest(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status = %d, want 202", resp.StatusCode)
	}
	if sub.Cached {
		t.Fatal("first submit reported cached")
	}
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateDone {
		t.Fatalf("job finished %s (%s), want done", st.Status, st.Error)
	}
	result, code := fetchResult(t, ts, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("result: status = %d, want 200", code)
	}
	want := goldenFixture(t)
	if got := append(append([]byte(nil), result...), '\n'); !bytes.Equal(got, want) {
		t.Errorf("HTTP result deviates from the golden fixture:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The same request in different notation: KPI order flipped, worker
	// count set, timezone spelled as an offset. Must map to the same job
	// and be answered from the cache.
	req2 := goldenRequest(t)
	req2.KPIs = []string{"data-accessibility", "voice-retainability"}
	req2.Assessor.Workers = 4
	req2.Change.At = "2012-03-15T02:00:00+02:00"
	hits0 := counterValue(t, s.Registry(), obs.MetricCacheHits)
	sub2, resp2 := submit(t, ts, req2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status = %d, want 200", resp2.StatusCode)
	}
	if !sub2.Cached || sub2.ID != sub.ID {
		t.Fatalf("resubmit: got id=%s cached=%v, want id=%s cached=true", sub2.ID, sub2.Cached, sub.ID)
	}
	result2, code2 := fetchResult(t, ts, sub2.ID)
	if code2 != http.StatusOK {
		t.Fatalf("cached result: status = %d, want 200", code2)
	}
	if !bytes.Equal(result, result2) {
		t.Error("cache hit returned different bytes than the original result")
	}
	if hits := counterValue(t, s.Registry(), obs.MetricCacheHits); hits != hits0+1 {
		t.Errorf("cache hits = %d, want %d", hits, hits0+1)
	}
	if misses := counterValue(t, s.Registry(), obs.MetricCacheMisses); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	if jobs := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", "done")); jobs != 1 {
		t.Errorf("done jobs = %d, want 1 (the cache hit must not recompute)", jobs)
	}
}

// gatedServer builds a server whose single worker blocks on the test
// gate, so tests can pin the queue in a known state.
func gatedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	s.testStarted = make(chan string, 16)
	s.testRelease = make(chan struct{})
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func requestWithSeed(t *testing.T, seed int64) *AssessRequest {
	req := goldenRequest(t)
	req.Generator.Seed = seed
	return req
}

func TestQueueFull429(t *testing.T) {
	s, ts := gatedServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})

	// Job A occupies the worker (held at the gate); job B fills the
	// one-slot queue; job C must be shed with 429.
	subA, _ := submit(t, ts, requestWithSeed(t, 1001))
	<-s.testStarted
	subB, respB := submit(t, ts, requestWithSeed(t, 1002))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status = %d, want 202", respB.StatusCode)
	}

	payload, _ := json.Marshal(requestWithSeed(t, 1003))
	respC := postJSON(t, ts.URL+"/v1/assess", payload)
	body, _ := io.ReadAll(respC.Body)
	respC.Body.Close()
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: status = %d, want 429 (body: %s)", respC.StatusCode, body)
	}
	if ra := respC.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if rejected := counterValue(t, s.Registry(), obs.MetricQueueRejected); rejected != 1 {
		t.Errorf("queue rejected = %d, want 1", rejected)
	}

	// A rejected submission leaves no job record behind.
	var rejectedID string
	if c, err := compile(requestWithSeed(t, 1003)); err == nil {
		rejectedID = c.hash()
	} else {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rejectedID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected job lookup: status = %d, want 404", resp.StatusCode)
	}

	// Release the gate: both accepted jobs must complete.
	close(s.testRelease)
	for _, id := range []string{subA.ID, subB.ID} {
		if st := waitDone(t, ts, id); st.Status != stateDone {
			t.Errorf("job %s finished %s (%s), want done", id, st.Status, st.Error)
		}
	}
}

func TestResultPending409(t *testing.T) {
	s, ts := gatedServer(t, Config{Workers: 1})
	sub, _ := submit(t, ts, requestWithSeed(t, 2001))
	<-s.testStarted

	if _, code := fetchResult(t, ts, sub.ID); code != http.StatusConflict {
		t.Errorf("pending result: status = %d, want 409", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Status != stateRunning {
		t.Errorf("status = %s, want running", st.Status)
	}
	if st.StartedAt == nil {
		t.Error("running job has no startedAt")
	}

	close(s.testRelease)
	waitDone(t, ts, sub.ID)
}

// TestInflightDedup: an identical request submitted while the first is
// still running must dedupe onto the in-flight job, not enqueue again.
func TestInflightDedup(t *testing.T) {
	s, ts := gatedServer(t, Config{Workers: 1})
	sub, _ := submit(t, ts, requestWithSeed(t, 3001))
	<-s.testStarted

	sub2, resp2 := submit(t, ts, requestWithSeed(t, 3001))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("dup submit: status = %d, want 202", resp2.StatusCode)
	}
	if sub2.ID != sub.ID || !sub2.Cached {
		t.Errorf("dup submit: got id=%s cached=%v, want id=%s cached=true", sub2.ID, sub2.Cached, sub.ID)
	}
	if hits := counterValue(t, s.Registry(), obs.MetricCacheHits); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	close(s.testRelease)
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("job finished %s, want done", st.Status)
	}
	if jobs := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", "done")); jobs != 1 {
		t.Errorf("done jobs = %d, want 1 (dedup must not run the job twice)", jobs)
	}
}

// TestGracefulShutdownDrain: Shutdown must finish queued and in-flight
// work before returning, and the drained results stay fetchable.
func TestGracefulShutdownDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for seed := int64(4001); seed <= 4003; seed++ {
		sub, _ := submit(t, ts, requestWithSeed(t, seed))
		ids = append(ids, sub.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Every accepted job drained to completion.
	for _, id := range ids {
		st := waitDone(t, ts, id)
		if st.Status != stateDone {
			t.Errorf("job %s drained as %s (%s), want done", id, st.Status, st.Error)
		}
		if _, code := fetchResult(t, ts, id); code != http.StatusOK {
			t.Errorf("job %s result after drain: status = %d, want 200", id, code)
		}
	}

	// While drained: not ready, and new submissions are refused.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown: status = %d, want 503", resp.StatusCode)
	}
	payload, _ := json.Marshal(requestWithSeed(t, 4004))
	resp2 := postJSON(t, ts.URL+"/v1/assess", payload)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: status = %d, want 503", resp2.StatusCode)
	}

	// Second shutdown is a no-op.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("repeated shutdown: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), obs.MetricHTTPRequests) {
		t.Errorf("metrics exposition lacks %s:\n%s", obs.MetricHTTPRequests, body)
	}
}

func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: status = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: status = %d, want 200", resp2.StatusCode)
	}
}

// TestCanonicalHash pins the request-normalization contract: notation
// differences hash identically, substantive differences do not.
func TestCanonicalHash(t *testing.T) {
	base := goldenRequest(t)
	baseHash := mustHash(t, base)

	// The id carries the full sha256 digest: a truncated key could let
	// two distinct requests collide and silently share a cached answer.
	if want := 1 + 2*sha256.Size; len(baseHash) != want {
		t.Errorf("id length = %d, want %d (full digest)", len(baseHash), want)
	}

	variants := map[string]func(*AssessRequest){
		"kpi order":        func(r *AssessRequest) { r.KPIs = []string{"data-accessibility", "voice-retainability"} },
		"kpi duplicates":   func(r *AssessRequest) { r.KPIs = append(r.KPIs, "voice-retainability") },
		"worker count":     func(r *AssessRequest) { r.Assessor.Workers = 8 },
		"timezone offset":  func(r *AssessRequest) { r.Change.At = "2012-03-15T03:00:00+03:00" },
		"explicit default": func(r *AssessRequest) { r.Change.Type = "config-change" },
	}
	for name, mutate := range variants {
		req := goldenRequest(t)
		mutate(req)
		if h := mustHash(t, req); h != baseHash {
			t.Errorf("%s: hash %s != base %s — notation must not split the cache", name, h, baseHash)
		}
	}

	different := map[string]func(*AssessRequest){
		"generator seed": func(r *AssessRequest) { r.Generator.Seed = 99 },
		"assessor seed":  func(r *AssessRequest) { r.Assessor.Seed = 99 },
		"window":         func(r *AssessRequest) { r.WindowDays = 7 },
		"kpi set":        func(r *AssessRequest) { r.KPIs = []string{"voice-retainability"} },
		"change time":    func(r *AssessRequest) { r.Change.At = "2012-03-16T00:00:00Z" },
	}
	for name, mutate := range different {
		req := goldenRequest(t)
		mutate(req)
		if h := mustHash(t, req); h == baseHash {
			t.Errorf("%s: hash collides with base — substantive change must rekey", name)
		}
	}
}

// TestCompileLeavesRequestUnchanged: canonicalizing a request sorts and
// dedups a copy of its KPI list. compile, compileBatch and
// CanonicalJobID must leave the caller's request — its KPI slice
// included — exactly as submitted: the batch handler journals the
// request document it decoded.
func TestCompileLeavesRequestUnchanged(t *testing.T) {
	kpis := []string{"voice-retainability", "data-accessibility", "voice-retainability"}
	req := goldenRequest(t)
	req.KPIs = append([]string(nil), kpis...)
	batch := goldenBatchRequest(t, []ChangeSpec{req.Change, req.Change})
	batch.KPIs = append([]string(nil), kpis...)
	snapshot := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wantReq, wantBatch := snapshot(req), snapshot(batch)

	if _, err := compile(req); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(req); got != wantReq {
		t.Errorf("compile rewrote its request: KPIs %v, want %v", req.KPIs, kpis)
	}
	if _, err := CanonicalJobID(req); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(req); got != wantReq {
		t.Errorf("CanonicalJobID rewrote its request: KPIs %v, want %v", req.KPIs, kpis)
	}
	if _, err := compileBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(batch); got != wantBatch {
		t.Errorf("compileBatch rewrote its request: KPIs %v, want %v", batch.KPIs, kpis)
	}
}

func mustHash(t *testing.T, req *AssessRequest) string {
	t.Helper()
	c, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	return c.hash()
}

// TestStoreEvictsLeastRecentlyUsed: with CacheSize 2 the server keeps
// two finished records. A resubmission answered by a record makes it
// the most recently used and a GET does not, so the next finish evicts
// the record only read: its GET answers 404, and resubmitting it
// recomputes.
func TestStoreEvictsLeastRecentlyUsed(t *testing.T) {
	var calls atomic.Int64
	s, ts := newHookedServer(t, Config{Workers: 1, CacheSize: 2}, func(_ context.Context, j *job) ([]byte, bool, error) {
		calls.Add(1)
		return []byte(`{"stub":"` + j.id + `"}`), false, nil
	})
	run := func(seed int64) string {
		t.Helper()
		sub, _ := submit(t, ts, requestWithSeed(t, seed))
		if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
			t.Fatalf("job %d finished %s", seed, st.Status)
		}
		return sub.ID
	}
	a, b := run(5001), run(5002)

	// A hit refreshes a; reading b does not refresh it.
	subA, respA := submit(t, ts, requestWithSeed(t, 5001))
	if respA.StatusCode != http.StatusOK || !subA.Cached || subA.ID != a {
		t.Fatalf("resubmit a: status=%d id=%s cached=%v, want a 200 hit on %s", respA.StatusCode, subA.ID, subA.Cached, a)
	}
	if _, code := getJob(t, ts, b); code != http.StatusOK {
		t.Fatalf("GET b: status %d, want 200", code)
	}
	run(5003) // evicts b, the least recently used

	if _, code := getJob(t, ts, b); code != http.StatusNotFound {
		t.Errorf("evicted record b: status %d, want 404", code)
	}
	if _, code := fetchResult(t, ts, b); code != http.StatusNotFound {
		t.Errorf("evicted result b: status %d, want 404", code)
	}
	if st, code := getJob(t, ts, a); code != http.StatusOK || st.Status != stateDone {
		t.Errorf("refreshed record a: status %d %s, want 200 done", code, st.Status)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("executor ran %d times before the resubmit, want 3", n)
	}

	// Resubmitting b is new work.
	subB, respB := submit(t, ts, requestWithSeed(t, 5002))
	if respB.StatusCode != http.StatusAccepted || subB.Cached {
		t.Fatalf("resubmit b: status=%d cached=%v, want 202 uncached", respB.StatusCode, subB.Cached)
	}
	waitDone(t, ts, b)
	if jobs := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", "done")); jobs != 4 {
		t.Errorf("done jobs = %d, want 4 (the evicted record recomputes)", jobs)
	}
	s.mu.Lock()
	records, finished := len(s.jobs), s.finished.Len()
	s.mu.Unlock()
	if records != 2 || finished != 2 {
		t.Errorf("store holds %d records, %d finished, want 2 and 2", records, finished)
	}
}

// getJob fetches GET /v1/jobs/{id}: the decoded status (zero unless
// 200) and the response code.
func getJob(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// TestJobFailureSurfaces: a request that compiles but cannot build its
// world (study element missing from the requested topology) must finish
// failed with a 500 result and a populated error.
func TestJobFailureSurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := failingRequest(t, 6001)
	sub, _ := submit(t, ts, req)
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateFailed {
		t.Fatalf("job finished %s, want failed", st.Status)
	}
	if st.Error == "" {
		t.Error("failed job has empty error")
	}
	if _, code := fetchResult(t, ts, sub.ID); code != http.StatusInternalServerError {
		t.Errorf("failed result: status = %d, want 500", code)
	}
}

// failingRequest compiles cleanly but fails at run time: the study
// element does not exist in the requested topology.
func failingRequest(t *testing.T, seed int64) *AssessRequest {
	t.Helper()
	req := requestWithSeed(t, seed)
	req.Change.Elements = []string{"no-such-element"}
	return req
}

// TestFailedJobRetryCompletes: resubmitting a failed job must re-run it
// to a terminal state, and the recency list holds the job at most once
// across retries, so the bound evicts by true recency.
func TestFailedJobRetryCompletes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := failingRequest(t, 7001)

	sub, _ := submit(t, ts, req)
	if st := waitDone(t, ts, sub.ID); st.Status != stateFailed {
		t.Fatalf("job finished %s, want failed", st.Status)
	}

	sub2, resp2 := submit(t, ts, req)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("retry submit: status = %d, want 202", resp2.StatusCode)
	}
	if sub2.ID != sub.ID {
		t.Fatalf("retry id %s != original %s", sub2.ID, sub.ID)
	}
	if st := waitDone(t, ts, sub.ID); st.Status != stateFailed {
		t.Fatalf("retried job finished %s, want failed", st.Status)
	}
	if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", stateFailed)); n != 2 {
		t.Errorf("failed jobs = %d, want 2 (the retry must actually run)", n)
	}

	s.mu.Lock()
	finished := s.finished.Len()
	s.mu.Unlock()
	if finished != 1 {
		t.Errorf("finished order holds %d entries after a retry, want 1", finished)
	}
}

// TestJobCountedWhenVisible: litmus_jobs_total counts a job before
// GET /v1/jobs/{id} can show its terminal state. Each job's status is
// polled without a pause and the counter read the moment the state is
// terminal.
func TestJobCountedWhenVisible(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	want := map[string]int64{}
	for i := 0; i < 12; i++ {
		req := requestWithSeed(t, int64(7100+i))
		if i%2 == 1 {
			req = failingRequest(t, int64(7100+i))
		}
		sub, _ := submit(t, ts, req)
		var st JobStatus
		for st.Status != stateDone && st.Status != stateFailed {
			var code int
			if st, code = getJob(t, ts, sub.ID); code != http.StatusOK {
				t.Fatalf("job %d: status code %d", i, code)
			}
		}
		want[st.Status]++
		if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", st.Status)); n != want[st.Status] {
			t.Fatalf("job %d visible as %s with %s jobs = %d, want %d", i, st.Status, st.Status, n, want[st.Status])
		}
	}
	if want[stateDone] == 0 || want[stateFailed] == 0 {
		t.Fatalf("terminal states seen %v, want both done and failed", want)
	}
}

// TestFailedJobRetryQueueFull: a failed-job resubmit shed by the full
// queue must leave the record failed — still retryable — rather than
// wedged in a phantom "queued" state that never runs and dedups every
// future identical submit onto it.
func TestFailedJobRetryQueueFull(t *testing.T) {
	s, ts := gatedServer(t, Config{Workers: 1, QueueDepth: 1})
	// Registered after gatedServer's cleanup, so it runs first (LIFO)
	// and frees any gated worker before Shutdown waits on the pool.
	t.Cleanup(func() { close(s.testRelease) })

	fail := failingRequest(t, 7101)
	subF, _ := submit(t, ts, fail)
	<-s.testStarted
	s.testRelease <- struct{}{}
	if st := waitDone(t, ts, subF.ID); st.Status != stateFailed {
		t.Fatalf("job finished %s, want failed", st.Status)
	}

	// Job A occupies the worker (held at the gate); job B fills the
	// one-slot queue.
	subA, _ := submit(t, ts, requestWithSeed(t, 7102))
	<-s.testStarted
	subB, respB := submit(t, ts, requestWithSeed(t, 7103))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status = %d, want 202", respB.StatusCode)
	}

	// The retry is shed with 429…
	payload, _ := json.Marshal(fail)
	resp := postJSON(t, ts.URL+"/v1/assess", payload)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("retry under full queue: status = %d, want 429", resp.StatusCode)
	}
	// …and the record stays failed, not phantom-queued.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + subF.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(jr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if st.Status != stateFailed {
		t.Fatalf("after shed retry: status = %s, want failed", st.Status)
	}

	// Drain A and B; once the queue frees up the retry must be accepted
	// and actually run to a terminal state.
	s.testRelease <- struct{}{}
	if st := waitDone(t, ts, subA.ID); st.Status != stateDone {
		t.Fatalf("job A finished %s (%s), want done", st.Status, st.Error)
	}
	<-s.testStarted
	s.testRelease <- struct{}{}
	if st := waitDone(t, ts, subB.ID); st.Status != stateDone {
		t.Fatalf("job B finished %s (%s), want done", st.Status, st.Error)
	}

	subF2, respF2 := submit(t, ts, fail)
	if respF2.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after drain: status = %d, want 202", respF2.StatusCode)
	}
	if subF2.ID != subF.ID {
		t.Fatalf("retry id %s != original %s", subF2.ID, subF.ID)
	}
	<-s.testStarted
	s.testRelease <- struct{}{}
	if st := waitDone(t, ts, subF.ID); st.Status != stateFailed {
		t.Fatalf("drained retry finished %s, want failed", st.Status)
	}
}
