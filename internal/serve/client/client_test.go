package client

// End-to-end tests driving a real service instance through the typed
// client: the golden scenario must come back bit-identical to the
// committed fixture, alone and as a batch entry, and Assess and
// AssessBatch must ride out 429 backpressure using the server's
// Retry-After hint.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/serve"
)

func goldenRequest(t *testing.T) *serve.AssessRequest {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) == 0 {
		t.Fatal("golden topology has no RNCs")
	}
	study := net.Children(rncs[0])[:3]
	return &serve.AssessRequest{
		Topology:  &serve.TopologySpec{Seed: 17},
		Generator: &serve.GeneratorSpec{Seed: 23},
		Index:     serve.IndexSpec{Start: "2012-03-01T00:00:00Z", Step: "6h", N: 28 * 4},
		Change: serve.ChangeSpec{
			ID:          "CHG-GOLD",
			Type:        "config-change",
			Description: "golden fixture change",
			Elements:    study,
			At:          "2012-03-15T00:00:00Z",
			TrueQuality: -1.5,
		},
		KPIs:       []string{"voice-retainability", "data-accessibility"},
		WindowDays: 14,
		Assessor:   &serve.AssessorSpec{Seed: 9},
		Controls:   &serve.ControlsSpec{Predicates: []string{"same-kind", "same-parent"}},
	}
}

// newService starts a service on cfg and returns a client for it, with
// the server for reading its registry.
func newService(t *testing.T, cfg serve.Config) (*Client, *serve.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return New(ts.URL, ts.Client()), s
}

// TestAssessGolden is the client-side half of the e2e acceptance gate:
// submit, poll, fetch — the bytes must equal the committed fixture.
func TestAssessGolden(t *testing.T) {
	c, _ := newService(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	result, err := c.Assess(ctx, goldenRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := append(append([]byte(nil), result...), '\n'); !bytes.Equal(got, want) {
		t.Errorf("client result deviates from the golden fixture:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Second Assess of the same request: served from the cache, same
	// bytes.
	again, err := c.Assess(ctx, goldenRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, again) {
		t.Error("cached Assess returned different bytes")
	}
}

func TestSubmitAndPollPrimitives(t *testing.T) {
	c, _ := newService(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, err := c.Submit(ctx, goldenRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" {
		t.Fatal("submit returned empty job id")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Job(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Result(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
}

// TestResultBodySizes: the service announces the length of a result,
// here a batch document larger than the server's 2 KiB response buffer,
// which it would otherwise send in chunks; a body of announced length
// reads the same bytes as the same body sent chunked, without one; and
// a body shorter than announced is an error.
func TestResultBodySizes(t *testing.T) {
	c, _ := newService(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	other := goldenRequest(t).Change
	other.ID = "CHG-OTHER"
	other.At = "2012-03-16T00:00:00Z"
	req := goldenBatch(t, goldenRequest(t).Change, other)
	if _, err := c.AssessBatch(ctx, req); err != nil {
		t.Fatal(err)
	}
	sub, err := c.SubmitBatch(ctx, req) // the done batch job's ID
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL() + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != int64(len(doc)) {
		t.Errorf("service announced a %d-byte result, sent %d bytes", resp.ContentLength, len(doc))
	}

	serveAs := func(write func(w http.ResponseWriter)) *Client {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { write(w) }))
		t.Cleanup(srv.Close)
		return New(srv.URL, srv.Client())
	}
	sized := serveAs(func(w http.ResponseWriter) {
		w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
		_, _ = w.Write(doc)
	})
	chunked := serveAs(func(w http.ResponseWriter) {
		_, _ = w.Write(doc)
	})
	short := serveAs(func(w http.ResponseWriter) {
		w.Header().Set("Content-Length", strconv.Itoa(len(doc)+10))
		_, _ = w.Write(doc)
	})
	resp, err = http.Get(chunked.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != -1 {
		t.Fatalf("chunked server announced %d bytes, want no length", resp.ContentLength)
	}
	for name, c := range map[string]*Client{"sized": sized, "chunked": chunked} {
		got, err := c.Result(ctx, "j")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, doc) {
			t.Errorf("%s: read %d bytes that differ from the %d served", name, len(got), len(doc))
		}
	}
	if got, err := short.Result(ctx, "j"); err == nil {
		t.Errorf("a body 10 bytes short of its announced length read as %d bytes, want an error", len(got))
	}
}

func TestUnknownJobError(t *testing.T) {
	c, _ := newService(t, serve.Config{})
	ctx := context.Background()
	_, err := c.Job(ctx, "jdeadbeef")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want *APIError with 404", err)
	}
}

// TestAssessRidesOutBackpressure floods a tiny queue with concurrent
// Assess calls; the client must absorb the 429s (honoring Retry-After)
// and every call must still land the correct result.
func TestAssessRidesOutBackpressure(t *testing.T) {
	c, _ := newService(t, serve.Config{Workers: 1, QueueDepth: 1, RetryAfter: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const calls = 6
	var wg sync.WaitGroup
	errs := make([]error, calls)
	results := make([][]byte, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := goldenRequest(t)
			req.Generator.Seed = int64(100 + i) // distinct jobs: no dedup shortcut
			results[i], errs[i] = c.Assess(ctx, req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Errorf("call %d: %v", i, errs[i])
			continue
		}
		if len(results[i]) == 0 {
			t.Errorf("call %d: empty result", i)
		}
	}
}

// goldenBatch wraps the golden request's shared fields around changes.
func goldenBatch(t *testing.T, changes ...serve.ChangeSpec) *serve.BatchAssessRequest {
	g := goldenRequest(t)
	return &serve.BatchAssessRequest{
		Topology: g.Topology, Generator: g.Generator, Index: g.Index, Changes: changes,
		KPIs: g.KPIs, WindowDays: g.WindowDays, Assessor: g.Assessor, Controls: g.Controls,
	}
}

// TestAssessBatchGolden: AssessBatch submits, polls and decodes the batch
// document; the golden entry carries the committed fixture's document,
// compacted by the embedding.
func TestAssessBatchGolden(t *testing.T) {
	c, _ := newService(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	other := goldenRequest(t).Change
	other.ID = "CHG-OTHER"
	other.At = "2012-03-16T00:00:00Z"
	doc, err := c.AssessBatch(ctx, goldenBatch(t, goldenRequest(t).Change, other))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 2 {
		t.Fatalf("batch document has %d entries, want 2", len(doc.Entries))
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}
	if got := []byte(doc.Entries[0].Assessment); !bytes.Equal(got, compact.Bytes()) {
		t.Errorf("golden batch entry deviates from the golden fixture:\ngot:\n%s\nwant:\n%s", got, compact.Bytes())
	}
	if e := doc.Entries[1]; e.Error != "" || len(e.Assessment) == 0 || e.ChangeID != other.ID {
		t.Errorf("second entry = %+v, want an assessment of %s", e, other.ID)
	}
}

// TestAssessBatchRidesOutBackpressure floods a tiny queue with
// concurrent AssessBatch calls; the client must absorb the 429s
// (honoring Retry-After) and every call must land its document.
func TestAssessBatchRidesOutBackpressure(t *testing.T) {
	c, _ := newService(t, serve.Config{Workers: 1, QueueDepth: 1, RetryAfter: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const calls = 6
	var wg sync.WaitGroup
	errs := make([]error, calls)
	docs := make([]*serve.BatchResultDoc, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := goldenBatch(t, goldenRequest(t).Change)
			req.Generator = &serve.GeneratorSpec{Seed: int64(200 + i)} // distinct batches: no dedup shortcut
			docs[i], errs[i] = c.AssessBatch(ctx, req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Errorf("call %d: %v", i, errs[i])
			continue
		}
		if len(docs[i].Entries) != 1 || len(docs[i].Entries[0].Assessment) == 0 {
			t.Errorf("call %d: document %+v, want one assessed entry", i, docs[i])
		}
	}
}

// TestAssessCancelDuringBackoff: canceling the context while Assess is
// sleeping on a long Retry-After hint must return promptly with
// ctx.Err() — the backoff select listens on ctx, not just the timer.
func TestAssessCancelDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error": "queue full"}`))
	}))
	defer srv.Close()

	c := New(srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Assess(ctx, goldenRequest(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Assess took %v to notice cancellation mid-backoff", elapsed)
	}
}

func TestIsBackpressure(t *testing.T) {
	if !IsBackpressure(&APIError{StatusCode: http.StatusTooManyRequests}) {
		t.Error("429 APIError not recognized as backpressure")
	}
	if IsBackpressure(&APIError{StatusCode: http.StatusNotFound}) {
		t.Error("404 APIError misread as backpressure")
	}
	if IsBackpressure(context.Canceled) {
		t.Error("non-API error misread as backpressure")
	}
}
