package serve

// Durability tests: journal replay on boot (completed results come back
// byte-identical with zero recomputation, unfinished work is
// re-enqueued), /readyz replay gating, and journal consistency across a
// hard-stop Shutdown that cuts an in-flight batch short.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/journal"

	litmus "repro"
)

// openJournal opens (or reopens) the journal in dir with the test's
// default options.
func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	return jr
}

// stubExecutor returns a fast deterministic executor plus its call
// counter: results depend only on the job id, mirroring the engine's
// determinism contract without the engine's cost. A canceled context
// fails the attempt exactly like the real execution path.
func stubExecutor(calls *atomic.Int64) func(context.Context, *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
	return func(ctx context.Context, j *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		if err := ctx.Err(); err != nil {
			return nil, false, nil, err
		}
		calls.Add(1)
		return []byte(`{"stub":"` + j.id + `"}`), false, nil, nil
	}
}

// journalServer builds a server over the journal in dir. The stub
// executor and worker gate are optional; Shutdown and journal Close are
// the caller's to sequence (crash-shaped tests need explicit control).
func journalServer(t *testing.T, dir string, cfg Config, calls *atomic.Int64, gated bool) (*Server, *httptest.Server, *journal.Journal) {
	t.Helper()
	jr := openJournal(t, dir)
	cfg.Journal = jr
	s := newServer(cfg)
	if calls != nil {
		s.testExecute = stubExecutor(calls)
	}
	if gated {
		s.testStarted = make(chan string, 16)
		s.testRelease = make(chan struct{})
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	return s, ts, jr
}

// stopServer gracefully drains s and closes its journal — the clean
// half of every restart test.
func stopServer(t *testing.T, s *Server, ts *httptest.Server, jr *journal.Journal) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := jr.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
}

func getReadyz(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestJournalReplayRestoresResults is the core durability contract: a
// restart over the same journal serves every previously completed
// result byte-identically, from replay alone — the executor never runs.
func TestJournalReplayRestoresResults(t *testing.T) {
	dir := t.TempDir()
	var callsA atomic.Int64
	sA, tsA, jrA := journalServer(t, dir, Config{}, &callsA, false)

	seeds := []int64{2001, 2002, 2003}
	ids := make([]string, len(seeds))
	bodies := make([][]byte, len(seeds))
	for i, seed := range seeds {
		sub, _ := submit(t, tsA, requestWithSeed(t, seed))
		waitDone(t, tsA, sub.ID)
		body, code := fetchResult(t, tsA, sub.ID)
		if code != http.StatusOK {
			t.Fatalf("pre-restart result %s: status %d", sub.ID, code)
		}
		ids[i], bodies[i] = sub.ID, body
	}
	if callsA.Load() != int64(len(seeds)) {
		t.Fatalf("first boot executed %d jobs, want %d", callsA.Load(), len(seeds))
	}
	stopServer(t, sA, tsA, jrA)

	var callsB atomic.Int64
	sB, tsB, jrB := journalServer(t, dir, Config{}, &callsB, false)
	defer stopServer(t, sB, tsB, jrB)
	<-sB.ReplayDone()

	if n := sB.ReplayedResults(); n != len(seeds) {
		t.Fatalf("ReplayedResults = %d, want %d", n, len(seeds))
	}
	if n := counterValue(t, sB.Registry(), obs.MetricJournalReplayed); n != int64(len(seeds)) {
		t.Fatalf("%s = %d, want %d", obs.MetricJournalReplayed, n, len(seeds))
	}
	code, ready := getReadyz(t, tsB)
	if code != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("readyz after replay: %d %v", code, ready)
	}
	if got := ready["replayedResults"]; got != float64(len(seeds)) {
		t.Fatalf("readyz replayedResults = %v, want %d", got, len(seeds))
	}

	for i, id := range ids {
		body, code := fetchResult(t, tsB, id)
		if code != http.StatusOK {
			t.Fatalf("replayed result %s: status %d: %s", id, code, body)
		}
		if string(body) != string(bodies[i]) {
			t.Fatalf("replayed result %s differs from pre-restart bytes", id)
		}
	}
	// A resubmission of a replayed request is a pure cache hit.
	sub, resp := submit(t, tsB, requestWithSeed(t, seeds[0]))
	if resp.StatusCode != http.StatusOK || !sub.Cached {
		t.Fatalf("resubmit after replay: status %d cached %v, want 200 cached", resp.StatusCode, sub.Cached)
	}
	if callsB.Load() != 0 {
		t.Fatalf("second boot executed %d jobs, want 0 — replay must not recompute", callsB.Load())
	}
}

// TestJournalReplayReenqueuesCanceled: a job cut short by a hard stop is
// journaled as canceled — still pending work — and the next boot
// re-enqueues and completes it.
func TestJournalReplayReenqueuesCanceled(t *testing.T) {
	dir := t.TempDir()
	var callsA atomic.Int64
	sA, tsA, jrA := journalServer(t, dir, Config{Workers: 1}, &callsA, true)

	sub, _ := submit(t, tsA, requestWithSeed(t, 3001))
	<-sA.testStarted // worker holds the job at the gate

	// Hard stop: an already-canceled context forces cancelBase, then the
	// released worker sees a dead context and journals a cancellation.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- sA.Shutdown(canceled) }()
	<-sA.baseCtx.Done()
	close(sA.testRelease)
	if err := <-shutdownErr; err != context.Canceled {
		t.Fatalf("hard-stop Shutdown: %v, want context.Canceled", err)
	}
	tsA.Close()
	if err := jrA.Close(); err != nil {
		t.Fatal(err)
	}
	if callsA.Load() != 0 {
		t.Fatalf("canceled job executed %d times before the stop", callsA.Load())
	}

	var callsB atomic.Int64
	sB, tsB, jrB := journalServer(t, dir, Config{Workers: 1}, &callsB, false)
	defer stopServer(t, sB, tsB, jrB)
	<-sB.ReplayDone()

	st := waitDone(t, tsB, sub.ID)
	if st.Status != stateDone {
		t.Fatalf("re-enqueued job finished %q: %s", st.Status, st.Error)
	}
	body, code := fetchResult(t, tsB, sub.ID)
	if code != http.StatusOK || string(body) != `{"stub":"`+sub.ID+`"}` {
		t.Fatalf("re-enqueued result: status %d body %s", code, body)
	}
	if callsB.Load() != 1 {
		t.Fatalf("second boot executed %d jobs, want exactly the re-enqueued one", callsB.Load())
	}
}

// TestReplayFailsRejectedSubmission: a journaled submission that this
// build rejects (controls.maxControls above its cap, which an earlier
// build accepted) comes back as a failed job with the compile error,
// not a 404, and the next boot finds it failed in the journal rather
// than pending.
func TestReplayFailsRejectedSubmission(t *testing.T) {
	dir := t.TempDir()
	req := requestWithSeed(t, 3101)
	req.Controls = &ControlsSpec{MaxControls: 5000}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j0f1e2d3c4b5a69788796a5b4c3d2e1f00f1e2d3c4b5a69788796a5b4c3d2e1f0"
	jr := openJournal(t, dir)
	if err := jr.Append(journal.Record{Kind: journal.KindSubmit, Digest: id, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, ts, jr := journalServer(t, dir, Config{Workers: 1}, &calls, false)
	<-s.ReplayDone()
	st := waitDone(t, ts, id)
	if st.Status != stateFailed || !strings.Contains(st.Error, "controls.maxControls 5000 above max 1000") {
		t.Errorf("replayed job: status %q, error %q; want failed with the compile error", st.Status, st.Error)
	}
	if calls.Load() != 0 {
		t.Errorf("a rejected submission ran %d times", calls.Load())
	}
	stopServer(t, s, ts, jr)

	jr = openJournal(t, dir)
	defer jr.Close()
	finals, err := jr.Finals()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range finals {
		if f.Digest == id && (f.Submit != nil || f.Done != nil) {
			t.Errorf("journal still holds the rejected submission as pending or done: %+v", f)
		}
	}
}

// TestReadyzReplaying: while boot replay is still re-enqueueing backlog,
// /readyz serves 503 "replaying" with a live progress count; once replay
// lands, it serves "ready" with the final replayedResults.
func TestReadyzReplaying(t *testing.T) {
	dir := t.TempDir()

	// Hand-write a journal: one completed result plus three pending
	// submissions — more than the 1-slot queue plus the single gated
	// worker can absorb, so replay observably stalls mid-re-enqueue.
	jr := openJournal(t, dir)
	doneID := "j" + "deadbeef"
	if err := jr.Append(journal.Record{Kind: journal.KindComplete, Digest: doneID, Payload: []byte(`{"replayed":true}`)}); err != nil {
		t.Fatal(err)
	}
	pending := journalSubmits(t, jr, 4001, 4002, 4003)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, ts, jr2 := journalServer(t, dir, Config{Workers: 1, QueueDepth: 1}, &calls, true)
	defer stopServer(t, s, ts, jr2)
	// Open the worker gate on every exit path, before stopServer waits
	// for the worker parked on it: deferred calls run last-in first-out.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(s.testRelease) }) }
	defer release()

	// The third pending submit cannot enqueue until the gate opens, so
	// replay stays in progress until release. Its progress count is live:
	// /readyz may answer before pass 1 has counted the completed record,
	// so wait for the count rather than for the first "replaying".
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := getReadyz(t, ts)
		if code == http.StatusServiceUnavailable && body["status"] == "replaying" && body["replayedResults"] == float64(1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported replaying with 1 replayed result: %d %v", code, body)
		}
		time.Sleep(time.Millisecond)
	}

	release()
	<-s.ReplayDone()
	code, body := getReadyz(t, ts)
	if code != http.StatusOK || body["status"] != "ready" || body["replayedResults"] != float64(1) {
		t.Fatalf("readyz after replay: %d %v", code, body)
	}

	// The hand-written completed result is served straight from replay.
	raw, code := fetchResult(t, ts, doneID)
	if code != http.StatusOK || string(raw) != `{"replayed":true}` {
		t.Fatalf("replayed result: status %d body %s", code, raw)
	}
	// The stalled third submit enqueued once the gate opened: every
	// pending job ran exactly once.
	assertAllDone(t, ts, pending)
	if got := calls.Load(); got != int64(len(pending)) {
		t.Errorf("executor ran %d times, want %d (once per pending submit)", got, len(pending))
	}
}

// journalSubmits appends one pending submit record per seed to jr and
// returns the job ids.
func journalSubmits(t *testing.T, jr *journal.Journal, seeds ...int64) []string {
	t.Helper()
	var ids []string
	for _, seed := range seeds {
		c, err := compile(requestWithSeed(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := jr.Append(journal.Record{Kind: journal.KindSubmit, Digest: c.hash(), Payload: c.canonicalJSON()}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.hash())
	}
	return ids
}

// assertAllDone polls every job until all are done, failing on a
// terminal failure or when any is still unfinished after ten seconds.
func assertAllDone(t *testing.T, ts *httptest.Server, ids []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for {
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
			if st.Status == stateDone {
				break
			}
			if st.Status == stateFailed || time.Now().After(deadline) {
				t.Fatalf("job %s: status %q, want %q", id, st.Status, stateDone)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestReplayBacklogRunsEveryJob: boot replay re-enqueues five pending
// submits through a one-slot queue and a single worker gated for
// 50 ms, so most sends find the queue full and wait. A replayed job is
// registered only once its send succeeds; registering it on a failed
// send would leave it "queued" forever, with replay giving up on it as
// already live. Every pending submit must run exactly once and finish.
func TestReplayBacklogRunsEveryJob(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, dir)
	pending := journalSubmits(t, jr, 4101, 4102, 4103, 4104, 4105)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, ts, jr2 := journalServer(t, dir, Config{Workers: 1, QueueDepth: 1}, &calls, true)
	defer stopServer(t, s, ts, jr2)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(s.testRelease) }) }
	defer release()

	time.Sleep(50 * time.Millisecond)
	release()
	<-s.ReplayDone()
	assertAllDone(t, ts, pending)
	if got := calls.Load(); got != int64(len(pending)) {
		t.Errorf("executor ran %d times, want %d (once per pending submit)", got, len(pending))
	}
}

// TestReplayKeepsNewestResults: boot replay restores results in the
// order of each digest's newest done record, so a CacheSize smaller
// than the replayed results keeps the newest. The journal is submit A,
// done B, done A; with CacheSize 1 only A's result survives. Restoring
// in order of each digest's first record would keep B instead.
func TestReplayKeepsNewestResults(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, dir)
	a := journalSubmits(t, jr, 4201)[0]
	b := mustHash(t, requestWithSeed(t, 4202))
	resultA, resultB := []byte(`{"stub":"`+a+`"}`), []byte(`{"stub":"`+b+`"}`)
	for _, rec := range []journal.Record{
		{Kind: journal.KindComplete, Digest: b, Payload: resultB},
		{Kind: journal.KindComplete, Digest: a, Payload: resultA},
	} {
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s, ts, jr2 := journalServer(t, dir, Config{CacheSize: 1}, &calls, false)
	defer stopServer(t, s, ts, jr2)
	<-s.ReplayDone()

	if body, code := fetchResult(t, ts, a); code != http.StatusOK || string(body) != string(resultA) {
		t.Errorf("newest result %s: status %d body %s, want 200 %s", a, code, body, resultA)
	}
	if _, code := fetchResult(t, ts, b); code != http.StatusNotFound {
		t.Errorf("older result %s: status %d, want 404 (evicted by the bound)", b, code)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("executor ran %d times, want 0", n)
	}
}

// TestShutdownDuringBatchJournal: a hard-stop Shutdown cutting an
// in-flight batch short must leave the journal consistent — the entries
// an earlier batch completed survive replay byte-identically, and the
// interrupted batch is re-enqueued and completes on the next boot with
// its cached entry intact. Real execution end to end: the per-entry
// journaling under test lives inside execute.
func TestShutdownDuringBatchJournal(t *testing.T) {
	dir := t.TempDir()
	sA, tsA, jrA := journalServer(t, dir, Config{Workers: 1}, nil, true)

	change1 := ChangeSpec{ID: "CHG-D1", Elements: goldenStudyElements(t), At: "2012-03-15T00:00:00Z", TrueQuality: -1.5}
	change2 := ChangeSpec{ID: "CHG-D2", Elements: otherStudyElements(t), At: "2012-03-15T00:00:00Z", TrueQuality: -1.5}

	// Batch 1 computes entry 1 for real; its per-entry complete and the
	// batch document both land in the journal.
	sub1, _ := submitBatch(t, tsA, goldenBatchRequest(t, []ChangeSpec{change1}))
	<-sA.testStarted
	sA.testRelease <- struct{}{}
	waitDone(t, tsA, sub1.ID)
	e1 := sub1.Entries[0].ID
	doc1 := fetchBatchResult(t, tsA, sub1.ID)
	e1Bytes := doc1.Entries[0].Assessment
	if len(e1Bytes) == 0 {
		t.Fatalf("batch 1 entry has no assessment: %+v", doc1.Entries[0])
	}

	// Batch 2 resolves entry 1 from the cache and still owes entry 2;
	// the worker holds it at the gate when the hard stop lands.
	sub2, _ := submitBatch(t, tsA, goldenBatchRequest(t, []ChangeSpec{change1, change2}))
	if sub2.CachedEntries != 1 {
		t.Fatalf("batch 2 cachedEntries = %d, want 1", sub2.CachedEntries)
	}
	<-sA.testStarted
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- sA.Shutdown(canceled) }()
	<-sA.baseCtx.Done()
	close(sA.testRelease)
	if err := <-shutdownErr; err != context.Canceled {
		t.Fatalf("hard-stop Shutdown: %v, want context.Canceled", err)
	}
	tsA.Close()
	if err := jrA.Close(); err != nil {
		t.Fatal(err)
	}

	sB, tsB, jrB := journalServer(t, dir, Config{Workers: 1}, nil, false)
	defer stopServer(t, sB, tsB, jrB)
	<-sB.ReplayDone()

	// Entry 1 and the batch-1 document both survived the hard stop.
	if n := sB.ReplayedResults(); n != 2 {
		t.Fatalf("ReplayedResults = %d, want 2 (entry 1 + batch 1 document)", n)
	}
	raw, code := fetchResult(t, tsB, sub1.ID)
	if code != http.StatusOK {
		t.Fatalf("replayed batch 1 document: status %d: %s", code, raw)
	}

	// The interrupted batch was re-enqueued; entry 1 must come from the
	// replayed cache, byte-identical to its pre-crash assessment.
	st := waitDone(t, tsB, sub2.ID)
	if st.Status != stateDone {
		t.Fatalf("re-enqueued batch finished %q: %s", st.Status, st.Error)
	}
	doc2 := fetchBatchResult(t, tsB, sub2.ID)
	if len(doc2.Entries) != 2 {
		t.Fatalf("re-enqueued batch has %d entries, want 2", len(doc2.Entries))
	}
	if doc2.Entries[0].ID != e1 || !doc2.Entries[0].Cached {
		t.Fatalf("entry 1 not served from replayed cache: %+v", doc2.Entries[0])
	}
	if string(doc2.Entries[0].Assessment) != string(e1Bytes) {
		t.Fatalf("entry 1 bytes differ across the hard stop")
	}
	if doc2.Entries[1].Error != "" || len(doc2.Entries[1].Assessment) == 0 {
		t.Fatalf("entry 2 did not complete: %+v", doc2.Entries[1])
	}

	// The single-submission view agrees: entry 1 is a pure cache hit.
	single := goldenRequest(t)
	single.Change = change1
	subS, resp := submit(t, tsB, single)
	if resp.StatusCode != http.StatusOK || !subS.Cached || subS.ID != e1 {
		t.Fatalf("single resubmit of entry 1: status %d cached %v id %s", resp.StatusCode, subS.Cached, subS.ID)
	}
	rawSingle, code := fetchResult(t, tsB, e1)
	if code != http.StatusOK {
		t.Fatalf("entry 1 single result: status %d", code)
	}
	if string(compactJSON(t, rawSingle)) != string(e1Bytes) {
		t.Fatalf("entry 1 single-view bytes differ across the hard stop")
	}
}

// TestCanonicalJobID pins the exported digest helper to the server's own
// job ids — the shard router depends on this equality.
func TestCanonicalJobID(t *testing.T) {
	req := requestWithSeed(t, 5001)
	kpisBefore := append([]string(nil), req.KPIs...)
	id, err := CanonicalJobID(req)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustHash(t, requestWithSeed(t, 5001)); id != want {
		t.Fatalf("CanonicalJobID = %s, want %s", id, want)
	}
	for i, k := range req.KPIs {
		if k != kpisBefore[i] {
			t.Fatalf("CanonicalJobID mutated req.KPIs: %v", req.KPIs)
		}
	}
	bad := requestWithSeed(t, 5001)
	bad.KPIs = nil
	if _, err := CanonicalJobID(bad); err == nil {
		t.Fatal("CanonicalJobID accepted an invalid request")
	}
}
