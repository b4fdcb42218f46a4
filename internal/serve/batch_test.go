package serve

// Tests of the batch endpoint: per-entry digest canonicalization (order
// independence, dedup, cache interop with single submissions), per-entry
// error isolation, byte-identity of batch entries against the committed
// golden fixture, and the batch job's trace — including a golden
// 3-entry trace fixture with nondeterministic fields scrubbed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"

	litmus "repro"
)

var updateBatchTrace = flag.Bool("update-batch-trace", false, "rewrite the golden batch trace fixture")

// otherStudyElements returns three towers under the golden topology's
// second RNC — a study disjoint from goldenStudyElements.
func otherStudyElements(t *testing.T) []string {
	t.Helper()
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	if len(rncs) < 2 {
		t.Fatal("golden topology has fewer than 2 RNCs")
	}
	children := net.Children(rncs[1])
	if len(children) < 3 {
		t.Fatalf("second RNC has %d children, need 3", len(children))
	}
	return children[:3]
}

// goldenBatchRequest wraps the golden world's shared fields around the
// given changelog.
func goldenBatchRequest(t *testing.T, changes []ChangeSpec) *BatchAssessRequest {
	t.Helper()
	g := goldenRequest(t)
	return &BatchAssessRequest{
		Topology:   g.Topology,
		Generator:  g.Generator,
		Index:      g.Index,
		Changes:    changes,
		KPIs:       g.KPIs,
		WindowDays: g.WindowDays,
		Assessor:   g.Assessor,
		Controls:   g.Controls,
	}
}

func submitBatch(t *testing.T, ts *httptest.Server, req *BatchAssessRequest) (*BatchSubmitResponse, *http.Response) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/assess/batch", payload)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: unexpected status %d: %s", resp.StatusCode, body)
	}
	var sub BatchSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	return &sub, resp
}

// compactJSON normalizes indentation: embedding an assessment document
// as json.RawMessage inside the batch result doc compacts it, while the
// cache (and GET /v1/jobs/{id}/result) holds the indented original.
func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compacting JSON: %v", err)
	}
	return buf.Bytes()
}

func fetchBatchResult(t *testing.T, ts *httptest.Server, id string) BatchResultDoc {
	t.Helper()
	raw, code := fetchResult(t, ts, id)
	if code != http.StatusOK {
		t.Fatalf("batch result: status %d: %s", code, raw)
	}
	var doc BatchResultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decoding batch result: %v\n%s", err, raw)
	}
	return doc
}

// TestBatchDigestCanonicalization pins the per-entry digest contract at
// the compile layer: an entry's digest equals the job id the same
// change would get from POST /v1/assess, entry order changes neither
// the digests nor the dedup, and duplicate entries collapse onto one
// unique computation.
// uniqueDigests lists a submission's distinct entry digests in
// first-seen order.
func uniqueDigests(sub *submission) []string {
	var out []string
	for _, pe := range sub.unique {
		out = append(out, pe.digest)
	}
	return out
}

func TestBatchDigestCanonicalization(t *testing.T) {
	g := goldenRequest(t)
	chA := g.Change
	chB := g.Change
	chB.ID = "CHG-OTHER"
	chB.Type = "software-upgrade"
	chB.TrueQuality = 0.8

	// Per-entry digests equal the single-submission job ids.
	bc, err := compileBatch(goldenBatchRequest(t, []ChangeSpec{chA, chB}))
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range []ChangeSpec{chA, chB} {
		single := *g
		single.Change = ch
		c, err := compile(&single)
		if err != nil {
			t.Fatal(err)
		}
		if bc.entries[i].digest != c.hash() {
			t.Errorf("entry %d digest %s != single job id %s", i, bc.entries[i].digest, c.hash())
		}
	}

	// Entry order does not change per-entry digests (the batch job id
	// may differ — it covers submission order by design).
	rev, err := compileBatch(goldenBatchRequest(t, []ChangeSpec{chB, chA}))
	if err != nil {
		t.Fatal(err)
	}
	if bc.entries[0].digest != rev.entries[1].digest || bc.entries[1].digest != rev.entries[0].digest {
		t.Error("reordering entries changed their digests")
	}
	fwd := uniqueDigests(bc)
	bwd := uniqueDigests(rev)
	sort.Strings(fwd)
	sort.Strings(bwd)
	if len(fwd) != 2 || fwd[0] != bwd[0] || fwd[1] != bwd[1] {
		t.Error("reordering entries changed the unique digest set")
	}

	// Duplicates dedup onto one unique computation.
	dup, err := compileBatch(goldenBatchRequest(t, []ChangeSpec{chA, chB, chA, chA}))
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.unique) != 2 {
		t.Errorf("duplicated changelog has %d unique digests, want 2", len(dup.unique))
	}
	if dup.entries[0].digest != dup.entries[2].digest || dup.entries[0].digest != dup.entries[3].digest {
		t.Error("duplicate entries got different digests")
	}

	// Normalization reaches through to entries: timezone-offset At and
	// an explicit default type are the same change.
	chNorm := chA
	chNorm.At = "2012-03-15T02:00:00+02:00"
	chNorm.Type = "config-change"
	norm, err := compileBatch(goldenBatchRequest(t, []ChangeSpec{chNorm}))
	if err != nil {
		t.Fatal(err)
	}
	if norm.entries[0].digest != bc.entries[0].digest {
		t.Error("normalized entry variant got a different digest")
	}
}

// TestBatchValidation pins the request-level error contract: shared-field
// errors fail the whole submission with 400; a changelog that is empty
// or oversized is rejected outright.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := goldenRequest(t)

	post := func(req *BatchAssessRequest) int {
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/assess/batch", payload)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(goldenBatchRequest(t, nil)); code != http.StatusBadRequest {
		t.Errorf("empty changelog: status %d, want 400", code)
	}
	big := make([]ChangeSpec, maxBatchEntries+1)
	for i := range big {
		big[i] = g.Change
	}
	if code := post(goldenBatchRequest(t, big)); code != http.StatusBadRequest {
		t.Errorf("oversized changelog: status %d, want 400", code)
	}
	bad := goldenBatchRequest(t, []ChangeSpec{g.Change})
	bad.Index.Step = "not-a-duration"
	if code := post(bad); code != http.StatusBadRequest {
		t.Errorf("bad shared field: status %d, want 400", code)
	}
}

// TestBatchRepeatedElementFailsOnlyItsEntry: a changelog entry that
// lists a study element twice fails at submit with its compile error,
// and only that entry: the golden entry beside it carries the committed
// fixture, and no job panics.
func TestBatchRepeatedElementFailsOnlyItsEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	golden := goldenRequest(t).Change
	doubled := golden
	doubled.ID = "CHG-DOUBLED"
	doubled.Elements = append([]string{golden.Elements[0]}, golden.Elements...)
	sub, _ := submitBatch(t, ts, goldenBatchRequest(t, []ChangeSpec{golden, doubled}))
	want := fmt.Sprintf("change.elements lists %q twice", golden.Elements[0])
	if e := sub.Entries[1]; e.Error != want || e.ID != "" {
		t.Errorf("repeated-element entry at submit = %+v, want error %q and no digest", e, want)
	}
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", st.Status, st.Error)
	}
	doc := fetchBatchResult(t, ts, sub.ID)
	if got, want := []byte(doc.Entries[0].Assessment), compactJSON(t, goldenFixture(t)); !bytes.Equal(got, want) {
		t.Errorf("golden entry beside a repeated-element entry differs from the fixture:\n%s", got)
	}
	if e := doc.Entries[1]; e.Error != want || e.Assessment != nil {
		t.Errorf("repeated-element entry = %+v, want error %q only", e, want)
	}
	if n := counterValue(t, s.Registry(), obs.MetricJobPanics); n != 0 {
		t.Errorf("%d job panics, want 0", n)
	}
}

// TestBatchEndToEnd drives a mixed changelog through the batch endpoint:
// a golden entry whose result must be byte-identical to the committed
// single-submission fixture, a disjoint-study entry, a duplicate, a
// compile-invalid entry and a topology-invalid entry — the invalid
// entries carry per-entry errors without failing the batch.
func TestBatchEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := goldenRequest(t)

	chGolden := g.Change
	chShared := g.Change
	chShared.ID = "CHG-SHARED"
	chShared.Type = "software-upgrade"
	chShared.TrueQuality = 0.8
	chOther := g.Change
	chOther.ID = "CHG-OTHER"
	chOther.Type = "hardware-upgrade"
	chOther.Elements = otherStudyElements(t)
	chOther.TrueQuality = -0.7
	chBadAt := g.Change
	chBadAt.ID = "CHG-BAD-AT"
	chBadAt.At = "not-a-timestamp"
	chNoSuch := g.Change
	chNoSuch.ID = "CHG-NO-SUCH"
	chNoSuch.Elements = []string{"no-such-element"}

	changes := []ChangeSpec{chGolden, chShared, chOther, chGolden, chBadAt, chNoSuch}
	sub, resp := submitBatch(t, ts, goldenBatchRequest(t, changes))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: status %d, want 202", resp.StatusCode)
	}
	if len(sub.Entries) != len(changes) {
		t.Fatalf("submit response has %d entries, want %d", len(sub.Entries), len(changes))
	}
	// Unique: golden, shared, other, no-such (the duplicate dedups, the
	// compile-invalid entry never gets a digest).
	if sub.Unique != 4 || sub.CachedEntries != 0 {
		t.Errorf("unique/cached = %d/%d, want 4/0", sub.Unique, sub.CachedEntries)
	}
	if sub.Entries[0].ID == "" || sub.Entries[0].ID != sub.Entries[3].ID {
		t.Error("duplicate entries did not share a digest at submit")
	}
	if sub.Entries[4].Error == "" || sub.Entries[4].ID != "" {
		t.Errorf("compile-invalid entry at submit = %+v, want error and no digest", sub.Entries[4])
	}

	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", st.Status, st.Error)
	}
	// A finished batch job keeps no compiled entries: only execution
	// reads them.
	s.mu.Lock()
	pending := len(s.jobs[sub.ID].batch.pending)
	s.mu.Unlock()
	if pending != 0 {
		t.Errorf("finished batch job retains %d pending entries, want 0", pending)
	}
	doc := fetchBatchResult(t, ts, sub.ID)
	if len(doc.Entries) != len(changes) {
		t.Fatalf("result doc has %d entries, want %d", len(doc.Entries), len(changes))
	}

	// The golden entry carries the committed fixture's document (the doc
	// embedding compacts the indentation; content is byte-identical).
	if got, want := []byte(doc.Entries[0].Assessment), compactJSON(t, goldenFixture(t)); !bytes.Equal(got, want) {
		t.Errorf("golden batch entry differs from the golden fixture:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Equal(doc.Entries[0].Assessment, doc.Entries[3].Assessment) {
		t.Error("duplicate entries returned different documents")
	}
	if doc.Entries[1].Error != "" || len(doc.Entries[1].Assessment) == 0 {
		t.Errorf("same-study entry = error %q, want a result", doc.Entries[1].Error)
	}
	if doc.Entries[2].Error != "" || len(doc.Entries[2].Assessment) == 0 {
		t.Errorf("disjoint-study entry = error %q, want a result", doc.Entries[2].Error)
	}
	if doc.Entries[4].Error == "" || doc.Entries[4].Assessment != nil {
		t.Errorf("compile-invalid entry = %+v, want error only", doc.Entries[4])
	}
	if doc.Entries[5].Error == "" || doc.Entries[5].Assessment != nil {
		t.Errorf("topology-invalid entry = %+v, want error only", doc.Entries[5])
	}
	for i, e := range doc.Entries {
		if e.ChangeID != changes[i].ID {
			t.Errorf("entry %d changeId %q, want %q (submission order)", i, e.ChangeID, changes[i].ID)
		}
	}

	// The per-entry digests now serve single submissions from the cache —
	// and the cached bytes are the indented single-path original, exactly
	// the committed fixture.
	sub2, resp2 := submit(t, ts, g)
	if resp2.StatusCode != http.StatusOK || !sub2.Cached {
		t.Errorf("single after batch: status %d cached %v, want 200 cache hit", resp2.StatusCode, sub2.Cached)
	}
	if sub2.ID != sub.Entries[0].ID {
		t.Errorf("single job id %s != batch entry digest %s", sub2.ID, sub.Entries[0].ID)
	}
	raw, code := fetchResult(t, ts, sub2.ID)
	if code != http.StatusOK {
		t.Fatalf("cached single result: status %d", code)
	}
	if got := append(append([]byte(nil), raw...), '\n'); !bytes.Equal(got, goldenFixture(t)) {
		t.Errorf("batch-populated cache serves bytes that differ from the golden fixture:\ngot:\n%s", got)
	}

	// The engine's sharing counters prove the amortization ran: the
	// topology-invalid entry never reaches it, and the two same-study
	// entries share one set of before-window factorizations.
	if v := counterValue(t, s.Registry(), obs.MetricBatchEntries); v != 3 {
		t.Errorf("%s = %d, want 3 (unique valid entries reached the engine)", obs.MetricBatchEntries, v)
	}
	if v := counterValue(t, s.Registry(), obs.MetricBatchFactorizationsReused); v <= 0 {
		t.Errorf("%s = %d, want > 0", obs.MetricBatchFactorizationsReused, v)
	}
}

// TestBatchCacheInterop drives the cache contract in both directions: a
// single submission pre-populates the cache for a later batch (the
// cached entry is not recomputed), and a repeated batch dedups onto the
// finished batch job.
func TestBatchCacheInterop(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := goldenRequest(t)

	// Single first.
	subS, _ := submit(t, ts, g)
	if st := waitDone(t, ts, subS.ID); st.Status != stateDone {
		t.Fatalf("single job finished %s", st.Status)
	}
	singleBytes, code := fetchResult(t, ts, subS.ID)
	if code != http.StatusOK {
		t.Fatalf("single result: status %d", code)
	}

	// Batch of the cached change plus a fresh one.
	chFresh := g.Change
	chFresh.ID = "CHG-FRESH"
	chFresh.At = "2012-03-16T00:00:00Z"
	misses0 := counterValue(t, s.Registry(), obs.MetricCacheMisses)
	entries0 := counterValue(t, s.Registry(), obs.MetricBatchEntries)
	sub, _ := submitBatch(t, ts, goldenBatchRequest(t, []ChangeSpec{g.Change, chFresh}))
	if sub.Unique != 2 || sub.CachedEntries != 1 {
		t.Fatalf("unique/cached = %d/%d, want 2/1", sub.Unique, sub.CachedEntries)
	}
	if !sub.Entries[0].Cached || sub.Entries[0].ID != subS.ID {
		t.Errorf("pre-cached entry at submit = %+v, want cached with the single's job id", sub.Entries[0])
	}
	if sub.Entries[1].Cached {
		t.Error("fresh entry marked cached at submit")
	}
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s", st.Status)
	}
	doc := fetchBatchResult(t, ts, sub.ID)
	if !doc.Entries[0].Cached || !bytes.Equal(doc.Entries[0].Assessment, compactJSON(t, singleBytes)) {
		t.Error("cached entry was not spliced from the single submission's result")
	}
	if doc.Entries[1].Cached || len(doc.Entries[1].Assessment) == 0 {
		t.Errorf("fresh entry = cached %v, want computed result", doc.Entries[1].Cached)
	}
	// Only the miss reached the engine.
	if got := counterValue(t, s.Registry(), obs.MetricBatchEntries) - entries0; got != 1 {
		t.Errorf("engine saw %d batch entries, want 1 (the miss)", got)
	}
	if got := counterValue(t, s.Registry(), obs.MetricCacheMisses) - misses0; got != 1 {
		t.Errorf("cache misses grew by %d, want 1", got)
	}

	// An identical resubmission is a batch-level cache hit: 200, every
	// entry cached, nothing recomputed.
	entries1 := counterValue(t, s.Registry(), obs.MetricBatchEntries)
	sub2, resp2 := submitBatch(t, ts, goldenBatchRequest(t, []ChangeSpec{g.Change, chFresh}))
	if resp2.StatusCode != http.StatusOK || !sub2.Cached || sub2.ID != sub.ID {
		t.Fatalf("batch resubmit: status %d cached %v id %s, want 200 dedup onto %s", resp2.StatusCode, sub2.Cached, sub2.ID, sub.ID)
	}
	if sub2.CachedEntries != sub2.Unique {
		t.Errorf("resubmit cachedEntries = %d, want all %d", sub2.CachedEntries, sub2.Unique)
	}
	if got := counterValue(t, s.Registry(), obs.MetricBatchEntries) - entries1; got != 0 {
		t.Errorf("resubmit recomputed %d entries, want 0", got)
	}
}

// TestBatchEntriesAreRecords: every entry a batch computes becomes a
// done record of its own. GET /v1/jobs/{entry-id} answers done and
// cached under the batch job's trace, /result serves the entry's
// indented document — equal, compacted, to the batch document's entry,
// and for the golden entry to the single-submission fixture — and a
// single resubmission of an entry joins the batch's trace.
func TestBatchEntriesAreRecords(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := goldenRequest(t)
	chOther := g.Change
	chOther.ID = "CHG-OTHER"
	chOther.Elements = otherStudyElements(t)
	chOther.TrueQuality = -0.7

	sub, _ := submitBatch(t, ts, goldenBatchRequest(t, []ChangeSpec{g.Change, chOther}))
	bst := waitDone(t, ts, sub.ID)
	if bst.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", bst.Status, bst.Error)
	}
	doc := fetchBatchResult(t, ts, sub.ID)
	results := make([][]byte, len(sub.Entries))
	for i, e := range sub.Entries {
		st, code := getJob(t, ts, e.ID)
		if code != http.StatusOK {
			t.Fatalf("GET entry %d record: status %d, want 200", i, code)
		}
		if st.Status != stateDone || !st.Cached || st.TraceID != bst.TraceID {
			t.Errorf("entry %d record = %s cached %v trace %s, want done, cached, batch trace %s", i, st.Status, st.Cached, st.TraceID, bst.TraceID)
		}
		raw, code := fetchResult(t, ts, e.ID)
		if code != http.StatusOK {
			t.Fatalf("entry %d result: status %d: %s", i, code, raw)
		}
		if !bytes.Equal(compactJSON(t, raw), doc.Entries[i].Assessment) {
			t.Errorf("entry %d result differs from the batch document's entry", i)
		}
		results[i] = raw
	}
	if got := append(append([]byte(nil), results[0]...), '\n'); !bytes.Equal(got, goldenFixture(t)) {
		t.Errorf("golden entry record differs from the golden fixture:\n%s", got)
	}

	single := *g
	single.Change = chOther
	sub2, resp2 := submit(t, ts, &single)
	if resp2.StatusCode != http.StatusOK || !sub2.Cached || sub2.ID != sub.Entries[1].ID {
		t.Fatalf("single resubmit of entry 1: status %d cached %v id %s", resp2.StatusCode, sub2.Cached, sub2.ID)
	}
	if got, ok := parseTraceparent(resp2.Header.Get(traceparentHeader)); !ok || got != bst.TraceID {
		t.Errorf("single resubmit traceparent %q, want the batch trace %s", resp2.Header.Get(traceparentHeader), bst.TraceID)
	}
}

// TestEntryNeverReplacesLiveJob: a batch entry computed while a bare job
// of the same digest is queued leaves that job alone — it runs as
// submitted, under its own trace, and its record holds its own result.
func TestEntryNeverReplacesLiveJob(t *testing.T) {
	s, ts := gatedServer(t, Config{Workers: 1})
	// Registered after gatedServer's cleanup, so it runs first (LIFO)
	// and frees a gated worker before Shutdown waits on the pool.
	t.Cleanup(func() { close(s.testRelease) })
	g := goldenRequest(t)

	bsub, _ := submitBatch(t, ts, goldenBatchRequest(t, []ChangeSpec{g.Change}))
	<-s.testStarted // the batch holds the worker; its entry pends
	sub, resp := submit(t, ts, g)
	if resp.StatusCode != http.StatusAccepted || sub.Cached || sub.ID != bsub.Entries[0].ID {
		t.Fatalf("bare submit: status %d cached %v id %s, want a queued job for entry %s", resp.StatusCode, sub.Cached, sub.ID, bsub.Entries[0].ID)
	}
	bareTrace, _ := parseTraceparent(resp.Header.Get(traceparentHeader))

	s.testRelease <- struct{}{}
	if st := waitDone(t, ts, bsub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", st.Status, st.Error)
	}
	<-s.testStarted // the bare job now holds the worker
	if st, _ := getJob(t, ts, sub.ID); st.Status != stateRunning || st.Cached || st.TraceID != bareTrace {
		t.Fatalf("bare job after the batch = %s cached %v trace %s, want running, uncached, trace %s", st.Status, st.Cached, st.TraceID, bareTrace)
	}

	s.testRelease <- struct{}{}
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone || st.Cached {
		t.Fatalf("bare job finished %s cached %v, want done, computed", st.Status, st.Cached)
	}
	raw, _ := fetchResult(t, ts, sub.ID)
	if got := append(append([]byte(nil), raw...), '\n'); !bytes.Equal(got, goldenFixture(t)) {
		t.Errorf("bare job result differs from the golden fixture:\n%s", got)
	}
	if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", stateDone)); n != 2 {
		t.Errorf("done jobs = %d, want 2 (the batch and the bare job)", n)
	}
}

// TestEntryReplacesFailedJob: a batch entry computed after a bare job of
// the same digest failed replaces the failed record, so the digest
// answers done and a resubmission is a hit instead of a retry.
func TestEntryReplacesFailedJob(t *testing.T) {
	s := newServer(Config{Workers: 1})
	// Bare jobs fail; batch jobs run the real executor.
	s.testExecute = func(ctx context.Context, j *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		if j.bare {
			return nil, false, nil, errors.New("bare job broken")
		}
		ar, err := s.execute(ctx, nil, j, new(scratch))
		return ar.result, ar.degraded, ar.failures, err
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	g := goldenRequest(t)

	sub, _ := submit(t, ts, g)
	if st := waitDone(t, ts, sub.ID); st.Status != stateFailed {
		t.Fatalf("bare job finished %s, want failed", st.Status)
	}
	bsub, _ := submitBatch(t, ts, goldenBatchRequest(t, []ChangeSpec{g.Change}))
	if bsub.Entries[0].Cached {
		t.Fatal("entry with a failed record resolved at submit")
	}
	bst := waitDone(t, ts, bsub.ID)
	if st, code := getJob(t, ts, sub.ID); code != http.StatusOK || st.Status != stateDone || !st.Cached || st.TraceID != bst.TraceID {
		t.Fatalf("record after the batch = %d %s cached %v trace %s, want the batch's done entry record", code, st.Status, st.Cached, st.TraceID)
	}
	if sub2, resp2 := submit(t, ts, g); resp2.StatusCode != http.StatusOK || !sub2.Cached {
		t.Errorf("resubmit: status %d cached %v, want a 200 hit", resp2.StatusCode, sub2.Cached)
	}
	s.mu.Lock()
	finished := s.finished.Len()
	s.mu.Unlock()
	if finished != 2 {
		t.Errorf("recency list holds %d records, want 2 (the entry and the batch)", finished)
	}
}

// scrubTraceJSON deep-copies a decoded trace document with every
// nondeterministic field normalized: wall-clock timestamps, durations,
// queue/run seconds and trace ids become fixed placeholders, leaving
// structure, span names, attrs and per-entry identities for the golden
// comparison.
func scrubTraceJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, val := range x {
			switch k {
			case "start", "durationMs", "submittedAt", "startedAt", "finishedAt",
				"queueSeconds", "runSeconds":
				out[k] = "<scrubbed>"
			case "traceId":
				out[k] = "<trace-id>"
			default:
				out[k] = scrubTraceJSON(val)
			}
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, val := range x {
			out[i] = scrubTraceJSON(val)
		}
		return out
	default:
		return v
	}
}

// TestBatchTraceGolden pins the trace of a 3-entry batch job against a
// committed fixture: the per-entry identity list and the attempt span
// tree with one assess-batch span fanning out into per-entry
// batch-entry spans, which cover only their entry's setup, and one
// assess-group span per factor group — not a single opaque span —
// between the job's batch-setup span and its batch-marshal and
// batch-record spans. Run with -update-batch-trace to rewrite the
// fixture.
func TestBatchTraceGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := goldenRequest(t)
	// One worker end to end: child-span creation order inside the engine
	// is then deterministic, so the tree is fixture-stable.
	req := goldenBatchRequest(t, nil)
	req.Assessor = &AssessorSpec{Seed: 9, Workers: 1}

	chB := g.Change
	chB.ID = "CHG-TRACE-2"
	chB.Type = "software-upgrade"
	chB.TrueQuality = 0.8
	chC := g.Change
	chC.ID = "CHG-TRACE-3"
	chC.At = "2012-03-16T00:00:00Z"
	req.Changes = []ChangeSpec{g.Change, chB, chC}

	sub, _ := submitBatch(t, ts, req)
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("batch job finished %s: %s", st.Status, st.Error)
	}
	tr, _ := getTrace(t, ts, sub.ID)
	if len(tr.Entries) != 3 {
		t.Fatalf("trace has %d entries, want 3", len(tr.Entries))
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("trace has %d attempt span trees, want 1", len(tr.Spans))
	}
	var root traceNode
	if err := json.Unmarshal(tr.Spans[0].Span, &root); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	collectSpanNames(root, names)
	for _, want := range []string{obs.SpanServeJob, obs.SpanBatchSetup, obs.SpanAssessBatch, obs.SpanBatchEntry, obs.SpanSampling, obs.SpanBatchMarshal, obs.SpanBatchRecord} {
		if !names[want] {
			t.Errorf("batch trace is missing span %q", want)
		}
	}
	var entrySpans func(n traceNode) int
	entrySpans = func(n traceNode) int {
		c := 0
		if n.Name == obs.SpanBatchEntry {
			c++
			inner := map[string]bool{}
			collectSpanNames(n, inner)
			if inner[obs.SpanAssessGroup] {
				t.Errorf("a batch-entry span holds an %s span: shared work reported as one entry's", obs.SpanAssessGroup)
			}
		}
		for _, ch := range n.Children {
			c += entrySpans(ch)
		}
		return c
	}
	if got := entrySpans(root); got != 3 {
		t.Errorf("batch trace has %d batch-entry spans, want one per entry = 3", got)
	}

	// Golden comparison on the scrubbed document.
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	scrubbed, err := json.MarshalIndent(scrubTraceJSON(decoded), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	scrubbed = append(scrubbed, '\n')

	golden := filepath.Join("testdata", "golden_batch_trace.json")
	if *updateBatchTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, scrubbed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden batch trace (run with -update-batch-trace to create): %v", err)
	}
	if !bytes.Equal(scrubbed, want) {
		t.Errorf("batch trace differs from golden fixture %s (run with -update-batch-trace after intentional changes)\ngot:\n%s", golden, scrubbed)
	}
}
