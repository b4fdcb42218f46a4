package serve

// Batch assessment endpoint: POST /v1/assess/batch accepts a changelog
// against one shared synthetic world and runs it through the engine's
// batch path (litmus.Pipeline.AssessBatch), which amortizes control
// selection, panel assembly and before-window factorizations across
// entries.
//
// Cache interaction: every entry is canonicalized exactly like a single
// POST /v1/assess submission — same normalization, same digest — so a
// batch entry hits results cached by earlier singles (or earlier
// batches), and the results a batch computes are cached under the
// per-entry digests for future singles to hit. A batch of 1000 entries
// of which 400 are cached computes only the 600 misses. Entry order
// never changes per-entry digests, and duplicate entries within a batch
// dedup onto one computation.
//
// Determinism: each entry reads the world slot's provider (world.go),
// the same one a single submission of that change reads: only that
// entry's ground-truth effect, overlaid on the shared base world and its
// memoized series. The generator consumes no randomness for elements
// outside an effect's scope, so an entry's series — and therefore its
// result bytes — are identical to a world built with that entry's effect
// alone.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/journal"

	litmus "repro"
)

// maxBatchEntries bounds one batch submission.
const maxBatchEntries = 1000

// BatchAssessRequest is a changelog submission: the shared world and
// assessment parameters of AssessRequest, with a list of change records
// in place of the single change.
type BatchAssessRequest struct {
	Topology   *TopologySpec  `json:"topology,omitempty"`
	Generator  *GeneratorSpec `json:"generator,omitempty"`
	Index      IndexSpec      `json:"index"`
	Changes    []ChangeSpec   `json:"changes"`
	KPIs       []string       `json:"kpis"`
	WindowDays int            `json:"windowDays"`
	Assessor   *AssessorSpec  `json:"assessor,omitempty"`
	Controls   *ControlsSpec  `json:"controls,omitempty"`
}

// BatchEntrySubmit is one entry's submit-time status inside a
// BatchSubmitResponse.
type BatchEntrySubmit struct {
	// ID is the entry's canonical digest — identical to the job id the
	// same change would get from POST /v1/assess. Empty for invalid
	// entries.
	ID string `json:"id,omitempty"`
	// Cached reports that the entry's result was already available at
	// submit time and will not be recomputed.
	Cached bool `json:"cached,omitempty"`
	// Error is the entry's validation error; the batch itself still
	// submits.
	Error string `json:"error,omitempty"`
}

// BatchSubmitResponse is the POST /v1/assess/batch response body.
type BatchSubmitResponse struct {
	// ID is the batch job identifier.
	ID     string `json:"id"`
	Status string `json:"status"`
	// Cached reports a batch-level dedup: an identical batch is already
	// queued, running or done.
	Cached bool `json:"cached,omitempty"`
	// Entries mirrors the submitted changelog 1:1.
	Entries []BatchEntrySubmit `json:"entries"`
	// Unique is the number of distinct valid entries after dedup;
	// CachedEntries of those were answered from the result cache, so
	// Unique - CachedEntries assessments will actually run.
	Unique        int `json:"unique"`
	CachedEntries int `json:"cachedEntries"`
}

// BatchEntryResult is one entry of a batch result document.
type BatchEntryResult struct {
	// ID is the entry's canonical digest (empty for invalid entries).
	ID       string `json:"id,omitempty"`
	ChangeID string `json:"changeId,omitempty"`
	// Cached reports the result was served from the cache, not computed
	// by this batch.
	Cached   bool `json:"cached,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// Error is the entry's failure: validation at submit time, topology
	// fit, or an unassessable change. The sibling entries are unaffected.
	Error string `json:"error,omitempty"`
	// Assessment is the entry's canonical assessment document — the
	// exact bytes GET /v1/jobs/{entry-id}/result would serve.
	Assessment json.RawMessage `json:"assessment,omitempty"`
}

// BatchResultDoc is the result document of a batch job: one entry per
// submitted change, in submission order.
type BatchResultDoc struct {
	Entries []BatchEntryResult `json:"entries"`
}

// batchDocEntry is one submitted entry's compile-time identity.
type batchDocEntry struct {
	digest     string
	changeID   string
	compileErr string
}

// pendingEntry is one unique, uncached entry awaiting computation.
type pendingEntry struct {
	digest string
	req    *compiledRequest
}

// batchCompile is a validated batch submission.
type batchCompile struct {
	entries []batchDocEntry             // submission order, 1:1 with Changes
	unique  map[string]*compiledRequest // digest → compiled entry
	order   []string                    // unique digests, first-seen order
}

// batchState is the execution state a batch job carries: the entry
// list, the unique uncached entries to compute, and the results
// resolved from the cache at submit time.
type batchState struct {
	entries  []batchDocEntry
	pending  []pendingEntry
	resolved map[string]cachedResult
}

// compileBatch validates a batch request. Shared-field errors (index,
// topology, KPIs, window, assessor, controls) fail the whole request;
// per-entry change errors are recorded on the entry and never fail the
// batch.
func compileBatch(req *BatchAssessRequest) (*batchCompile, error) {
	if len(req.Changes) == 0 {
		return nil, fmt.Errorf("changes is required")
	}
	if len(req.Changes) > maxBatchEntries {
		return nil, fmt.Errorf("changes has %d entries, max %d", len(req.Changes), maxBatchEntries)
	}
	single := AssessRequest{
		Topology:   req.Topology,
		Generator:  req.Generator,
		Index:      req.Index,
		KPIs:       req.KPIs,
		WindowDays: req.WindowDays,
		Assessor:   req.Assessor,
		Controls:   req.Controls,
	}
	// Probe compile with a syntactically valid placeholder change: any
	// error it surfaces is a shared-field error and fails the request.
	probe := single
	probe.Change = ChangeSpec{ID: "probe", Elements: []string{"probe"}, At: "2000-01-01T00:00:00Z"}
	if _, err := compile(&probe); err != nil {
		return nil, err
	}
	bc := &batchCompile{unique: map[string]*compiledRequest{}}
	for _, ch := range req.Changes {
		entryReq := single
		entryReq.Change = ch
		entry := batchDocEntry{changeID: ch.ID}
		c, err := compile(&entryReq)
		if err != nil {
			entry.compileErr = err.Error()
		} else {
			entry.digest = c.hash()
			if _, ok := bc.unique[entry.digest]; !ok {
				bc.unique[entry.digest] = c
				bc.order = append(bc.order, entry.digest)
			}
		}
		bc.entries = append(bc.entries, entry)
	}
	return bc, nil
}

// hash returns the batch job id: a digest over the ordered per-entry
// identities. Per-entry digests are order-independent (each entry
// canonicalizes alone); the batch id covers order so a batch job's
// result document always matches its submission's entry order.
func (bc *batchCompile) hash() string {
	h := sha256.New()
	for _, e := range bc.entries {
		if e.compileErr != "" {
			h.Write([]byte("!" + e.compileErr))
		} else {
			h.Write([]byte(e.digest))
		}
		h.Write([]byte{'\n'})
	}
	return "b" + hex.EncodeToString(h.Sum(nil))
}

// submitEntries renders the per-entry submit statuses. allCached marks
// every valid entry cached (the batch job itself is already done).
func (bc *batchCompile) submitEntries(resolved map[string]cachedResult, allCached bool) []BatchEntrySubmit {
	out := make([]BatchEntrySubmit, 0, len(bc.entries))
	for _, e := range bc.entries {
		ent := BatchEntrySubmit{ID: e.digest, Error: e.compileErr}
		if e.digest != "" {
			if _, ok := resolved[e.digest]; ok || allCached {
				ent.Cached = true
			}
		}
		out = append(out, ent)
	}
	return out
}

// entryCachedLocked resolves one entry digest against finished jobs and
// the result cache. Callers hold the server mutex.
func (s *Server) entryCachedLocked(digest string) (cachedResult, bool) {
	if j, ok := s.jobs[digest]; ok && j.state == stateDone {
		return cachedResult{result: j.result, degraded: j.degraded}, true
	}
	return s.cache.get(digest)
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchAssessRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	bc, err := compileBatch(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	id := bc.hash()
	now := time.Now()
	traceID, ok := parseTraceparent(r.Header.Get(traceparentHeader))
	if !ok {
		traceID = newTraceID()
	}

	s.mu.Lock()
	// Resolve entries against the cache under the lock: the per-entry
	// cached flags describe this submission's moment, and a fresh batch
	// job must carry the resolved bytes so eviction cannot outrun it.
	resolved := map[string]cachedResult{}
	var pending []pendingEntry
	for _, d := range bc.order {
		if cr, ok := s.entryCachedLocked(d); ok {
			resolved[d] = cr
		} else {
			pending = append(pending, pendingEntry{digest: d, req: bc.unique[d]})
		}
	}
	respBase := BatchSubmitResponse{ID: id, Unique: len(bc.order), CachedEntries: len(resolved)}

	if j, ok := s.jobs[id]; ok {
		switch j.state {
		case stateDone:
			s.cache.get(id) // refresh recency
			resp := respBase
			resp.Status, resp.Cached = stateDone, true
			resp.CachedEntries = resp.Unique
			resp.Entries = bc.submitEntries(resolved, true)
			jobTrace := j.traceID
			s.mu.Unlock()
			s.reg.Counter(obs.MetricCacheHits).Add(1)
			annotate(w, id, jobTrace)
			setTraceparent(w, jobTrace)
			writeJSON(w, http.StatusOK, resp)
			return
		case stateQueued, stateRunning:
			resp := respBase
			resp.Status, resp.Cached = j.state, true
			resp.Entries = bc.submitEntries(resolved, false)
			jobTrace := j.traceID
			s.mu.Unlock()
			s.reg.Counter(obs.MetricCacheHits).Add(1)
			annotate(w, id, jobTrace)
			setTraceparent(w, jobTrace)
			writeJSON(w, http.StatusAccepted, resp)
			return
		case stateFailed:
			// Retry on resubmit, exactly like a single job: reset the
			// record only once the enqueue succeeds. The retry carries
			// this submission's batch state — the cache may have filled
			// since the failed run.
			if ok, _ := s.enqueueLocked(w, j, now); ok {
				j.done = make(chan struct{})
				j.started = time.Time{}
				j.finished = time.Time{}
				j.result = nil
				j.degraded = false
				j.traceID = traceID
				j.attempts, j.retries = 0, 0
				j.spans, j.failures = nil, nil
				j.batch = &batchState{entries: bc.entries, pending: pending, resolved: resolved}
				if j.finishedElem != nil {
					s.finished.Remove(j.finishedElem)
					j.finishedElem = nil
				}
				s.journalBatchSubmitLocked(id, &req)
				s.mu.Unlock()
				resp := respBase
				resp.Status = stateQueued
				resp.Entries = bc.submitEntries(resolved, false)
				annotate(w, id, traceID)
				setTraceparent(w, traceID)
				writeJSON(w, http.StatusAccepted, resp)
			}
			return
		}
	}
	if hit, ok := s.cache.get(id); ok {
		// Batch record aged out but its document is still cached:
		// resurrect a done job around it.
		j := newJob(id, nil, now)
		j.batch = &batchState{entries: bc.entries, resolved: resolved}
		j.state = stateDone
		j.cached = true
		j.degraded = hit.degraded
		j.finished = now
		j.result = hit.result
		j.traceID = traceID
		close(j.done)
		s.jobs[id] = j
		s.recordFinishedLocked(j)
		s.mu.Unlock()
		s.reg.Counter(obs.MetricCacheHits).Add(1)
		resp := respBase
		resp.Status, resp.Cached = stateDone, true
		resp.CachedEntries = resp.Unique
		resp.Entries = bc.submitEntries(resolved, true)
		annotate(w, id, traceID)
		setTraceparent(w, traceID)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	j := newJob(id, nil, now)
	j.traceID = traceID
	j.batch = &batchState{entries: bc.entries, pending: pending, resolved: resolved}
	if ok, _ := s.enqueueLocked(w, j, now); ok {
		s.jobs[id] = j
		s.journalBatchSubmitLocked(id, &req)
		s.mu.Unlock()
		s.reg.Counter(obs.MetricCacheHits).Add(int64(len(resolved)))
		s.reg.Counter(obs.MetricCacheMisses).Add(int64(len(pending)))
		resp := respBase
		resp.Status = stateQueued
		resp.Entries = bc.submitEntries(resolved, false)
		annotate(w, id, traceID)
		setTraceparent(w, traceID)
		writeJSON(w, http.StatusAccepted, resp)
	}
}

// batchOutcome is one computed entry's result.
type batchOutcome struct {
	result   []byte
	degraded bool
	errText  string
}

// executeBatch runs one attempt of a batch job: the unique uncached
// entries go through the engine's batch path in the world slot's world;
// cached entries are spliced back in from their submit-time resolution.
// The per-entry results land in the cache under the per-entry digests —
// the same keys single submissions use.
func (s *Server) executeBatch(ctx context.Context, scope *obs.Scope, j *job) (ar attemptResult, err error) {
	bs := j.batch
	outcomes := map[string]batchOutcome{}
	if len(bs.pending) > 0 {
		// Entries differ only in their change, so the first one names the
		// world and the pipeline of all of them.
		base := bs.pending[0].req
		w := worldFor(scope, base)
		p, err := base.pipeline(w.net, scope)
		if err != nil {
			return ar, &permanentError{err: err}
		}

		var entries []litmus.BatchEntry
		var digests []string
		for _, pe := range bs.pending {
			change, err := pe.req.buildChange()
			if err == nil {
				err = change.Validate(w.net)
			}
			if err != nil {
				outcomes[pe.digest] = batchOutcome{errText: fmt.Sprintf("change does not fit the requested topology: %v", err)}
				continue
			}
			entries = append(entries, litmus.BatchEntry{Change: change, Provider: w.provider(change, base.kpis)})
			digests = append(digests, pe.digest)
		}
		if len(entries) > 0 {
			res, err := p.AssessBatch(ctx, entries, base.kpis, base.window)
			if err != nil {
				return ar, err
			}
			for i, d := range digests {
				if res.Errors[i] != nil {
					outcomes[d] = batchOutcome{errText: res.Errors[i].Error()}
					continue
				}
				b, err := litmus.MarshalAssessment(res.Results[i])
				if err != nil {
					return ar, err
				}
				outcomes[d] = batchOutcome{result: b, degraded: res.Results[i].Degraded}
			}
		}
		// Populate the per-entry result cache so future singles and
		// batches hit it, journaling each computed entry first: if the
		// batch job itself is later cut short, the entries it finished
		// still survive replay.
		s.mu.Lock()
		for d, o := range outcomes {
			if o.errText == "" {
				s.journalAppendLocked(journal.Record{Kind: journal.KindComplete, Digest: d, Degraded: o.degraded, Payload: o.result})
				s.cache.put(d, cachedResult{result: o.result, degraded: o.degraded})
			}
		}
		s.mu.Unlock()
	}

	doc := BatchResultDoc{Entries: make([]BatchEntryResult, 0, len(bs.entries))}
	for _, e := range bs.entries {
		ent := BatchEntryResult{ID: e.digest, ChangeID: e.changeID}
		switch {
		case e.compileErr != "":
			ent.Error = e.compileErr
		default:
			if cr, ok := bs.resolved[e.digest]; ok {
				ent.Cached = true
				ent.Degraded = cr.degraded
				ent.Assessment = cr.result
			} else {
				o := outcomes[e.digest]
				ent.Error = o.errText
				ent.Degraded = o.degraded
				ent.Assessment = o.result
			}
		}
		if ent.Degraded {
			ar.degraded = true
		}
		doc.Entries = append(doc.Entries, ent)
	}
	ar.result, err = json.Marshal(&doc)
	return ar, err
}
