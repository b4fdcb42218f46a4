package serve

// Batch assessment endpoint: POST /v1/assess/batch accepts a changelog
// against one shared synthetic world and runs it through the engine's
// batch path (litmus.Pipeline.AssessBatch), which amortizes control
// selection, panel assembly and before-window factorizations across
// entries.
//
// Cache interaction: every entry is canonicalized exactly like a single
// POST /v1/assess submission — same normalization, same digest — so a
// batch entry is answered by the done record of an earlier single (or
// of an earlier batch's entry), and every entry a batch computes
// becomes a done record under its digest, queryable at
// GET /v1/jobs/{entry-id} and answering future singles. A batch of 1000
// entries of which 400 have done records computes only the 600 misses.
// Entry order never changes per-entry digests, and duplicate entries
// within a batch dedup onto one computation.
//
// A single POST /v1/assess is the bare case of the same submission: one
// entry whose digest is the job id. Both handlers decode, compile and
// render their own bodies, and share the submit state machine
// (server.go), the executor (execute, below) and journal replay.
//
// Determinism: each entry reads the world slot's provider (world.go),
// the same one a single submission of that change reads: only that
// entry's ground-truth effect, overlaid on the shared base world and its
// memoized series. The generator consumes no randomness for elements
// outside an effect's scope, so an entry's series — and therefore its
// result bytes — are identical to a world built with that entry's effect
// alone.

import (
	"bytes"
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

// pendingEntry is one unique entry: its digest and compiled request.
type pendingEntry struct {
	digest string
	req    *compiledRequest
}

// submission is a validated submission. A batch (POST /v1/assess/batch)
// lists its changelog; a bare submission (POST /v1/assess) has one
// entry, whose digest is the job id and whose assessment document is
// the job's result.
type submission struct {
	bare    bool
	entries []batchDocEntry // submission order, 1:1 with the changes
	unique  []pendingEntry  // distinct valid entries, first-seen order
}

// bareSubmission wraps a compiled POST /v1/assess request, whose
// canonical digest is id.
func bareSubmission(c *compiledRequest, id string) *submission {
	return &submission{
		bare:    true,
		entries: []batchDocEntry{{digest: id, changeID: c.norm.Change.ID}},
		unique:  []pendingEntry{{digest: id, req: c}},
	}
}

// batchState is the execution state a job carries: the entry list, the
// unique unanswered entries to compute, and the results resolved from
// done records at submit time.
type batchState struct {
	entries  []batchDocEntry
	pending  []pendingEntry
	resolved map[string]cachedResult
}

// compileBatch validates a batch request. Shared-field errors (index,
// topology, KPIs, window, assessor, controls) fail the whole request;
// per-entry change errors are recorded on the entry and never fail the
// batch.
func compileBatch(req *BatchAssessRequest) (*submission, error) {
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
	sub := &submission{}
	seen := map[string]bool{}
	for _, ch := range req.Changes {
		entryReq := single
		entryReq.Change = ch
		entry := batchDocEntry{changeID: ch.ID}
		c, err := compile(&entryReq)
		if err != nil {
			entry.compileErr = err.Error()
		} else {
			entry.digest = c.hash()
			if !seen[entry.digest] {
				seen[entry.digest] = true
				sub.unique = append(sub.unique, pendingEntry{digest: entry.digest, req: c})
			}
		}
		sub.entries = append(sub.entries, entry)
	}
	return sub, nil
}

// hash returns the batch job id: a digest over the ordered per-entry
// identities. Per-entry digests are order-independent (each entry
// canonicalizes alone); the batch id covers order so a batch job's
// result document always matches its submission's entry order.
func (sub *submission) hash() string {
	h := sha256.New()
	for _, e := range sub.entries {
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
func (sub *submission) submitEntries(resolved map[string]cachedResult, allCached bool) []BatchEntrySubmit {
	out := make([]BatchEntrySubmit, 0, len(sub.entries))
	for _, e := range sub.entries {
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

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchAssessRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	sub, err := compileBatch(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	id := sub.hash()
	// The journal's submit payload is the request document itself:
	// recompiling it on replay reproduces the batch id and the per-entry
	// digests.
	res, ok := s.submit(w, r, id, sub, func() []byte {
		b, _ := json.Marshal(&req) // plain data; cannot fail
		return b
	})
	if !ok {
		return
	}
	// A done batch job has answered every entry.
	done := res.status == stateDone
	resp := BatchSubmitResponse{
		ID:            id,
		Status:        res.status,
		Cached:        res.cached,
		Entries:       sub.submitEntries(res.resolved, done),
		Unique:        len(sub.unique),
		CachedEntries: len(res.resolved),
	}
	if done {
		resp.CachedEntries = resp.Unique
	}
	writeJSON(w, res.code, resp)
}

// batchOutcome is one computed entry's result.
type batchOutcome struct {
	result   []byte
	degraded bool
	errText  string
}

// execute runs j: its pending entries go through the engine in the
// world slot's world, each reading its own change's provider. A bare
// job assesses its one change with AssessChangeContext: the assessment
// document is the job's result and a failure is the job's failure. A
// batch job runs AssessBatch; each computed entry becomes a done record
// under its digest — the id a single submission of the change gets —
// and the entries resolved at submit time are spliced back into its
// result document. Every document is written into the worker's buffer
// sc.doc and copied out once, at its exact size: the assessments by
// AppendAssessment, the batch document by the worker's encoder.
func (s *Server) execute(ctx context.Context, scope *obs.Scope, j *job, sc *scratch) (rr runResult, err error) {
	bs := j.batch
	outcomes := map[string]batchOutcome{}
	if len(bs.pending) > 0 {
		// Entries differ only in their change, so the first one names the
		// world and the pipeline of all of them.
		base := bs.pending[0].req
		w := worldFor(scope, base)
		p, err := base.pipeline(w.net, scope)
		if err != nil {
			return rr, err
		}

		// A batch job spans its own steps around the assessment: the
		// entries' setup, their documents and their records. A bare
		// job's tree stays world and assess-change.
		var setup *obs.Scope
		if !j.bare {
			setup = scope.Child(obs.SpanBatchSetup)
		}
		var entries []litmus.BatchEntry
		var digests []string
		need := 0 // values of the entries' study series
		for _, pe := range bs.pending {
			change, err := pe.req.buildChange()
			if err == nil {
				err = change.Validate(w.net)
			}
			if err != nil {
				err = fmt.Errorf("change does not fit the requested topology: %w", err)
				if j.bare {
					return rr, err
				}
				outcomes[pe.digest] = batchOutcome{errText: err.Error()}
				continue
			}
			entries = append(entries, litmus.BatchEntry{Change: change})
			digests = append(digests, pe.digest)
			need += len(change.Elements) * len(base.kpis) * w.ix.N
		}
		// The entries' study series share one buffer from the free list,
		// released once every document is written. Nothing reads it by
		// then: no result keeps a series, every engine fan-out returns
		// before the assessment does, and the world memo never holds a
		// slice of it.
		study := takeStudyBuf(need)
		defer func() {
			if s.testReleaseStudy != nil {
				s.testReleaseStudy(study[:cap(study)])
			}
			releaseStudyBuf(study)
		}()
		rest := study
		for i := range entries {
			change := entries[i].Change
			n := len(change.Elements) * len(base.kpis) * w.ix.N
			entries[i].Provider = w.provider(change, base.kpis, rest[:n:n])
			rest = rest[n:]
		}
		setup.End()
		if j.bare {
			p.Provider = entries[0].Provider
			res, err := p.AssessChangeContext(ctx, entries[0].Change, base.kpis, base.window)
			if err != nil {
				return rr, err
			}
			if sc.doc, err = litmus.AppendAssessment(sc.doc[:0], res); err != nil {
				return rr, err
			}
			rr.result = bytes.Clone(sc.doc)
			rr.degraded = res.Degraded
			for _, f := range res.Failures {
				rr.failures = append(rr.failures, litmus.AssessmentFailureDoc{
					KPI: f.KPI.String(), Element: f.Element,
					Reason: string(f.Reason), Detail: f.Detail,
				})
			}
			return rr, nil
		}
		if len(entries) > 0 {
			res, err := p.AssessBatch(ctx, entries, base.kpis, base.window)
			if err != nil {
				return rr, err
			}
			marshal := scope.Child(obs.SpanBatchMarshal)
			for i, d := range digests {
				if res.Errors[i] != nil {
					outcomes[d] = batchOutcome{errText: res.Errors[i].Error()}
					continue
				}
				if sc.doc, err = litmus.AppendAssessment(sc.doc[:0], res.Results[i]); err != nil {
					marshal.End()
					return rr, err
				}
				outcomes[d] = batchOutcome{result: bytes.Clone(sc.doc), degraded: res.Results[i].Degraded}
			}
			marshal.End()
		}
		// Record each computed entry, in submission order, so future
		// singles and batches hit it, journaling it first: if the batch
		// job itself is later cut short, the entries it finished still
		// survive replay. An entry record joins the batch job's trace.
		rec := scope.Child(obs.SpanBatchRecord)
		defer rec.End() // through the batch document below
		now := time.Now()
		s.mu.Lock()
		for _, d := range digests {
			if o := outcomes[d]; o.errText == "" {
				s.journalAppendLocked(journal.Record{Kind: journal.KindComplete, Digest: d, Degraded: o.degraded, Payload: o.result})
				s.storeDoneLocked(d, o.result, o.degraded, j.traceID, now)
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
			rr.degraded = true
		}
		doc.Entries = append(doc.Entries, ent)
	}
	rr.result, err = sc.encode(&doc)
	return rr, err
}
