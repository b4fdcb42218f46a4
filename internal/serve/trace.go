package serve

// Request-scoped tracing: every job carries a W3C trace identity from
// submission to terminal state, and GET /v1/jobs/{id}/trace replays the
// job's execution — queue wait vs run duration, the degradations of a
// partial result, and the full span tree of its run.
//
// Trace propagation contract:
//
//   - POST /v1/assess reads the standard traceparent request header
//     ("00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>"). A valid
//     header's trace-id becomes the job's trace identity; a missing or
//     malformed header, which includes an all-zero trace-id or
//     parent-id, gets a freshly generated one. Deduplicated and
//     cache-hit submissions join the existing job's trace — the job keeps
//     the identity of the submission that caused the work.
//   - Responses that name a job echo a traceparent header carrying the
//     job's trace-id and a fresh span-id, so callers can stitch the
//     service's work into their own traces.
//   - The trace identity never reaches the assessment engine: results
//     stay bit-identical for any trace-id by construction.

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"

	litmus "repro"
)

// traceparentHeader is the W3C Trace Context header name, in the
// canonical form net/http keys headers by, so setting it canonicalizes
// nothing.
const traceparentHeader = "Traceparent"

// randID fills b with cryptographically random bytes, never all-zero
// (the all-zero trace and span ids are invalid per spec).
func randID(b []byte) {
	if _, err := rand.Read(b); err != nil {
		// crypto/rand reads the OS entropy pool; failure means the
		// process environment is broken beyond serving requests.
		panic("serve: reading random trace id: " + err.Error())
	}
	for _, x := range b {
		if x != 0 {
			return
		}
	}
	b[len(b)-1] = 1
}

// newTraceID returns a fresh 32-hex-digit trace id.
func newTraceID() string {
	var b [16]byte
	randID(b[:])
	return hex.EncodeToString(b[:])
}

// parseTraceparent extracts the trace id of a traceparent header value.
// ok is false for a missing or malformed header — callers then generate
// a fresh identity instead of failing the request (tracing must never
// reject work).
func parseTraceparent(h string) (traceID string, ok bool) {
	// version(2) - traceID(32) - spanID(16) - flags(2)
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	for _, part := range []string{h[:2], h[3:35], h[36:52], h[53:]} {
		if !isLowerHex(part) {
			return "", false
		}
	}
	if h[:2] == "ff" { // forbidden version
		return "", false
	}
	traceID = h[3:35]
	if traceID == "00000000000000000000000000000000" || h[36:52] == "0000000000000000" {
		return "", false
	}
	return traceID, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// setTraceparent stamps the response with the job's trace identity (32
// hex digits) and a fresh span id, sampled flag set, rendered into one
// 55-byte string.
func setTraceparent(w http.ResponseWriter, traceID string) {
	if traceID == "" {
		return
	}
	var span [8]byte
	randID(span[:])
	var v [55]byte
	copy(v[:], "00-")
	copy(v[3:35], traceID)
	v[35] = '-'
	hex.Encode(v[36:52], span[:])
	copy(v[52:], "-01")
	w.Header().Set(traceparentHeader, string(v[:]))
}

// TraceAttempt is a job's run in a job trace: its ordinal, always 1
// because a job runs once, and the run's span tree in the obs
// trace-JSON schema (name, start, durationMs, attrs, children).
type TraceAttempt struct {
	Attempt int             `json:"attempt"`
	Span    json.RawMessage `json:"span"`
}

// JobTrace is the GET /v1/jobs/{id}/trace response body: the job's
// trace identity and lifecycle timings, the degradations of a partial
// result, and the span tree of its run.
type JobTrace struct {
	ID          string     `json:"id"`
	TraceID     string     `json:"traceId"`
	Status      string     `json:"status"`
	Cached      bool       `json:"cached,omitempty"`
	Degraded    bool       `json:"degraded,omitempty"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	// QueueSeconds is submission→dequeue wait; RunSeconds is
	// dequeue→terminal-state execution time. Each is present once the
	// respective boundary has been crossed.
	QueueSeconds *float64 `json:"queueSeconds,omitempty"`
	RunSeconds   *float64 `json:"runSeconds,omitempty"`
	Error        string   `json:"error,omitempty"`
	// Degradations lists the isolated per-KPI/per-element failures of a
	// degraded assessment, in the result document's order.
	Degradations []litmus.AssessmentFailureDoc `json:"degradations,omitempty"`
	// Spans holds the run's span tree, one entry once the job is
	// terminal; a record born done has none.
	Spans []TraceAttempt `json:"spans,omitempty"`
	// Entries is present for batch jobs: the submitted changelog in
	// order, each entry's canonical digest and submit-time disposition.
	// The per-entry queue-wait and run detail lives in the span tree
	// above as "batch-entry" children of the assess-batch span — cached
	// entries never enter the engine, so they have no span.
	Entries []BatchTraceEntry `json:"entries,omitempty"`
}

// BatchTraceEntry is one changelog entry's identity in a batch job
// trace.
type BatchTraceEntry struct {
	ID       string `json:"id,omitempty"`
	ChangeID string `json:"changeId,omitempty"`
	// Cached marks entries resolved from the result cache at submit
	// time — they carry no engine span in the job's span tree.
	Cached bool `json:"cached,omitempty"`
	// Error is the entry's compile-time validation error.
	Error string `json:"error,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var tr JobTrace
	var span *obs.Span
	if ok {
		tr = JobTrace{
			ID:          j.id,
			TraceID:     j.traceID,
			Status:      j.state,
			Cached:      j.cached,
			Degraded:    j.degraded,
			SubmittedAt: j.submitted,
			Error:       j.err,
		}
		if !j.started.IsZero() {
			t := j.started
			tr.StartedAt = &t
			q := j.started.Sub(j.submitted).Seconds()
			tr.QueueSeconds = &q
		}
		if !j.finished.IsZero() && !j.started.IsZero() {
			t := j.finished
			tr.FinishedAt = &t
			d := j.finished.Sub(j.started).Seconds()
			tr.RunSeconds = &d
		}
		tr.Degradations = append(tr.Degradations, j.failures...)
		span = j.span
		if !j.bare && j.batch != nil {
			for _, e := range j.batch.entries {
				_, cached := j.batch.resolved[e.digest]
				tr.Entries = append(tr.Entries, BatchTraceEntry{
					ID:       e.digest,
					ChangeID: e.changeID,
					Cached:   e.digest != "" && cached,
					Error:    e.compileErr,
				})
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	// Span rendering happens outside the server mutex: frozen trees are
	// immutable. A job that has not reached its terminal state has no
	// span tree yet.
	if span != nil {
		var buf bytes.Buffer
		if err := span.WriteJSON(&buf); err != nil {
			writeError(w, http.StatusInternalServerError, "rendering span tree: %v", err)
			return
		}
		tr.Spans = []TraceAttempt{{Attempt: 1, Span: bytes.TrimRight(buf.Bytes(), "\n")}}
	}
	setTraceparent(w, tr.TraceID)
	writeJSON(w, http.StatusOK, tr)
}
