package serve

// Job bookkeeping. A job record is both the unit of work and, once
// done, the cached result of its digest: the server keeps one table of
// records and one recency list of the finished ones (server.go). All
// mutable job state is guarded by the server mutex; result bytes are
// immutable once set, so handlers can hand them to the response writer
// without copying.

import (
	"container/list"
	"time"

	"repro/internal/obs"

	litmus "repro"
)

// Job states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is one submitted assessment: its entries plus its lifecycle
// state.
type job struct {
	id string

	// bare marks a POST /v1/assess job: one entry whose digest is the
	// job id, and whose assessment document is the job's result. Other
	// jobs are changelog jobs (POST /v1/assess/batch).
	bare bool
	// batch holds the per-entry identities, the unique uncached entries
	// to compute, and the results resolved from done records at submit
	// time. Nil for records born done (see storeDoneLocked).
	batch *batchState

	state     string
	cached    bool // born done: a batch entry or a replayed result, no run of its own
	degraded  bool // done, but with isolated per-KPI/per-element failures
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    []byte // canonical assessment document, immutable once set
	err       string

	// traceID is the job's W3C trace identity: adopted from the
	// submitter's traceparent header or generated at submit time, echoed
	// on every response that names the job.
	traceID string
	// span holds a frozen copy of the last run's span tree, set only
	// when the job reaches its terminal state, and failures the isolated
	// degradations of that run — the substance of GET
	// /v1/jobs/{id}/trace.
	span     *obs.Span
	failures []litmus.AssessmentFailureDoc

	// finishedElem is this job's node in the server's recency list of
	// finished records, nil while the job has never finished or is back
	// in flight after a resubmission. Tracking the element keeps the
	// list duplicate-free, so the bound evicts by true recency.
	finishedElem *list.Element
}

func newJob(id string, bare bool, now time.Time) *job {
	return &job{id: id, bare: bare, state: stateQueued, submitted: now}
}

// status renders the job's API view. Callers hold the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{ID: j.id, Status: j.state, Cached: j.cached, Degraded: j.degraded, TraceID: j.traceID, SubmittedAt: j.submitted, Error: j.err}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// cachedResult is a done record's result bytes and degraded flag, as a
// batch entry resolved at submit time carries them: the bytes are
// immutable, so eviction of the record cannot outrun the batch.
type cachedResult struct {
	result   []byte
	degraded bool
}
