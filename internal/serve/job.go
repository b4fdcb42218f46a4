package serve

// Job and cache bookkeeping. All mutable job state is guarded by the
// server mutex; result bytes are immutable once set, so handlers can
// hand them to the response writer without copying.

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
	// to compute, and the results resolved from the cache at submit
	// time. Nil only for results resurrected by journal replay.
	batch *batchState

	state     string
	cached    bool // answered from the result cache, no computation
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
	// attempts/retries count the last run's executions and backoff
	// retries; spans holds a frozen copy of each attempt's span tree
	// (oldest first), set only when the job reaches its terminal state,
	// and failures the isolated degradations of the attempt that
	// concluded the job — the substance of GET /v1/jobs/{id}/trace.
	attempts int
	retries  int
	spans    []*obs.FrozenSpan
	failures []litmus.AssessmentFailureDoc

	// finishedElem is this job's node in the server's finished order,
	// nil while the job has never finished or is back in flight after a
	// retry. Tracking the element keeps the order duplicate-free, so
	// retention evicts by true completion recency.
	finishedElem *list.Element

	// done is closed when the job reaches a terminal state (done or
	// failed) — the in-process wait hook used by drains and tests. A
	// failed job that is resubmitted gets a fresh channel for the retry.
	done chan struct{}
}

func newJob(id string, bare bool, now time.Time) *job {
	return &job{id: id, bare: bare, state: stateQueued, submitted: now, done: make(chan struct{})}
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

// cachedResult is one cache entry: the canonical result bytes plus the
// degraded flag, so a resurrected job's status stays truthful without
// re-parsing the document.
type cachedResult struct {
	result   []byte
	degraded bool
}

// lruCache is a size-bounded least-recently-used map from canonical
// request hash to result bytes. Not safe for concurrent use — the
// server mutex guards it.
type lruCache struct {
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type lruEntry struct {
	key string
	val cachedResult
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached value and refreshes its recency.
func (c *lruCache) get(key string) (cachedResult, bool) {
	el, ok := c.items[key]
	if !ok {
		return cachedResult{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry beyond capacity.
func (c *lruCache) put(key string, val cachedResult) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// len returns the number of cached results.
func (c *lruCache) len() int { return c.ll.Len() }
