package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/journal"

	litmus "repro"
)

// Config parameterizes the assessment service. The zero value is usable:
// every field falls back to the documented default.
type Config struct {
	// QueueDepth bounds the submission queue (default 64). A full queue
	// rejects submissions with 429 and a Retry-After hint — backpressure
	// instead of unbounded memory growth.
	QueueDepth int
	// Workers is the number of concurrent assessment jobs (default 2).
	// Each job additionally fans its sampling iterations out over the
	// assessor's own worker pool.
	Workers int
	// CacheSize bounds the finished records the server keeps (default
	// 1024): done and failed jobs and batches, batch entries and results
	// replayed from the journal. The records are the result cache — a
	// submission whose digest has a done record is answered from it —
	// and beyond the bound the least recently used is forgotten first. A
	// record is used when it finishes and when it answers a submission
	// or a batch entry; GETs do not count.
	CacheSize int
	// JobTimeout is the per-job execution deadline (default 5m). The
	// deadline propagates through AssessChangeContext, so a stuck job
	// stops between sampling iterations.
	JobTimeout time.Duration
	// RetryAfter is the backoff hint returned with 429 (default 1s).
	RetryAfter time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Journal, when non-nil, makes jobs durable: every submission and
	// completion is appended to the journal, and on boot the server
	// replays it — completed results come back as done records and
	// unfinished jobs are re-enqueued (see durability.go). The caller
	// owns the journal's lifecycle: Open it before New, Close it after
	// Shutdown returns. /readyz reports 503 "replaying" until replay
	// finishes.
	Journal *journal.Journal
	// Registry receives the service and engine metrics (default: a fresh
	// registry, exposed on /metrics either way).
	Registry *obs.Registry
	// Logger receives structured request and job-lifecycle logs
	// (log/slog). Nil disables logging — the default; the service never
	// writes to stderr on its own.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the Litmus assessment service: HTTP API, bounded job queue,
// worker pool, and one bounded store of job records that is also the
// result cache. Create with New, mount Handler, stop with Shutdown.
type Server struct {
	cfg Config
	reg *obs.Registry
	mux *http.ServeMux

	baseCtx    context.Context
	cancelBase context.CancelFunc

	// journal is the optional durability layer; replayDone is closed
	// once boot replay has finished (immediately when there is no
	// journal) and gates /readyz.
	journal    *journal.Journal
	replayDone chan struct{}

	mu sync.Mutex
	// jobs holds every record by digest: queued, running and finished
	// jobs, batch entries and replayed results. finished lists the
	// finished ones least recently used first; keepLocked bounds it.
	jobs        map[string]*job
	finished    *list.List
	queue       chan *job
	draining    bool
	queueClosed bool
	replayed    int // completed results restored by boot replay

	wg sync.WaitGroup

	// Test hooks: when testStarted is non-nil, runJob announces the job
	// id on it and then blocks on testRelease before executing — tests
	// use this to hold workers and fill the queue deterministically.
	// When testExecute is non-nil it replaces execute, the assessment
	// body of executeJob (panic recovery still applies) — tests use it to
	// inject panics and failures. When testReleaseStudy is non-nil, each
	// job's study-series buffer passes through it as the job releases the
	// buffer to the free list (world.go) — tests poison it there. Set
	// between newServer and start only.
	testStarted      chan string
	testRelease      chan struct{}
	testExecute      func(ctx context.Context, j *job) (result []byte, degraded bool, failures []litmus.AssessmentFailureDoc, err error)
	testReleaseStudy func([]float64)
}

// New returns a running server: workers are started immediately; the
// returned server's Handler can be mounted on any http.Server.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*job),
		finished: list.New(),
		queue:    make(chan *job, cfg.QueueDepth),
	}
	s.journal = cfg.Journal
	s.replayDone = make(chan struct{})
	if s.journal == nil {
		close(s.replayDone)
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.routes()
	return s
}

func (s *Server) start() {
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	if s.journal != nil {
		s.wg.Add(1)
		go s.replayJournal()
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the service records into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) routes() {
	s.route("POST /v1/assess", s.handleSubmit)
	s.route("POST /v1/assess/batch", s.handleSubmitBatch)
	s.route("GET /v1/jobs/{id}", s.handleJob)
	s.route("GET /v1/jobs/{id}/result", s.handleResult)
	s.route("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// statusWriter captures the response code for the request counter, plus
// the job and trace identities a handler annotates for the access log.
type statusWriter struct {
	http.ResponseWriter
	code    int
	jobID   string
	traceID string
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// annotate attaches the job and trace identity of the request to the
// access-log record. Handlers call it once the job is known; outside the
// route middleware (direct handler tests) it is a no-op.
func annotate(w http.ResponseWriter, jobID, traceID string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.jobID, sw.traceID = jobID, traceID
	}
}

// route mounts a handler with per-route request counting (labeled by
// route pattern and status code) and structured access logging.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.reg.LabeledCounter(obs.MetricHTTPRequests, "path", pattern, "code", codeLabel(sw.code)).Add(1)
		if s.cfg.Logger != nil {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"route", pattern,
				"code", sw.code,
				"durationMs", float64(time.Since(start)) / float64(time.Millisecond),
			}
			if sw.jobID != "" {
				attrs = append(attrs, "job", sw.jobID)
			}
			if sw.traceID != "" {
				attrs = append(attrs, "traceId", sw.traceID)
			}
			s.cfg.Logger.Info("http request", attrs...)
		}
	})
}

// codeLabels holds the decimal text of the status codes 100–599, so a
// request's code label costs no allocation.
var codeLabels = func() (t [500]string) {
	for i := range t {
		t[i] = strconv.Itoa(100 + i)
	}
	return t
}()

func codeLabel(code int) string {
	if code >= 100 && code < 600 {
		return codeLabels[code-100]
	}
	return strconv.Itoa(code)
}

// responseEncoder is an indenting JSON encoder and the buffer it writes
// into, reused from response to response.
type responseEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// Handlers run on the HTTP server's goroutines, so response encoders
// come from a pool: a warm response grows no buffer. Status documents
// are a few hundred bytes; an encoder whose buffer outgrew
// maxEncoderBytes (a 1,000-entry batch's submit answer) is dropped
// rather than pooled.
const maxEncoderBytes = 64 << 10

var encoders = sync.Pool{New: func() any {
	e := new(responseEncoder)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// writeJSON answers with v as an indented JSON document and a trailing
// newline: the bytes of json.NewEncoder with SetIndent("", "  ").
func writeJSON(w http.ResponseWriter, code int, v any) {
	e := encoders.Get().(*responseEncoder)
	e.buf.Reset()
	err := e.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(e.buf.Bytes())
	}
	if e.buf.Cap() <= maxEncoderBytes {
		encoders.Put(e)
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, APIError{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds POST bodies; assessment requests are a few KB.
const maxRequestBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req AssessRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	compiled, err := compile(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	// The canonical form is rendered once, into listed scratch: its
	// digest is the job id, and an exact-size copy of the bytes is the
	// journal's submit payload when a record is appended.
	cb, canon := compiled.canonical(compiled.change())
	defer cb.release()
	id := jobDigest(canon)
	res, ok := s.submit(w, r, id, bareSubmission(compiled, id), func() []byte { return bytes.Clone(canon) })
	if ok {
		writeJSON(w, res.code, SubmitResponse{ID: id, Status: res.status, Cached: res.cached})
	}
}

// submitResult is the submit state machine's answer, for the handler
// that decoded the submission to render.
type submitResult struct {
	code   int    // 200 when the job is done, 202 otherwise
	status string // the job's state after this submission
	// cached reports a submission answered by a done record, or
	// deduplicated onto an identical job in flight.
	cached bool
	// resolved holds the entries answered by done records at submit
	// time (never a bare entry: the job-level checks answer that).
	resolved map[string]cachedResult
}

// submit runs one submission — bare or batch — through the job table:
// a done record answers it, an identical job in flight absorbs it, a
// failed job is retried with it, and anything else becomes a new queued
// job. Entries resolve against done records under the lock, so the
// per-entry flags describe this moment and a new job carries the
// resolved bytes, so eviction cannot outrun it. On backpressure or
// drain it writes the error response itself and returns ok=false.
// payload renders the journal's submit record, only when one is
// appended.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, id string, sub *submission, payload func() []byte) (res submitResult, ok bool) {
	now := time.Now()
	// Trace identity: adopt the caller's traceparent, or mint one. Jobs
	// that already exist keep the trace of the submission that caused
	// the work — the response header tells this caller which trace the
	// job belongs to.
	traceID, ok := parseTraceparent(r.Header.Get(traceparentHeader))
	if !ok {
		traceID = newTraceID()
	}

	s.mu.Lock()
	bs := s.stateLocked(sub)
	res.resolved = bs.resolved
	// bs becomes the job's, which runJob clears: count it under the lock.
	pending := len(bs.pending)
	j, known := s.jobs[id]
	if known && j.state != stateFailed {
		// The same canonical submission is done — a pure cache hit, the
		// result bytes are identical by the determinism contract — or in
		// flight, and deduplicated onto it instead of queueing duplicate
		// work.
		if j.state == stateDone {
			s.keepLocked(j)
		}
		res.status, res.cached, traceID = j.state, true, j.traceID
	} else {
		// A new job, or a retry of a failed one (the failure may have
		// been a timeout or a drain-time cancellation). A failed record
		// is reset for the new run only once the enqueue succeeds:
		// cleared lifecycle fields, and removal from the recency list so
		// the bound cannot evict the job while it is back in flight. On
		// the 429 path the job is left failed and retryable. The retry is
		// new work: it carries this submission's entries (more of them
		// may have done records since the failed run) and belongs to the
		// resubmitter's trace.
		if !known {
			j = newJob(id, sub.bare, now)
		}
		if !s.enqueueLocked(w, j, now) {
			return res, false
		}
		if known {
			j.started, j.finished = time.Time{}, time.Time{}
			j.result, j.degraded = nil, false
			j.span, j.failures = nil, nil
			if j.finishedElem != nil {
				s.finished.Remove(j.finishedElem)
				j.finishedElem = nil
			}
		}
		j.traceID = traceID
		j.batch = bs
		s.jobs[id] = j
		if s.journal != nil {
			kind := journal.KindBatchSubmit
			if sub.bare {
				kind = journal.KindSubmit
			}
			s.journalAppendLocked(journal.Record{Kind: kind, Digest: id, Payload: payload()})
		}
		res.status = stateQueued
	}
	s.mu.Unlock()

	switch {
	case res.cached:
		s.reg.Counter(obs.MetricCacheHits).Add(1)
	case !known:
		// A new batch counts its entries answered at submit as hits and
		// the rest as misses; a new bare job is one miss.
		if !sub.bare {
			s.reg.Counter(obs.MetricCacheHits).Add(int64(len(res.resolved)))
		}
		s.reg.Counter(obs.MetricCacheMisses).Add(int64(pending))
	}
	res.code = http.StatusAccepted
	if res.status == stateDone {
		res.code = http.StatusOK
	}
	annotate(w, id, traceID)
	setTraceparent(w, traceID)
	return res, true
}

// stateLocked resolves a submission's entries against done records —
// each one answering an entry becomes the most recently used — and
// returns the execution state of a job running it. A bare entry is the
// job itself, answered by the job-level checks, so it always pends.
// Callers hold the server mutex.
func (s *Server) stateLocked(sub *submission) *batchState {
	bs := &batchState{entries: sub.entries, resolved: map[string]cachedResult{}}
	for _, pe := range sub.unique {
		if j, ok := s.jobs[pe.digest]; ok && j.state == stateDone && !sub.bare {
			s.keepLocked(j)
			bs.resolved[pe.digest] = cachedResult{result: j.result, degraded: j.degraded}
			continue
		}
		bs.pending = append(bs.pending, pe)
	}
	return bs
}

// enqueueLocked pushes j onto the bounded queue, mutating the job only
// once the send succeeds — a rejected job keeps its previous state, so
// a failed job stays retryable instead of being wedged as "queued". It
// is called with the server mutex held; on the backpressure and
// draining paths it writes the error response itself (releasing the
// mutex first) and returns false. A worker may receive j as soon as
// the send succeeds, but cannot touch it until the mutex is released.
func (s *Server) enqueueLocked(w http.ResponseWriter, j *job, now time.Time) bool {
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return false
	}
	select {
	case s.queue <- j:
		j.state = stateQueued
		j.submitted = now
		j.err = ""
		s.reg.Gauge(obs.MetricQueueDepth).Set(float64(len(s.queue)))
		return true
	default:
		s.mu.Unlock()
		s.reg.Counter(obs.MetricQueueRejected).Add(1)
		retry := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "submission queue full (%d jobs); retry after %ds", s.cfg.QueueDepth, retry)
		return false
	}
}

// keepLocked makes the finished record j the most recently used: it
// moves j to the back of the recency list (appending a record new to
// it) and forgets the least recently used records beyond CacheSize.
// Element tracking keeps each record in the list at most once, so
// re-finishes (failed-job retries) and hits refresh recency instead of
// duplicating entries. Callers hold the server mutex.
func (s *Server) keepLocked(j *job) {
	if j.finishedElem != nil {
		s.finished.MoveToBack(j.finishedElem)
	} else {
		j.finishedElem = s.finished.PushBack(j)
	}
	for s.finished.Len() > s.cfg.CacheSize {
		oldest := s.finished.Remove(s.finished.Front()).(*job)
		delete(s.jobs, oldest.id)
	}
}

// storeDoneLocked records a result computed or replayed outside a job
// of its own — a batch entry, a completed digest from the journal — as
// a record of digest id born done: it never runs, so it has no entries
// and reports cached. It does not replace a record that is queued,
// running or done: a job in flight keeps its identity, and a done
// record already holds the same bytes. It replaces a failed record. It
// reports whether it stored the record. Callers hold the server mutex.
func (s *Server) storeDoneLocked(id string, result []byte, degraded bool, traceID string, now time.Time) bool {
	if old, ok := s.jobs[id]; ok {
		if old.state != stateFailed {
			return false
		}
		s.finished.Remove(old.finishedElem)
	}
	j := &job{id: id, state: stateDone, cached: true, degraded: degraded, submitted: now, finished: now, result: result, traceID: traceID}
	s.jobs[id] = j
	s.keepLocked(j)
	return true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobStatus
	if ok {
		st = j.status()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	annotate(w, id, st.TraceID)
	setTraceparent(w, st.TraceID)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state string
	var result []byte
	var errMsg string
	if ok {
		state, result, errMsg = j.state, j.result, j.err
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case state == stateDone:
		// The length lets a client read the body into one buffer of
		// its exact size.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(result)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case state == stateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll /v1/jobs/%s until done", id, state, id)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	depth := len(s.queue)
	replayed := s.replayed
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case <-s.replayDone:
	default:
		// Boot replay is still restoring done records: not ready yet.
		// The count is live, so pollers see replay progress.
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":          "replaying",
			"replayedResults": replayed,
		})
		return
	}
	body := map[string]any{
		"status":     "ready",
		"queueDepth": depth,
		"queueCap":   s.cfg.QueueDepth,
	}
	if s.journal != nil {
		body["replayedResults"] = replayed
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

// maxDocBytes bounds the document buffer a worker keeps between jobs.
// With its recorder's chunks (at most 512 KiB, see obs.Recorder), a
// worker keeps at most 1 MiB of scratch between jobs, so one job at
// the API caps does not pin its memory.
const maxDocBytes = 512 << 10

// scratch is the memory one worker reuses job after job: the trace
// recorder its jobs record into, the buffer their documents are written
// into, and the encoder that writes a batch document into it. Nothing
// that outlives a job points into it: the job record keeps exact-size
// copies of its documents and a frozen copy of its trace (which copies
// names and attrs), and every engine fan-out returns before the job's
// execute does.
type scratch struct {
	rec obs.Recorder
	doc []byte
	enc *json.Encoder // compact, writing into doc through scratch.Write
}

// Write appends p to the document buffer; the encoder writes through
// it.
func (sc *scratch) Write(p []byte) (int, error) {
	sc.doc = append(sc.doc, p...)
	return len(p), nil
}

// encode returns v as compact JSON, as json.Marshal writes it, encoded
// into the document buffer and copied out at its exact size.
func (sc *scratch) encode(v any) ([]byte, error) {
	if sc.enc == nil {
		sc.enc = json.NewEncoder(sc)
	}
	sc.doc = sc.doc[:0]
	if err := sc.enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.Clone(sc.doc[:len(sc.doc)-1]), nil // without Encode's newline
}

// worker consumes the queue until it is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	sc := new(scratch)
	for j := range s.queue {
		s.runJob(j, sc)
	}
}

// runJob executes one assessment under the per-job deadline and the
// server's base context (canceled on hard shutdown), recording into
// the worker's scratch sc.
func (s *Server) runJob(j *job, sc *scratch) {
	s.reg.Gauge(obs.MetricQueueDepth).Set(float64(len(s.queue)))
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()

	s.mu.Lock()
	j.state = stateRunning
	j.started = time.Now()
	submitted, started := j.submitted, j.started
	traceID := j.traceID
	s.mu.Unlock()

	if s.testStarted != nil {
		s.testStarted <- j.id
		<-s.testRelease
	}

	// The job runs once: it is deterministic, so a failure would repeat
	// (see hardening.go). Its span tree is retained on the job for the
	// trace endpoint, frozen as soon as the run returns: the job keeps
	// an exact-size copy, and the worker's recorder is free for the next
	// job.
	rr, err := s.executeJob(ctx, j, sc)
	span := rr.trace.Span()
	if cap(sc.doc) > maxDocBytes {
		sc.doc = nil
	}

	statusLabel := stateDone
	switch {
	case err != nil:
		statusLabel = stateFailed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			statusLabel = "canceled"
		}
	case rr.degraded:
		statusLabel = "degraded"
	}

	// Count, time and log the job before its terminal state becomes
	// visible, so a client that reads the state also finds the job in the
	// counters, the histograms and the log.
	finished := time.Now()
	queueWait, run := started.Sub(submitted), finished.Sub(started)
	s.reg.LabeledCounter(obs.MetricJobs, "status", statusLabel).Add(1)
	s.reg.Histogram(obs.MetricJobSeconds, obs.StageBuckets).Observe(finished.Sub(submitted).Seconds())
	s.reg.Histogram(obs.MetricJobQueueSeconds, obs.StageBuckets).Observe(queueWait.Seconds())
	s.reg.Histogram(obs.MetricJobRunSeconds, obs.StageBuckets).Observe(run.Seconds())
	if s.cfg.Logger != nil {
		attrs := []any{
			"job", j.id,
			"traceId", traceID,
			"status", statusLabel,
			"queueSeconds", queueWait.Seconds(),
			"runSeconds", run.Seconds(),
		}
		if err != nil {
			attrs = append(attrs, "error", err.Error())
			s.cfg.Logger.Error("job finished", attrs...)
		} else {
			s.cfg.Logger.Info("job finished", attrs...)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = finished
	j.span = span
	j.failures = rr.failures
	// Only execution reads the compiled entries; a resubmit after a
	// failure and journal replay both rebuild them.
	j.batch.pending = nil
	// Journal the terminal state before it becomes client-visible: a
	// crash after the state flips but before the append could otherwise
	// lose a result a client already saw. Cancellations keep the digest
	// pending in the journal, so replay re-enqueues the work.
	if err != nil {
		rec := journal.Record{Kind: journal.KindComplete, Digest: j.id, Payload: []byte(err.Error())}
		if statusLabel == "canceled" {
			rec.Canceled = true
		} else {
			rec.Failed = true
		}
		s.journalAppendLocked(rec)
		j.state = stateFailed
		j.err = err.Error()
	} else {
		s.journalAppendLocked(journal.Record{Kind: journal.KindComplete, Digest: j.id, Degraded: rr.degraded, Payload: rr.result})
		j.state = stateDone
		j.degraded = rr.degraded
		j.result = rr.result
	}
	s.keepLocked(j)
}

// Shutdown gracefully drains the service: submissions are rejected with
// 503, queued and in-flight jobs keep running until done or until ctx
// expires — at which point the per-job contexts are canceled and the
// workers stop between sampling iterations. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.queueClosed {
		s.draining = true
		s.queueClosed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Hard stop: cancel every in-flight job context; the engine's
		// between-iteration checks make the workers exit promptly.
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}
