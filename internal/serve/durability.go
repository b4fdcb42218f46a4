package serve

// Durability: the optional journal integration (Config.Journal).
//
// Write path: every accepted submission appends a submit record and
// every terminal state appends a complete record, both while the server
// mutex is held — so a job's submit always precedes its completion in
// the journal, and a completion is journaled before it becomes
// client-visible. Batch jobs additionally journal each computed entry
// under its per-entry digest the moment it becomes a done record, so a
// batch cut short by a crash or hard stop keeps the entries it
// finished.
//
// Read path (boot): replayJournal reads each digest's final state from
// the journal (Journal.Finals, the fold compaction also uses), then (1)
// restores every completed result as a done record, oldest result
// first, and (2) re-enqueues every submission that never reached a
// terminal result. Restoring runs first so re-enqueued batches resolve
// their entries against the replayed records. /readyz serves 503
// "replaying" until both passes finish. By the determinism contract a
// replayed result is bit-identical to a recomputed one, so replay only
// ever skips work.
//
// Append errors are logged and otherwise ignored: durability is
// best-effort, serving is not — a full disk degrades the journal, never
// the API.

import (
	"encoding/json"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/journal"
)

// ReplayDone returns a channel closed once boot journal replay has
// finished; it is closed immediately for servers without a journal.
// Callers that need the replayed results (routers, tests) wait on it
// instead of polling /readyz.
func (s *Server) ReplayDone() <-chan struct{} { return s.replayDone }

// ReplayedResults returns how many completed results boot replay
// restored as done records.
func (s *Server) ReplayedResults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed
}

// journalAppendLocked appends rec to the journal. Callers hold the
// server mutex, which orders the journal exactly like the in-memory
// state transitions it mirrors.
func (s *Server) journalAppendLocked(rec journal.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Error("journal append failed", "kind", rec.Kind.String(), "job", rec.Digest, "error", err)
	}
}

// replayJournal rebuilds server state from the journal on boot, then
// closes replayDone. It runs concurrently with the HTTP handlers:
// /readyz gates external traffic, and both passes re-check live state
// under the mutex, so a submission that races replay wins — the journal
// only ever adds work, never replaces state.
func (s *Server) replayJournal() {
	defer s.wg.Done()
	defer close(s.replayDone)

	finals, err := s.journal.Finals()
	if err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Error("journal replay failed", "error", err)
	}

	// Pass 1: restore completed results in the order of their newest
	// done record, so recency ends up matching journal order and the
	// CacheSize bound keeps the newest results. A record a racing
	// submission created wins.
	var done []journal.Final
	for _, st := range finals {
		if st.Done != nil {
			done = append(done, st)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].DoneAt < done[b].DoneAt })
	now := time.Now()
	var replayed int
	for _, st := range done {
		s.mu.Lock()
		if !s.storeDoneLocked(st.Digest, st.Done.Payload, st.Done.Degraded, newTraceID(), now) {
			s.mu.Unlock()
			continue
		}
		s.replayed++
		replayed = s.replayed
		s.mu.Unlock()
		s.reg.Counter(obs.MetricJournalReplayed).Add(1)
	}

	// Pass 2: re-enqueue unfinished work.
	var requeued int
	for _, st := range finals {
		if st.Submit == nil {
			continue
		}
		if s.replayEnqueue(st.Digest, st.Submit.Payload, st.Submit.Kind == journal.KindBatchSubmit, now) {
			requeued++
		}
	}

	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("journal replay complete",
			"replayedResults", replayed, "requeuedJobs", requeued, "dir", s.journal.Dir())
	}
}

// replayEnqueue rebuilds the submission of one journaled submit record
// — a single request's canonical JSON or a batch request document — and
// puts it back on the queue, waiting for queue space; it gives up only
// when the server starts draining or when live state (a racing
// submission, a replayed result) has already claimed the digest. A
// record that no longer compiles becomes a failed job (replayFail).
func (s *Server) replayEnqueue(digest string, payload []byte, batch bool, now time.Time) bool {
	id, sub, err := replaySubmission(payload, batch)
	if err != nil {
		s.replayFail(digest, !batch, err, now)
		return false
	}

	for {
		s.mu.Lock()
		if s.draining || s.queueClosed {
			s.mu.Unlock()
			return false
		}
		if _, ok := s.jobs[id]; ok {
			s.mu.Unlock()
			return false
		}
		// The job is registered only once the send succeeds: a job
		// registered on a full queue would stay "queued" forever, and the
		// next pass would give up on it as already live. A worker cannot
		// touch it before the mutex is released, as in enqueueLocked.
		j := s.replayJobLocked(id, sub, now)
		select {
		case s.queue <- j:
			s.jobs[id] = j
			s.mu.Unlock()
			return true
		default:
		}
		s.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}

// replaySubmission recompiles one journaled submit payload into its
// submission and job id.
func replaySubmission(payload []byte, batch bool) (string, *submission, error) {
	if batch {
		var req BatchAssessRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return "", nil, err
		}
		c, err := compileBatch(&req)
		if err != nil {
			return "", nil, err
		}
		return c.hash(), c, nil
	}
	var req AssessRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return "", nil, err
	}
	c, err := compile(&req)
	if err != nil {
		return "", nil, err
	}
	id := c.hash()
	return id, bareSubmission(c, id), nil
}

// replayFail records a journaled submission that this build rejects —
// one above a cap an earlier build did not have, such as
// controls.maxControls — as a failed job under its digest, with the
// compile error, so the client that was answered 202 reads a failure
// rather than a 404. The failure is journaled like a run's, so the next
// boot neither re-runs nor restores the submission. Live state under
// the digest wins.
func (s *Server) replayFail(digest string, bare bool, err error, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[digest]; ok {
		return
	}
	j := newJob(digest, bare, now)
	j.traceID = newTraceID()
	j.state = stateFailed
	j.err = "journal replay: " + err.Error()
	j.finished = now
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn("journal replay rejected a submission", "job", digest, "error", err)
	}
	s.journalAppendLocked(journal.Record{Kind: journal.KindComplete, Digest: digest, Failed: true, Payload: []byte(j.err)})
	s.jobs[digest] = j
	s.keepLocked(j)
}

// replayJobLocked builds the job record for one re-enqueued submission;
// the caller registers it once the job is on the queue. Batch entries
// resolve against done records at this moment — replayed results count
// as hits, so a re-enqueued batch only recomputes what the crash
// actually lost. Callers hold the server mutex.
func (s *Server) replayJobLocked(id string, sub *submission, now time.Time) *job {
	j := newJob(id, sub.bare, now)
	j.traceID = newTraceID()
	j.state = stateQueued
	j.submitted = time.Now()
	j.batch = s.stateLocked(sub)
	return j
}
