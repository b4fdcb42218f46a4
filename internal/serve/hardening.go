package serve

// Job execution hardening: one broken request must never take down a
// worker (and with it a slice of the queue). A panic anywhere in a
// job's run is recovered, converted into a stack-annotated error,
// counted in litmus_job_panics_total, and fails the job.
//
// A job runs once. The request is self-contained and the engine is
// deterministic — the same bytes in produce the same failure out — so a
// failed job would fail again on every re-run. A client may resubmit a
// failed or canceled job; that is new work (see submit in server.go).

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/obs"

	litmus "repro"
)

// panicError is a recovered job panic: the panic value plus the stack
// at recovery time, so the bug is diagnosable from the job record.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.val, e.stack)
}

// runResult is a job run's outcome: the canonical result bytes, the
// degraded flag, the isolated degradations of a partial assessment,
// and the run's root scope — the job record retains the failures and a
// frozen copy of the span tree so GET /v1/jobs/{id}/trace can replay
// the execution after the fact.
type runResult struct {
	result   []byte
	degraded bool
	failures []litmus.AssessmentFailureDoc
	trace    *obs.Scope
}

// executeJob runs j's assessment under ctx, recording into the
// worker's scratch sc. A panic anywhere in the run — scenario build,
// assessment, serialization — is recovered into a *panicError so the
// worker survives; the run's trace (partial on panic) survives in the
// returned result either way.
func (s *Server) executeJob(ctx context.Context, j *job, sc *scratch) (rr runResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter(obs.MetricJobPanics).Add(1)
			rr.result, rr.degraded, rr.failures = nil, false, nil
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()

	// Each run records a trace of its own, on the worker's recorder,
	// with stage latencies and engine counters going into the shared
	// registry. A frozen copy of the span tree is kept on the job (for
	// the trace endpoint) until the record is forgotten. Test hooks
	// execute under the same root, so hook runs trace too.
	scope := sc.rec.Start(obs.SpanServeJob, s.reg)
	defer scope.End()
	scope.SetAttr("job", j.id)
	scope.SetAttr("traceId", j.traceID)
	rr.trace = scope

	if s.testExecute != nil {
		rr.result, rr.degraded, rr.failures, err = s.testExecute(ctx, j)
		return rr, err
	}

	res, err := s.execute(ctx, scope, j, sc)
	res.trace = rr.trace
	return res, err
}
