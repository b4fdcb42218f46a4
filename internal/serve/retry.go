package serve

// Job execution hardening: one broken request must never take down a
// worker (and with it a slice of the queue), and a transient failure
// must not permanently fail a job that a retry would complete.
//
// Failure classes, in order of handling:
//
//   - panic: recovered per attempt, converted into a stack-annotated
//     error, counted in litmus_job_panics_total, never retried (a panic
//     on deterministic input is a bug, not weather).
//   - permanent: request-building and data-caused (degradation-typed)
//     errors. The request is self-contained and the engine is
//     deterministic — the same bytes in produce the same failure out —
//     so retrying cannot succeed.
//   - context: deadline or shutdown; retrying against a dead context is
//     pointless.
//   - everything else is presumed transient (resource exhaustion and
//     other environmental weather) and retried with exponential backoff
//     plus jitter, up to Config.MaxJobAttempts, counted in
//     litmus_job_retries_total.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"time"

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

// permanentError marks a failure that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// attemptResult is one execution attempt's outcome: the canonical
// result bytes, the degraded flag, the isolated degradations of a
// partial assessment, and the attempt's trace root — the job record
// retains the failures and a frozen copy of the span tree so GET
// /v1/jobs/{id}/trace can replay the execution after the fact.
type attemptResult struct {
	result   []byte
	degraded bool
	failures []litmus.AssessmentFailureDoc
	span     *obs.Span
}

// executeJob runs one attempt of j's assessment under ctx. A panic
// anywhere in the attempt — scenario build, assessment, serialization —
// is recovered into a *panicError so the worker survives; the attempt's
// span (partial on panic) survives in the returned result either way.
func (s *Server) executeJob(ctx context.Context, j *job) (ar attemptResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter(obs.MetricJobPanics).Add(1)
			ar.result, ar.degraded, ar.failures = nil, false, nil
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()

	// Each attempt gets its own trace root recording stage latencies and
	// engine counters into the shared registry. A frozen copy of the
	// span tree is kept on the job (for the trace endpoint) until
	// retention forgets it. Test hooks execute under the same root, so
	// hook attempts trace too.
	scope := obs.New(obs.SpanServeJob, s.reg)
	defer scope.End()
	scope.SetAttr("job", j.id)
	scope.SetAttr("traceId", j.traceID)
	ar.span = scope.Span()

	if s.testExecute != nil {
		ar.result, ar.degraded, ar.failures, err = s.testExecute(ctx, j)
		return ar, err
	}

	res, err := s.execute(ctx, scope, j)
	res.span = ar.span
	return res, err
}

// retryable reports whether a failed attempt is worth repeating.
func retryable(err error) bool {
	var pe *panicError
	var perm *permanentError
	switch {
	case errors.As(err, &pe), errors.As(err, &perm):
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case litmus.IsDegradation(err):
		// Data-caused and deterministic: the engine already degraded as
		// far as it could.
		return false
	}
	return true
}

// retryBackoff returns the sleep before retry attempt+1: exponential
// from 100ms, capped at 5s, with up to +50% random jitter so a burst of
// transient failures does not resynchronize the workers.
func retryBackoff(attempt int) time.Duration {
	d := 100 * time.Millisecond
	for i := 0; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d + rand.N(d/2+1)
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the
// full sleep elapsed. Unlike time.After, the timer is released
// immediately on early wake.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
