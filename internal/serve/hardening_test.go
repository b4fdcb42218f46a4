package serve

// Tests of the job-execution hardening: per-attempt panic recovery,
// retry classification, bounded transient retries, and the degraded
// status surface.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"

	litmus "repro"
)

// newHookedServer builds a server whose assessment body is replaced by
// exec; panic recovery and retry classification still apply. Hooks that
// also inject degradation failures set s.testExecute directly.
func newHookedServer(t *testing.T, cfg Config, exec func(ctx context.Context, j *job) ([]byte, bool, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	s.testExecute = func(ctx context.Context, j *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		b, degraded, err := exec(ctx, j)
		return b, degraded, nil, err
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// TestJobPanicRecovered: a panicking job must fail with a
// stack-annotated error — and must not kill its worker, so the next job
// still runs. Panics are never retried.
func TestJobPanicRecovered(t *testing.T) {
	var calls atomic.Int64
	s, ts := newHookedServer(t, Config{Workers: 1}, func(context.Context, *job) ([]byte, bool, error) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return []byte(`{}`), false, nil
	})

	sub, _ := submit(t, ts, requestWithSeed(t, 8101))
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateFailed {
		t.Fatalf("panicked job finished %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "job panicked: boom") {
		t.Errorf("error %q does not name the panic value", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Errorf("error %q carries no stack trace", st.Error)
	}
	if n := counterValue(t, s.Registry(), obs.MetricJobPanics); n != 1 {
		t.Errorf("panic counter = %d, want 1", n)
	}
	if n := counterValue(t, s.Registry(), obs.MetricJobRetries); n != 0 {
		t.Errorf("retry counter = %d, want 0 (panics are not retried)", n)
	}

	// The single worker survived the panic: a second job completes.
	sub2, _ := submit(t, ts, requestWithSeed(t, 8102))
	if st := waitDone(t, ts, sub2.ID); st.Status != stateDone {
		t.Fatalf("post-panic job finished %s, want done", st.Status)
	}
}

// TestTransientFailureRetried: attempts that fail with an unclassified
// error are retried with backoff until one succeeds, within
// MaxJobAttempts.
func TestTransientFailureRetried(t *testing.T) {
	var calls atomic.Int64
	s, ts := newHookedServer(t, Config{}, func(context.Context, *job) ([]byte, bool, error) {
		if calls.Add(1) < 3 {
			return nil, false, errors.New("transient weather")
		}
		return []byte(`{}`), false, nil
	})

	sub, _ := submit(t, ts, requestWithSeed(t, 8201))
	if st := waitDone(t, ts, sub.ID); st.Status != stateDone {
		t.Fatalf("job finished %s, want done after retries", st.Status)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
	if n := counterValue(t, s.Registry(), obs.MetricJobRetries); n != 2 {
		t.Errorf("retry counter = %d, want 2", n)
	}
}

// TestRetriesExhausted: a persistently failing job stops at
// MaxJobAttempts and surfaces the last attempt's error.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	s, ts := newHookedServer(t, Config{MaxJobAttempts: 2}, func(context.Context, *job) ([]byte, bool, error) {
		return nil, false, fmt.Errorf("still broken (attempt %d)", calls.Add(1))
	})

	sub, _ := submit(t, ts, requestWithSeed(t, 8301))
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateFailed {
		t.Fatalf("job finished %s, want failed", st.Status)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("attempts = %d, want MaxJobAttempts = 2", n)
	}
	if !strings.Contains(st.Error, "attempt 2") {
		t.Errorf("error %q is not the last attempt's", st.Error)
	}
	if n := counterValue(t, s.Registry(), obs.MetricJobRetries); n != 1 {
		t.Errorf("retry counter = %d, want 1", n)
	}
}

// TestDeterministicFailureNotRetried: degradation-typed errors are
// data-caused and deterministic — retrying cannot help, so the job
// fails on the first attempt.
func TestDeterministicFailureNotRetried(t *testing.T) {
	var calls atomic.Int64
	s, ts := newHookedServer(t, Config{}, func(context.Context, *job) ([]byte, bool, error) {
		calls.Add(1)
		return nil, false, fmt.Errorf("%w: element vanished", litmus.ErrNoData)
	})

	sub, _ := submit(t, ts, requestWithSeed(t, 8401))
	if st := waitDone(t, ts, sub.ID); st.Status != stateFailed {
		t.Fatalf("job finished %s, want failed", st.Status)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on deterministic failure)", n)
	}
	if n := counterValue(t, s.Registry(), obs.MetricJobRetries); n != 0 {
		t.Errorf("retry counter = %d, want 0", n)
	}
}

// TestDegradedJobSurfaced: a partial result finishes done with the
// degraded flag set — in the job status, the jobs metric, a resubmission
// answered by the live record, and a batch entry resolved from that
// record, whose batch document and batch job carry the flag too.
func TestDegradedJobSurfaced(t *testing.T) {
	s := newServer(Config{})
	// Bare jobs return a degraded stub; batch jobs run the real executor,
	// which splices the resolved entry into the batch document.
	s.testExecute = func(ctx context.Context, j *job) ([]byte, bool, []litmus.AssessmentFailureDoc, error) {
		if !j.bare {
			ar, err := s.execute(ctx, nil, j)
			return ar.result, ar.degraded, ar.failures, err
		}
		return []byte(`{"degraded": true}`), true, nil, nil
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	req := requestWithSeed(t, 8501)
	sub, _ := submit(t, ts, req)
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateDone {
		t.Fatalf("degraded job finished %s, want done", st.Status)
	}
	if !st.Degraded {
		t.Error("job status does not surface Degraded")
	}
	if _, code := fetchResult(t, ts, sub.ID); code != http.StatusOK {
		t.Errorf("degraded result: status = %d, want 200 (degraded is done, not failed)", code)
	}
	if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", "degraded")); n != 1 {
		t.Errorf(`jobs{status="degraded"} = %d, want 1`, n)
	}
	if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", stateDone)); n != 0 {
		t.Errorf(`jobs{status="done"} = %d, want 0 (degraded replaces done)`, n)
	}

	// A resubmission is answered by the live record, flag and all.
	sub2, resp2 := submit(t, ts, req)
	if resp2.StatusCode != http.StatusOK || !sub2.Cached || sub2.ID != sub.ID {
		t.Fatalf("resubmit: status %d cached %v id %s, want a 200 hit on %s", resp2.StatusCode, sub2.Cached, sub2.ID, sub.ID)
	}
	if st := waitDone(t, ts, sub2.ID); !st.Degraded {
		t.Error("record answering the resubmission lost the degraded flag")
	}

	// A batch entry resolved from the record carries the flag into the
	// batch document and the batch job, without recomputing.
	breq := goldenBatchRequest(t, []ChangeSpec{req.Change})
	breq.Generator = req.Generator
	bsub, _ := submitBatch(t, ts, breq)
	if !bsub.Entries[0].Cached || bsub.Entries[0].ID != sub.ID {
		t.Fatalf("batch entry at submit = %+v, want resolved from %s", bsub.Entries[0], sub.ID)
	}
	if st := waitDone(t, ts, bsub.ID); st.Status != stateDone || !st.Degraded {
		t.Errorf("batch job: status %s degraded %v, want done and degraded", st.Status, st.Degraded)
	}
	doc := fetchBatchResult(t, ts, bsub.ID)
	if e := doc.Entries[0]; !e.Cached || !e.Degraded {
		t.Errorf("resolved batch entry: cached %v degraded %v, want both true", e.Cached, e.Degraded)
	}
	if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", "degraded")); n != 2 {
		t.Errorf(`jobs{status="degraded"} = %d, want 2 (the job and the batch; no recompute)`, n)
	}
}

// TestRetryableClassification pins the failure taxonomy the retry loop
// dispatches on.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil-wrapped transient", errors.New("io weather"), true},
		{"panic", &panicError{val: "boom"}, false},
		{"permanent build error", &permanentError{err: errors.New("bad world")}, false},
		{"canceled", context.Canceled, false},
		{"deadline", fmt.Errorf("assess: %w", context.DeadlineExceeded), false},
		{"degradation", fmt.Errorf("%w: too few", litmus.ErrInsufficientControls), false},
		{"rank deficiency", litmus.ErrRankDeficient, false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRetryBackoffBounds: exponential growth from 100ms, capped at 5s,
// jitter below +50%.
func TestRetryBackoffBounds(t *testing.T) {
	for attempt := 0; attempt < 12; attempt++ {
		base := 100 * time.Millisecond
		for i := 0; i < attempt && base < 5*time.Second; i++ {
			base *= 2
		}
		if base > 5*time.Second {
			base = 5 * time.Second
		}
		for trial := 0; trial < 32; trial++ {
			d := retryBackoff(attempt)
			if d < base || d > base+base/2 {
				t.Fatalf("retryBackoff(%d) = %v outside [%v, %v]", attempt, d, base, base+base/2)
			}
		}
	}
}

// TestSleepCtx: a canceled context wakes the sleep early.
func TestSleepCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if sleepCtx(ctx, time.Hour) {
		t.Error("sleepCtx reported a full sleep under a canceled context")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("canceled sleep took %v", elapsed)
	}
	if !sleepCtx(context.Background(), time.Millisecond) {
		t.Error("sleepCtx reported early wake on an uncanceled sleep")
	}
}
