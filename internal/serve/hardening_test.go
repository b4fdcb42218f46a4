package serve

// Tests of the job-execution hardening: panic recovery, one run per
// job whatever its failure, and the degraded status surface.

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
// exec; panic recovery still applies. Hooks that also inject
// degradation failures set s.testExecute directly.
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
// still runs.
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

	// The single worker survived the panic: a second job completes.
	sub2, _ := submit(t, ts, requestWithSeed(t, 8102))
	if st := waitDone(t, ts, sub2.ID); st.Status != stateDone {
		t.Fatalf("post-panic job finished %s, want done", st.Status)
	}
}

// TestDeterministicFailureNotRetried: a job runs once. Its request is
// self-contained and the engine deterministic, so whatever the failure —
// data-caused (degradation-typed) or unclassified — a second run would
// fail the same way: the job fails after exactly one executor call.
func TestDeterministicFailureNotRetried(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"degradation", fmt.Errorf("%w: element vanished", litmus.ErrNoData)},
		{"unclassified", errors.New("transient weather")},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			s, ts := newHookedServer(t, Config{}, func(context.Context, *job) ([]byte, bool, error) {
				calls.Add(1)
				return nil, false, c.err
			})

			sub, _ := submit(t, ts, requestWithSeed(t, 8401))
			st := waitDone(t, ts, sub.ID)
			if st.Status != stateFailed {
				t.Fatalf("job finished %s, want failed", st.Status)
			}
			if st.Error != c.err.Error() {
				t.Errorf("job error %q, want %q", st.Error, c.err)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("executor calls = %d, want 1", n)
			}
			if n := counterValue(t, s.Registry(), obs.Labeled(obs.MetricJobs, "status", stateFailed)); n != 1 {
				t.Errorf(`jobs{status="failed"} = %d, want 1`, n)
			}
		})
	}
}

// TestSelectionFailureNotRetried: a real request whose control
// predicates match no candidate fails in control selection, and its
// one serve-job run is the only one: the span's stage histogram counts
// 1.
func TestSelectionFailureNotRetried(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := goldenRequest(t)
	req.Controls = &ControlsSpec{Predicates: []string{
		"same-kind", "same-zip", "same-software", "same-vendor", "same-model", "same-terrain", "same-traffic",
	}}

	sub, _ := submit(t, ts, req)
	st := waitDone(t, ts, sub.ID)
	if st.Status != stateFailed {
		t.Fatalf("job finished %s, want failed", st.Status)
	}
	if want := "litmus: control selection: control: only 0 candidates match and(same-kind,same-zip,same-software,same-vendor,same-model,same-terrain,same-traffic-profile), need >= 4"; st.Error != want {
		t.Errorf("job error %q, want %q", st.Error, want)
	}
	runs := s.Registry().Histogram(obs.Labeled(obs.MetricStageSeconds, "stage", obs.SpanServeJob), nil).Count()
	if runs != 1 {
		t.Errorf("serve-job runs = %d, want 1", runs)
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
			ar, err := s.execute(ctx, nil, j, new(scratch))
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
