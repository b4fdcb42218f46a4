package core

// Cancellation contract of the Context assessment variants: a canceled
// context stops the sampling iterations early (workers drain instead of
// finishing the batch) and surfaces ctx.Err() — never a partial result.
// The early-stop proof is deterministic: a countdown context flips to
// canceled after a fixed number of Err() polls, and the observability
// counter litmus_before_factorizations_total shows how many iterations
// actually factorized before the workers stopped.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/kpi"
	"repro/internal/obs"
)

// countdownCtx is a context.Context that reports Canceled after its
// Err method has been polled `after` times. Done returns a non-nil
// (never-closed) channel so the engine treats it as cancelable and
// polls Err between iterations — giving the test a deterministic
// cancellation point independent of timing.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	after int64
	done  chan struct{}
}

func newCountdownCtx(after int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestAssessElementContextCancelStopsIterations(t *testing.T) {
	w := newSynthWorld(5, 60, 40)
	study := w.series(10, 1.0, 0)
	controls := w.controls(8, 0.7, 1.3)

	const iters = 100
	a := MustNewAssessor(Config{Iterations: iters, Workers: 1})
	reg := obs.NewRegistry()
	a = a.WithObserver(obs.New("cancel", reg))

	ctx := newCountdownCtx(10)
	_, err := a.AssessElementContext(ctx, "x", study, controls, w.changeAt, kpi.DataAccessibility)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled assessment returned %v, want context.Canceled", err)
	}
	snap := reg.Snapshot()
	factorized, _ := snap[obs.MetricBeforeFactorizations].(int64)
	if factorized <= 0 || factorized >= iters {
		t.Fatalf("factorizations after cancel = %d, want in (0, %d): workers did not stop between iterations", factorized, iters)
	}
}

func TestAssessContextPreCanceled(t *testing.T) {
	w := newSynthWorld(6, 60, 40)
	study := w.series(10, 1.0, 0)
	controls := w.controls(8, 0.7, 1.3)
	studies := w.controls(3, 0.9, 1.1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := MustNewAssessor(Config{Workers: 1})

	if _, err := a.AssessElementContext(ctx, "x", study, controls, w.changeAt, kpi.DataAccessibility); !errors.Is(err, context.Canceled) {
		t.Errorf("AssessElementContext on canceled ctx returned %v, want context.Canceled", err)
	}
	if _, err := a.AssessGroupContext(ctx, studies, controls, w.changeAt, kpi.DataAccessibility); !errors.Is(err, context.Canceled) {
		t.Errorf("AssessGroupContext on canceled ctx returned %v, want context.Canceled", err)
	}
}

func TestAssessGroupContextCancelMidGroup(t *testing.T) {
	w := newSynthWorld(7, 60, 40)
	controls := w.controls(8, 0.7, 1.3)
	studies := w.controls(4, 0.9, 1.1)

	// The group polls once on entry and once per sampling iteration:
	// enough polls to get into the iterations, far fewer than the whole
	// group needs.
	const iters = 50
	ctx := newCountdownCtx(30)
	reg := obs.NewRegistry()
	a := MustNewAssessor(Config{Iterations: iters, Workers: 1}).WithObserver(obs.New("cancel", reg))
	_, err := a.AssessGroupContext(ctx, studies, controls, w.changeAt, kpi.DataAccessibility)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled group assessment returned %v, want context.Canceled", err)
	}
	if factorized := reg.Counter(obs.MetricBeforeFactorizations).Value(); factorized <= 0 || factorized >= iters {
		t.Fatalf("factorizations after cancel = %d, want in (0, %d): the units did not stop", factorized, iters)
	}
}

// TestAssessElementContextBackgroundEquivalence pins the nil-cost
// contract: a background context takes the exact AssessElement path, so
// the results are bit-identical.
func TestAssessElementContextBackgroundEquivalence(t *testing.T) {
	w := newSynthWorld(8, 60, 40)
	study := w.series(10, 1.0, -0.3)
	controls := w.controls(8, 0.7, 1.3)
	a := MustNewAssessor(Config{})

	plain, err := a.AssessElement("x", study, controls, w.changeAt, kpi.DataAccessibility)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := a.AssessElementContext(context.Background(), "x", study, controls, w.changeAt, kpi.DataAccessibility)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Statistic != ctxed.Statistic || plain.P != ctxed.P || plain.Shift != ctxed.Shift || plain.FitR2 != ctxed.FitR2 {
		t.Errorf("background-context assessment differs from plain: %+v vs %+v", ctxed.Verdict, plain.Verdict)
	}
}
