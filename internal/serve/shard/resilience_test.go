package shard

// Resilience-layer tests: circuit-breaker state transitions, the
// failoverable-status table, WaitReady backoff with Retry-After,
// breaker-driven skip of dead owners, and hedged assessment —
// including the hedge-cancel contract: the losing request's context is
// canceled while its server-side job still completes and lands in the
// journal and cache.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/journal"
)

// TestBreakerTransitions drives the full state machine with synthetic
// time: closed → open on the threshold's consecutive failures, open →
// half-open after the cooldown with a single probe slot, half-open →
// closed on probe success and → open on probe failure.
func TestBreakerTransitions(t *testing.T) {
	var transitions []string
	b := newBreaker(3, 100*time.Millisecond, func(to breakerState) {
		transitions = append(transitions, to.String())
	})
	t0 := time.Unix(1000, 0)

	// Closed admits; failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.allow(t0) {
			t.Fatal("closed breaker rejected")
		}
		b.observe(false, t0)
	}
	if b.current() != stateClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.current())
	}
	// A success resets the streak.
	b.observe(true, t0)
	for i := 0; i < 2; i++ {
		b.observe(false, t0)
	}
	if b.current() != stateClosed {
		t.Fatal("failure streak survived an intervening success")
	}

	// The third consecutive failure opens the circuit.
	b.observe(false, t0)
	if b.current() != stateOpen {
		t.Fatalf("state after threshold failures = %v, want open", b.current())
	}
	if b.allow(t0.Add(50 * time.Millisecond)) {
		t.Fatal("open breaker admitted before the cooldown")
	}

	// Cooldown elapses: half-open, exactly one probe slot.
	t1 := t0.Add(150 * time.Millisecond)
	if !b.allow(t1) {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	if b.current() != stateHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.current())
	}
	if b.allow(t1) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe failure: back to open, cooldown restarts from now.
	b.observe(false, t1)
	if b.current() != stateOpen {
		t.Fatalf("state after probe failure = %v, want open", b.current())
	}
	if b.allow(t1.Add(50 * time.Millisecond)) {
		t.Fatal("reopened breaker admitted before the restarted cooldown")
	}

	// Second probe succeeds: closed, admitting freely again.
	t2 := t1.Add(150 * time.Millisecond)
	if !b.allow(t2) {
		t.Fatal("breaker did not half-open for the second probe")
	}
	b.observe(true, t2)
	if b.current() != stateClosed {
		t.Fatalf("state after probe success = %v, want closed", b.current())
	}
	if !b.allow(t2) || !b.allow(t2) {
		t.Fatal("closed breaker rejected after recovery")
	}

	want := []string{"open", "half-open", "open", "half-open", "closed"}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("transition log = %v, want %v", transitions, want)
	}
}

// TestFailoverable pins which errors walk to the next node: transport
// errors and gateway-class statuses (502/503/504) do; deterministic API
// answers and backpressure do not.
func TestFailoverable(t *testing.T) {
	cases := []struct {
		status int
		want   bool
	}{
		{http.StatusBadRequest, false},          // validation repeats everywhere
		{http.StatusNotFound, false},            // unknown job repeats everywhere
		{http.StatusConflict, false},            // resubmit conflict is deterministic
		{http.StatusTooManyRequests, false},     // backpressure: wait, don't amplify
		{http.StatusInternalServerError, false}, // job failed deterministically
		{http.StatusBadGateway, true},           // reverse proxy, dead upstream
		{http.StatusServiceUnavailable, true},   // draining or replaying
		{http.StatusGatewayTimeout, true},       // reverse proxy, stalled upstream
	}
	for _, c := range cases {
		err := &client.APIError{StatusCode: c.status}
		if got := failoverable(err); got != c.want {
			t.Errorf("failoverable(%d) = %v, want %v", c.status, got, c.want)
		}
	}
	if !failoverable(errors.New("dial tcp: connection refused")) {
		t.Error("transport error not failoverable")
	}
	if !failoverable(context.DeadlineExceeded) {
		t.Error("attempt timeout not failoverable")
	}
}

// TestWaitReadyBackoff: probes back off instead of tight-looping, and a
// Retry-After hint overrides the schedule.
func TestWaitReadyBackoff(t *testing.T) {
	var probes atomic.Int64
	ready := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		probes.Add(1)
		select {
		case <-ready:
			w.WriteHeader(http.StatusOK)
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	rt, err := NewRouter([]string{ts.URL}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	time.AfterFunc(300*time.Millisecond, func() { close(ready) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	// Exponential backoff from 10ms: ~10+15+30+60+120+240 ≈ 300ms in ≤ 7
	// probes. The old fixed 25ms loop would have taken ~13.
	if n := probes.Load(); n > 9 {
		t.Fatalf("%d probes for a 300ms replay — backoff not applied", n)
	}

	// Retry-After dominates the backoff schedule.
	var raProbes atomic.Int64
	raTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if raProbes.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer raTS.Close()
	rt2, err := NewRouter([]string{raTS.URL}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := rt2.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < 900*time.Millisecond || raProbes.Load() != 2 {
		t.Fatalf("Retry-After not honored: %d probes in %v, want 2 probes ≥ 1s apart", raProbes.Load(), elapsed)
	}

	// A dead endpoint fails with the context, not a hang.
	rt3, err := NewRouter([]string{"http://127.0.0.1:1"}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer shortCancel()
	if err := rt3.WaitReady(shortCtx); err == nil {
		t.Fatal("WaitReady succeeded against a dead endpoint")
	}
}

// TestBreakerSkipsDeadOwner: with the owner's circuit open, requests it
// owns go straight to the failover node without paying an attempt
// timeout per request — and the half-open probe rediscovers the owner
// once its stall is healed.
func TestBreakerSkipsDeadOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster behind fault proxies")
	}
	// Two real nodes; node 0 behind a netchaos proxy so it can be
	// stalled and healed at will.
	s0 := serve.New(serve.Config{Workers: 1})
	s1 := serve.New(serve.Config{Workers: 1})
	ts0 := httptest.NewServer(s0.Handler())
	ts1 := httptest.NewServer(s1.Handler())
	t.Cleanup(func() {
		ts0.Close()
		ts1.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s0.Shutdown(ctx)
		_ = s1.Shutdown(ctx)
	})
	proxy, err := netchaos.NewProxy("router", "n0", ts0.Listener.Addr().String(), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	// Keep-alives off: netchaos draws faults per connection, so each
	// request must dial through the proxy fresh to feel the live spec.
	httpc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	rt, err := NewRouter([]string{proxy.URL(), ts1.URL}, RouterOptions{
		HTTPClient:       httpc,
		PollInterval:     2 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  300 * time.Millisecond,
		AttemptTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// A request owned by the proxied node.
	var req *serve.AssessRequest
	for seed := int64(20_001); ; seed++ {
		r := testRequest(t, seed)
		id, err := serve.CanonicalJobID(r)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(id) == proxy.URL() {
			req = r
			break
		}
	}
	want, err := rt.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Stall the owner. The first request pays the attempt timeout, trips
	// the breaker, and fails over; subsequent requests skip the owner
	// outright.
	stall, err := netchaos.ParseSpec("stall=1")
	if err != nil {
		t.Fatal(err)
	}
	proxy.SetSpec(stall)
	for i := 0; i < 4; i++ {
		got, err := rt.Assess(ctx, req)
		if err != nil {
			t.Fatalf("assess %d with stalled owner: %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("assess %d: answer differs from the clean-cluster answer", i)
		}
	}
	st := rt.Stats()
	if st.BreakerTransitions == 0 {
		t.Fatalf("no breaker transitions recorded: %+v", st)
	}
	if st.BreakerSkips == 0 {
		t.Fatalf("stalled owner was re-probed on every request (no skips): %+v", st)
	}
	if len(st.BreakerOpen) != 1 || st.BreakerOpen[0] != proxy.URL() {
		t.Fatalf("open set = %v, want [%s]", st.BreakerOpen, proxy.URL())
	}

	// The transition counter metric landed in the registry.
	reg := obs.NewRegistry()
	rt2, err := NewRouter([]string{proxy.URL(), ts1.URL}, RouterOptions{
		HTTPClient:       httpc,
		PollInterval:     2 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  300 * time.Millisecond,
		AttemptTimeout:   500 * time.Millisecond,
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Assess(ctx, req); err != nil {
		t.Fatal(err)
	}
	opened := obs.Labeled(obs.MetricRouterBreakerTransitions, "endpoint", proxy.URL(), "to", "open")
	if v, _ := reg.Snapshot()[opened].(int64); v == 0 {
		t.Fatalf("transition metric not recorded; snapshot: %v", reg.Snapshot())
	}

	// Heal the stall: after the cooldown, the half-open probe succeeds
	// and the owner serves its keys again.
	proxy.SetSpec(nil)
	time.Sleep(350 * time.Millisecond)
	if _, err := rt.Assess(ctx, req); err != nil {
		t.Fatalf("assess after heal: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := rt.Stats(); len(st.BreakerOpen) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed after heal: %+v", rt.Stats())
		}
		if _, err := rt.Assess(ctx, req); err != nil {
			t.Fatalf("assess during recovery: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHedgeCancelLoserCompletes is the hedging safety contract end to
// end: the owner is busy, the hedge fires to the next node and wins,
// the losing request's context is canceled — and the owner's job still
// completes, lands in its cache, and survives in its journal.
func TestHedgeCancelLoserCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster with a journal")
	}
	dir := t.TempDir()
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Owner node: one worker, journaled. Backup node: plain.
	owner := serve.New(serve.Config{Workers: 1, Journal: jr})
	backup := serve.New(serve.Config{Workers: 1})
	tsO := httptest.NewServer(owner.Handler())
	tsB := httptest.NewServer(backup.Handler())
	t.Cleanup(func() {
		tsO.Close()
		tsB.Close()
	})

	rt, err := NewRouter([]string{tsO.URL, tsB.URL}, RouterOptions{
		PollInterval:  2 * time.Millisecond,
		Hedge:         true,
		HedgeMinDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// A request owned by the journaled node.
	var req *serve.AssessRequest
	var id string
	for seed := int64(30_001); ; seed++ {
		r := testRequest(t, seed)
		rid, err := serve.CanonicalJobID(r)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(rid) == tsO.URL {
			req, id = r, rid
			break
		}
	}

	// Occupy the owner's single worker with a long filler job (heavy
	// iteration count) submitted directly, so the hedged request's job
	// sits queued behind it well past the hedge delay.
	filler := testRequest(t, 31_999)
	filler.Assessor.Iterations = 4000
	ownerClient := client.New(tsO.URL, nil)
	if _, err := ownerClient.Submit(ctx, filler); err != nil {
		t.Fatal(err)
	}

	got, err := rt.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge did not fire and win against a busy owner: %+v", st)
	}

	// The canceled loser's job still completes on the owner and its
	// result is byte-identical to the winner's.
	var fromOwner []byte
	deadline := time.Now().Add(90 * time.Second)
	for {
		stj, err := ownerClient.Job(ctx, id)
		if err == nil && stj.Status == "done" {
			fromOwner, err = ownerClient.Result(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never completed the hedge-canceled job (status: %+v, err: %v)", stj, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if string(fromOwner) != string(got) {
		t.Fatal("owner's completed answer differs from the hedge winner's")
	}

	// And it landed in the journal: a fresh server replaying the same
	// directory serves it without recomputation.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer shutCancel()
	if err := owner.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	jr2, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	owner2 := serve.New(serve.Config{Workers: 1, Journal: jr2})
	tsO2 := httptest.NewServer(owner2.Handler())
	t.Cleanup(func() {
		tsO2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = owner2.Shutdown(ctx)
		_ = jr2.Close()
		_ = backup.Shutdown(ctx)
	})
	replayClient := client.New(tsO2.URL, nil)
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	for replayClient.Ready(waitCtx) != nil {
		select {
		case <-waitCtx.Done():
			t.Fatal("replayed owner never became ready")
		case <-time.After(10 * time.Millisecond):
		}
	}
	replayed, err := replayClient.Result(ctx, id)
	if err != nil {
		t.Fatalf("hedge-canceled job not in the journal after replay: %v", err)
	}
	if string(replayed) != string(got) {
		t.Fatal("journal-replayed answer differs from the hedge winner's")
	}
}
