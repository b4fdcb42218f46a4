package shard

// Router: the client side of sharded serving. One Router fronts N
// service endpoints; every request is keyed by its canonical digest
// (serve.CanonicalJobID — the exact id the server itself would assign)
// and sent to the ring owner, so identical requests from any client
// land on the same node and share one cached result. When the owner is
// unreachable the Router walks the key's failover sequence and lets any
// healthy node recompute — by the determinism contract the substitute
// answer is bit-identical, the cluster just spends one extra
// computation while the owner is away.
//
// Resilience layers (see DESIGN.md "Cluster resilience"):
//
//   - Passive health + circuit breakers (breaker.go): every attempt's
//     outcome feeds the target endpoint's breaker, so a known-dead
//     owner is skipped outright instead of charging each request a
//     dial or attempt timeout; one probe per cooldown rediscovers it.
//   - Hedged assessments: when the owner exceeds an adaptive latency
//     percentile, a backup request fires to the next node in the
//     digest's sequence and the first answer wins. Safe because the
//     determinism contract makes duplicate computations byte-identical
//     and canonical digests make them idempotent — the worst case is
//     one wasted computation, never a wrong or double-applied answer.
//   - Retry budgets + deadline propagation: a failover walk attempts at
//     most 1+RetryBudget nodes, each attempt optionally boxed by
//     AttemptTimeout under the caller's own deadline, so retries can
//     never amplify load or latency unboundedly.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// Hedging: back up the owner when it exceeds the observed p95, but
// never hedge sooner than the floor (which also serves as the delay
// until enough latency samples exist).
const (
	hedgeQuantile        = 0.95
	defaultHedgeMinDelay = 20 * time.Millisecond
	hedgeWindow          = 512 // latency samples kept for the adaptive percentile
	hedgeMinSamples      = 8   // below this, the floor alone decides
)

// RouterOptions parameterizes a Router. The zero value is usable.
type RouterOptions struct {
	// HTTPClient is shared by every per-node client (default
	// http.DefaultClient).
	HTTPClient *http.Client
	// PollInterval is each node client's job-status polling cadence
	// (default: the client package's own default).
	PollInterval time.Duration
	// Registry receives the router's metrics (breaker transitions,
	// hedges, hedge wins); nil records none.
	Registry *obs.Registry
	// BreakerThreshold is how many consecutive failoverable failures
	// open an endpoint's circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects before
	// half-opening for a single probe (default 500ms).
	BreakerCooldown time.Duration
	// AttemptTimeout boxes each per-node attempt (dial, submit, poll,
	// fetch) under the caller's own deadline, so one stalled node
	// cannot consume the whole request budget. 0 inherits the caller's
	// context unchanged.
	AttemptTimeout time.Duration
	// RetryBudget bounds failover: at most 1+RetryBudget nodes are
	// attempted per request. 0 means the full ring walk (N-1 retries);
	// negative disables failover entirely.
	RetryBudget int
	// Hedge enables hedged Assess calls: when the first answer takes
	// longer than the 95th percentile of recent latencies, a backup
	// fires to the next node in the digest's sequence and the first
	// result wins.
	Hedge bool
	// HedgeMinDelay floors the hedge delay (default 20ms) and stands in
	// for the percentile until enough samples exist.
	HedgeMinDelay time.Duration
}

// Router routes assessment traffic across a fixed set of service
// endpoints by consistent-hashed canonical digest, with per-endpoint
// circuit breakers, bounded failover, and optional hedging. Safe for
// concurrent use.
type Router struct {
	reg *obs.Registry

	attemptTimeout time.Duration
	retryBudget    int

	hedge         bool
	hedgeMinDelay time.Duration

	// Fixed by NewRouter and read without the lock.
	ring    *Ring
	clients map[string]*client.Client
	health  map[string]*breaker

	mu     sync.Mutex
	routed map[string]int64 // endpoint → requests sent (incl. failover targets)

	latencies [hedgeWindow]float64 // seconds; ring buffer of successful Assess calls
	latN      int                  // samples stored (≤ hedgeWindow)
	latIdx    int

	failovers    atomic.Int64
	breakerSkips atomic.Int64
	transitions  atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
}

// RouteStats is a snapshot of the router's traffic and resilience
// counters.
type RouteStats struct {
	// Routed maps endpoint → requests sent (failover targets included).
	Routed map[string]int64
	// Failovers counts attempts sent anywhere but the key's owner.
	Failovers int64
	// BreakerSkips counts endpoints skipped because their circuit was
	// open — requests that did NOT pay a timeout for a known-dead node.
	BreakerSkips int64
	// BreakerTransitions counts circuit state changes across all
	// endpoints.
	BreakerTransitions int64
	// BreakerOpen lists endpoints whose circuit is currently not closed.
	BreakerOpen []string
	// Hedges counts backup requests fired; HedgeWins counts the backups
	// whose answer arrived first.
	Hedges, HedgeWins int64
}

// NewRouter builds a router over the given endpoint URLs (each the base
// URL of one litmus-serve instance). The endpoint strings are the ring
// node names: every router configured with the same set — in any order —
// routes every digest identically.
func NewRouter(endpoints []string, opts RouterOptions) (*Router, error) {
	ring, err := NewRing(endpoints)
	if err != nil {
		return nil, err
	}
	httpc := opts.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	hedgeMin := opts.HedgeMinDelay
	if hedgeMin <= 0 {
		hedgeMin = defaultHedgeMinDelay
	}
	rt := &Router{
		reg:            opts.Registry,
		attemptTimeout: opts.AttemptTimeout,
		retryBudget:    opts.RetryBudget,
		hedge:          opts.Hedge,
		hedgeMinDelay:  hedgeMin,
		ring:           ring,
		clients:        make(map[string]*client.Client, len(endpoints)),
		health:         make(map[string]*breaker, len(endpoints)),
		routed:         make(map[string]int64, len(endpoints)),
	}
	for _, ep := range ring.Nodes() {
		c := client.New(ep, httpc)
		if opts.PollInterval > 0 {
			c.PollInterval = opts.PollInterval
		}
		rt.clients[ep] = c
		rt.health[ep] = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, func(to breakerState) {
			rt.transitions.Add(1)
			rt.reg.LabeledCounter(obs.MetricRouterBreakerTransitions, "endpoint", ep, "to", to.String()).Add(1)
		})
	}
	return rt, nil
}

// Ring returns the router's consistent-hash ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Stats returns a snapshot of the router's routing and resilience
// counters.
func (rt *Router) Stats() RouteStats {
	rt.mu.Lock()
	routed := make(map[string]int64, len(rt.routed))
	for ep, n := range rt.routed {
		routed[ep] = n
	}
	rt.mu.Unlock()
	var open []string
	for ep, b := range rt.health {
		if b.current() != stateClosed {
			open = append(open, ep)
		}
	}
	sort.Strings(open)
	return RouteStats{
		Routed:             routed,
		Failovers:          rt.failovers.Load(),
		BreakerSkips:       rt.breakerSkips.Load(),
		BreakerTransitions: rt.transitions.Load(),
		BreakerOpen:        open,
		Hedges:             rt.hedges.Load(),
		HedgeWins:          rt.hedgeWins.Load(),
	}
}

func (rt *Router) recordRoute(endpoint string, failover bool) {
	rt.mu.Lock()
	rt.routed[endpoint]++
	rt.mu.Unlock()
	if failover {
		rt.failovers.Add(1)
	}
}

// failoverable reports whether err warrants trying the next node in the
// sequence. Transport errors, per-attempt timeouts, and gateway-class
// statuses do: 503 (node down, draining, or replaying its journal) and
// 502/504 (a reverse proxy in front of a dead or stalled node).
// Deterministic API answers — validation 400s, job-failed 500s, 404s,
// 429 backpressure — would repeat identically on every node, so they
// surface immediately.
func failoverable(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// attempt runs fn against one node, boxed by AttemptTimeout when
// configured (nested under the caller's own deadline).
func (rt *Router) attempt(ctx context.Context, c *client.Client, fn func(context.Context, *client.Client) error) error {
	if rt.attemptTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, rt.attemptTimeout)
		defer cancel()
		return fn(actx, c)
	}
	return fn(ctx, c)
}

// route runs fn against the nodes of key's failover sequence, rotated
// left by offset (offset 0 starts at the owner; a hedge uses offset 1),
// until one answers, the error is deterministic, or the retry budget is
// spent. Endpoints whose circuit is open are skipped without an attempt;
// if that leaves nothing to try, the first node of the rotated sequence
// is attempted anyway — a request never fails without at least one
// attempt.
func (rt *Router) route(ctx context.Context, key string, offset int, fn func(context.Context, *client.Client) error) error {
	seq := rt.ring.Sequence(key)
	budget := rt.retryBudget
	if budget == 0 {
		budget = len(seq) - 1
	} else if budget < 0 {
		budget = 0
	}
	if offset %= len(seq); offset > 0 {
		seq = append(append(make([]string, 0, len(seq)), seq[offset:]...), seq[:offset]...)
	}
	try := func(ep string) error {
		rt.recordRoute(ep, ep != seq[0] || offset != 0)
		err := rt.attempt(ctx, rt.clients[ep], fn)
		switch {
		case err == nil:
			rt.health[ep].observe(true, time.Now())
		case ctx.Err() != nil:
			// The caller canceled mid-attempt (deadline, or a hedge
			// loser) — that says nothing about the node's health.
		case failoverable(err):
			rt.health[ep].observe(false, time.Now())
		default:
			// A deterministic API answer proves the node is alive.
			rt.health[ep].observe(true, time.Now())
		}
		return err
	}
	attempts := 0
	var lastErr error
	for _, ep := range seq {
		if attempts > budget {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !rt.health[ep].allow(time.Now()) {
			rt.breakerSkips.Add(1)
			continue
		}
		attempts++
		err := try(ep)
		if err == nil {
			return nil
		}
		if perr := ctx.Err(); perr != nil {
			return err // the caller's deadline/cancel — stop walking
		}
		if !failoverable(err) {
			return err
		}
		lastErr = err
	}
	if attempts == 0 {
		// Every circuit rejected (all open, or the half-open probe slots
		// taken). Force one attempt at the sequence head rather than
		// failing a request that never touched the network.
		if err := ctx.Err(); err != nil {
			return err
		}
		err := try(seq[0])
		if err == nil {
			return nil
		}
		if !failoverable(err) {
			return err
		}
		lastErr = err
		attempts++
	}
	return fmt.Errorf("shard: %d/%d nodes failed for %s: %w", attempts, len(seq), key, lastErr)
}

// noteLatency records one successful Assess duration for the adaptive
// hedge percentile.
func (rt *Router) noteLatency(d time.Duration) {
	rt.mu.Lock()
	rt.latencies[rt.latIdx] = d.Seconds()
	rt.latIdx = (rt.latIdx + 1) % hedgeWindow
	if rt.latN < hedgeWindow {
		rt.latN++
	}
	rt.mu.Unlock()
}

// hedgeDelay returns how long the primary may run before the backup
// fires: the hedgeQuantile of recent successful latencies, floored at
// HedgeMinDelay (which stands alone until enough samples exist).
func (rt *Router) hedgeDelay() time.Duration {
	rt.mu.Lock()
	n := rt.latN
	samples := append([]float64(nil), rt.latencies[:n]...)
	rt.mu.Unlock()
	if n < hedgeMinSamples {
		return rt.hedgeMinDelay
	}
	sort.Float64s(samples)
	i := int(float64(n)*hedgeQuantile+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	d := time.Duration(samples[i] * float64(time.Second))
	if d < rt.hedgeMinDelay {
		d = rt.hedgeMinDelay
	}
	return d
}

// Assess submits req to the owner of its canonical digest and blocks
// until the result is available, failing over along the digest's
// sequence when the owner is unreachable. With hedging enabled, a
// backup fires to the next node in the sequence once the owner exceeds
// the adaptive latency percentile; the first answer wins and the loser
// is canceled — byte-identical either way, by the determinism contract.
func (rt *Router) Assess(ctx context.Context, req *serve.AssessRequest) ([]byte, error) {
	id, err := serve.CanonicalJobID(req)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	b, err := rt.assess(ctx, id, req)
	if err == nil {
		rt.noteLatency(time.Since(t0))
	}
	return b, err
}

func (rt *Router) routeAssess(ctx context.Context, id string, req *serve.AssessRequest, offset int) ([]byte, error) {
	var result []byte
	err := rt.route(ctx, id, offset, func(ctx context.Context, c *client.Client) error {
		b, err := c.Assess(ctx, req)
		if err == nil {
			result = b
		}
		return err
	})
	return result, err
}

func (rt *Router) assess(ctx context.Context, id string, req *serve.AssessRequest) ([]byte, error) {
	if !rt.hedge {
		return rt.routeAssess(ctx, id, req, 0)
	}
	type outcome struct {
		b      []byte
		err    error
		backup bool
	}
	results := make(chan outcome, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() {
		b, err := rt.routeAssess(pctx, id, req, 0)
		results <- outcome{b, err, false}
	}()

	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()
	outstanding := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			// The timer fires at most once, so this hedges once.
			rt.hedges.Add(1)
			rt.reg.Counter(obs.MetricRouterHedges).Add(1)
			outstanding++
			go func() {
				b, err := rt.routeAssess(bctx, id, req, 1)
				results <- outcome{b, err, true}
			}()
		case r := <-results:
			outstanding--
			if r.err == nil {
				if r.backup {
					rt.hedgeWins.Add(1)
					rt.reg.Counter(obs.MetricRouterHedgeWins).Add(1)
				}
				return r.b, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				// Every side failed. A primary that failed before the
				// hedge armed walked the whole sequence; a backup would
				// only repeat it.
				return nil, firstErr
			}
			// One side failed while the other is still running: let the
			// survivor finish (it may be the one holding the answer).
		}
	}
}

// Submit posts req to the owner of its canonical digest (with
// failover) and returns the owning endpoint alongside the submit
// response, so the caller can poll the same node.
func (rt *Router) Submit(ctx context.Context, req *serve.AssessRequest) (*serve.SubmitResponse, string, error) {
	id, err := serve.CanonicalJobID(req)
	if err != nil {
		return nil, "", err
	}
	var sub *serve.SubmitResponse
	var served string
	err = rt.route(ctx, id, 0, func(ctx context.Context, c *client.Client) error {
		s, err := c.Submit(ctx, req)
		if err == nil {
			sub = s
			served = c.BaseURL()
		}
		return err
	})
	return sub, served, err
}

// Job fetches a job's status from the node owning id.
func (rt *Router) Job(ctx context.Context, id string) (*serve.JobStatus, error) {
	var st *serve.JobStatus
	err := rt.route(ctx, id, 0, func(ctx context.Context, c *client.Client) error {
		s, err := c.Job(ctx, id)
		if err == nil {
			st = s
		}
		return err
	})
	return st, err
}

// Result fetches a finished job's result bytes from the node owning id.
func (rt *Router) Result(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := rt.route(ctx, id, 0, func(ctx context.Context, c *client.Client) error {
		b, err := c.Result(ctx, id)
		if err == nil {
			raw = b
		}
		return err
	})
	return raw, err
}

// WaitReady readiness-probe pacing: jittered exponential backoff from
// waitReadyBase doubling to waitReadyMax, overridden by a server-sent
// Retry-After hint (the same contract client.Assess honors on 429).
const (
	waitReadyBase = 10 * time.Millisecond
	waitReadyMax  = 500 * time.Millisecond
)

// WaitReady blocks until every endpoint answers /readyz with 200 — i.e.
// every node has finished its journal replay and is accepting work — or
// ctx expires. Probes back off exponentially with jitter instead of
// hammering a replaying node, and a Retry-After hint on the 503 is
// honored as-is.
func (rt *Router) WaitReady(ctx context.Context) error {
	for _, ep := range rt.ring.Nodes() {
		c := rt.clients[ep]
		backoff := waitReadyBase
		for {
			err := c.Ready(ctx)
			if err == nil {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("shard: %s not ready: %w", ep, ctx.Err())
			}
			wait := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1)) // +0–50% jitter
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
				wait = apiErr.RetryAfter
			}
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("shard: %s not ready: %w", ep, ctx.Err())
			case <-t.C:
			}
			if backoff *= 2; backoff > waitReadyMax {
				backoff = waitReadyMax
			}
		}
	}
	return nil
}
