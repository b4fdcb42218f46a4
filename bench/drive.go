package main

// Load generation. Closed loops run `clients` goroutines that each send
// their next item only after the previous one completed; the open loop
// runs one goroutine submitting on the arrival schedule and one polling.
// Job status is polled every millisecond, and a result is fetched at once
// when the submit already reports it done.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

const pollInterval = time.Millisecond

// outcome is what the client saw for one item.
type outcome struct {
	body     []byte        // the answer verification checks; nil for an unchecked item
	latency  time.Duration // send (open loop: due time) to result received
	cached   bool          // submit answered done: a cache hit
	jobID    string
	endpoint string // node that answered the submit
	err      error
}

// submit posts one item and returns its job id, serving endpoint and
// whether the result is already available.
func (st *stack) submit(ctx context.Context, it item) (id, endpoint string, done bool, err error) {
	switch {
	case it.batch != nil:
		sub, err := st.single.SubmitBatch(ctx, batchRequest(it.batch))
		if err != nil {
			return "", "", false, err
		}
		return sub.ID, st.single.BaseURL(), sub.Status == "done", nil
	case st.router != nil:
		sub, ep, err := st.router.Submit(ctx, it.single.request())
		if err != nil {
			return "", "", false, err
		}
		return sub.ID, ep, sub.Status == "done", nil
	default:
		sub, err := st.single.Submit(ctx, it.single.request())
		if err != nil {
			return "", "", false, err
		}
		return sub.ID, st.single.BaseURL(), sub.Status == "done", nil
	}
}

func (st *stack) job(ctx context.Context, id string) (*serve.JobStatus, error) {
	if st.router != nil {
		return st.router.Job(ctx, id)
	}
	return st.single.Job(ctx, id)
}

func (st *stack) result(ctx context.Context, id string) ([]byte, error) {
	if st.router != nil {
		return st.router.Result(ctx, id)
	}
	return st.single.Result(ctx, id)
}

// poll reports whether job id has finished, failing on a failed job.
func (st *stack) poll(ctx context.Context, id string) (bool, error) {
	js, err := st.job(ctx, id)
	if err != nil {
		return false, err
	}
	switch js.Status {
	case "done":
		return true, nil
	case "failed":
		return false, fmt.Errorf("job %s failed: %s", id, js.Error)
	}
	return false, nil
}

// runner runs one timed phase and collects what the client saw.
type runner struct {
	st    *stack
	w     *workload
	out   []outcome
	polls atomic.Int64
	// onDone runs on the generator goroutine after each item finishes —
	// the traced run fetches job traces there.
	onDone func(ctx context.Context, i int, o *outcome)
	// late records, per open-loop item, how late the submit left.
	late []time.Duration
}

func newRunner(st *stack, w *workload) *runner {
	return &runner{st: st, w: w, out: make([]outcome, len(w.items)), late: make([]time.Duration, len(w.items))}
}

// run executes every item of the workload and returns the phase's wall
// time: from the start to the last completion.
func (r *runner) run(ctx context.Context) time.Duration {
	start := time.Now()
	if r.w.clients == 0 {
		r.openLoop(ctx, start)
	} else {
		r.closedLoop(ctx)
	}
	return time.Since(start)
}

func (r *runner) closedLoop(ctx context.Context) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(r.w.clients)
	for c := 0; c < r.w.clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.w.items) {
					return
				}
				t0 := time.Now()
				o := &r.out[i]
				o.jobID, o.endpoint, o.cached, o.err = r.st.submit(ctx, r.w.items[i])
				done := o.cached
				for o.err == nil && !done {
					time.Sleep(pollInterval)
					r.polls.Add(1)
					done, o.err = r.st.poll(ctx, o.jobID)
				}
				if o.err == nil {
					o.body, o.err = r.st.result(ctx, o.jobID)
				}
				o.latency = time.Since(t0)
				r.finish(ctx, i, o)
			}
		}()
	}
	wg.Wait()
}

// pending is one open-loop submission the poller is waiting on.
type pending struct {
	i    int
	done bool
}

func (r *runner) openLoop(ctx context.Context, start time.Time) {
	// Sized to the number of sends, so the submitter never blocks on the
	// poller and keeps to its schedule.
	subs := make(chan pending, len(r.w.items))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(subs)
		for i, it := range r.w.items {
			if wait := time.Until(start.Add(it.due)); wait > 0 {
				time.Sleep(wait)
			}
			r.late[i] = time.Since(start.Add(it.due))
			o := &r.out[i]
			o.jobID, o.endpoint, o.cached, o.err = r.st.submit(ctx, it)
			if o.err != nil {
				o.latency = time.Since(start.Add(it.due))
				continue
			}
			subs <- pending{i: i, done: o.cached}
		}
	}()
	go func() {
		defer wg.Done()
		var waiting []pending
		open := true
		for open || len(waiting) > 0 {
			if len(waiting) == 0 {
				p, ok := <-subs
				if !ok {
					break
				}
				waiting = append(waiting, p)
			}
		drain:
			for open {
				select {
				case p, ok := <-subs:
					if !ok {
						open = false
						break drain
					}
					waiting = append(waiting, p)
				default:
					break drain
				}
			}
			kept := waiting[:0]
			for _, p := range waiting {
				o := &r.out[p.i]
				if !p.done {
					r.polls.Add(1)
					p.done, o.err = r.st.poll(ctx, o.jobID)
				}
				if o.err == nil && !p.done {
					kept = append(kept, p)
					continue
				}
				if o.err == nil {
					o.body, o.err = r.st.result(ctx, o.jobID)
				}
				o.latency = time.Since(start.Add(r.w.items[p.i].due))
				r.finish(ctx, p.i, o)
			}
			waiting = kept
			if len(waiting) > 0 {
				time.Sleep(pollInterval)
			}
		}
	}()
	wg.Wait()
}

// finish validates a batch document's shape (an entry error is a failed
// assessment), keeps only the answer verification checks — so the
// harness's own heap stays small beside the program's — and hands the
// outcome to the trace hook.
func (r *runner) finish(ctx context.Context, i int, o *outcome) {
	e, checked := r.w.checks[i]
	if o.err == nil && r.w.items[i].batch != nil {
		o.body, o.err = batchEntry(o.body, len(r.w.items[i].batch), e)
	}
	if !checked || o.err != nil {
		o.body = nil
	}
	if r.onDone != nil {
		r.onDone(ctx, i, o)
	}
}

// batchEntry checks that a batch document holds `entries` entries, none
// failed, and returns entry e's assessment document.
func batchEntry(body []byte, entries, e int) ([]byte, error) {
	var doc serve.BatchResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding batch result: %w", err)
	}
	if len(doc.Entries) != entries {
		return nil, fmt.Errorf("batch result has %d entries, want %d", len(doc.Entries), entries)
	}
	for _, en := range doc.Entries {
		if en.Error != "" {
			return nil, fmt.Errorf("batch entry %s failed: %s", en.ChangeID, en.Error)
		}
	}
	return doc.Entries[e].Assessment, nil
}
