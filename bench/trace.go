package main

// The traced run. It reads the program's existing instrumentation from
// outside — GET /v1/jobs/{id}/trace after every computed job, /metrics
// at the start and end of the timed phase — and replays a sample of the
// workload through the library with spans the benchmark owns. Nothing
// is traced inside the program; the traced run's own end-to-end
// readings against an untraced run's give the tracing overhead.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/journal"
)

// span is one benchmark-owned timing of a public call.
type span struct {
	Name     string  `json:"name"`
	StartUs  float64 `json:"startUs"` // since the tracer started
	DurUs    float64 `json:"durUs"`
	Children []*span `json:"children,omitempty"`
	start    time.Time
}

// tracer keeps spans in memory until the run writes them out. It is used
// from one goroutine.
type tracer struct {
	t0    time.Time
	roots []*span
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// begin opens a span under parent (a root when parent is nil).
func (tr *tracer) begin(parent *span, name string) *span {
	s := &span{Name: name, start: time.Now()}
	s.StartUs = micros(s.start.Sub(tr.t0))
	if parent == nil {
		tr.roots = append(tr.roots, s)
	} else {
		parent.Children = append(parent.Children, s)
	}
	return s
}

func (tr *tracer) end(s *span) { s.DurUs = micros(time.Since(s.start)) }

// do runs fn inside a span.
func (tr *tracer) do(parent *span, name string, fn func() error) error {
	s := tr.begin(parent, name)
	err := fn()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// durations returns the duration in µs of every span named name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	var walk func([]*span)
	walk = func(ss []*span) {
		for _, s := range ss {
			if s.Name == name {
				out = append(out, s.DurUs)
			}
			walk(s.Children)
		}
	}
	walk(tr.roots)
	return out
}

// traceNode is one node of a job's span tree as GET /v1/jobs/{id}/trace
// renders it.
type traceNode struct {
	Name       string      `json:"name"`
	Start      time.Time   `json:"start"`
	DurationMs float64     `json:"durationMs"`
	Children   []traceNode `json:"children"`
}

// selfMs is n's self time: its duration minus the part of its interval
// that its children cover. Children may run concurrently, so overlapping
// child intervals count once.
func selfMs(n traceNode) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range n.Children {
		lo := float64(c.Start.Sub(n.Start)) / float64(time.Millisecond)
		hi := lo + c.DurationMs
		lo, hi = max(lo, 0), min(hi, n.DurationMs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := 0.0, 0.0
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
		}
		reach = max(reach, v.hi)
	}
	return n.DurationMs - covered
}

// addSelfTimes accumulates the self time of every node of the tree by
// span name.
func addSelfTimes(n traceNode, into map[string]float64) {
	into[n.Name] += selfMs(n)
	for _, c := range n.Children {
		addSelfTimes(c, into)
	}
}

// traced holds the server-side readings of a traced run.
type traced struct {
	st     *stack
	tr     *tracer
	before map[string]float64 // /metrics at the start of the timed phase

	mu        sync.Mutex
	selfMs    map[string]float64 // summed over every computed job
	unspanned []float64          // per job: serve-job self time
	queueMs   []float64          // per job
	runMs     []float64          // per job
	runPer    []float64          // per job: run time per computed assessment
	computed  int                // assessments the traced jobs computed
	err       error              // first failed trace read
}

func newTraced(ctx context.Context, st *stack) (*traced, error) {
	before, err := scrape(ctx, st)
	if err != nil {
		return nil, err
	}
	return &traced{st: st, tr: &tracer{t0: time.Now()}, before: before, selfMs: map[string]float64{}}, nil
}

// onDone reads the trace of every job the item computed.
func (t *traced) onDone(ctx context.Context, i int, o *outcome) {
	if o.err != nil || o.cached {
		return
	}
	jt, err := fetchTrace(ctx, t.st.hc, o.endpoint, o.jobID)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	computed := 1
	if jt.Entries != nil {
		computed = 0
		for _, e := range jt.Entries {
			if !e.Cached {
				computed++
			}
		}
	}
	t.computed += computed
	if jt.QueueSeconds != nil {
		t.queueMs = append(t.queueMs, *jt.QueueSeconds*1000)
	}
	if jt.RunSeconds != nil {
		t.runMs = append(t.runMs, *jt.RunSeconds*1000)
		t.runPer = append(t.runPer, *jt.RunSeconds*1000/float64(max(computed, 1)))
	}
	for _, a := range jt.Spans {
		var root traceNode
		if err := json.Unmarshal(a.Span, &root); err != nil {
			if t.err == nil {
				t.err = fmt.Errorf("decoding the span tree of job %s: %w", o.jobID, err)
			}
			return
		}
		t.unspanned = append(t.unspanned, selfMs(root))
		addSelfTimes(root, t.selfMs)
	}
}

func fetchTrace(ctx context.Context, hc *http.Client, endpoint, id string) (*serve.JobTrace, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET trace of job %s: status %d", id, resp.StatusCode)
	}
	var jt serve.JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&jt); err != nil {
		return nil, fmt.Errorf("decoding the trace of job %s: %w", id, err)
	}
	return &jt, nil
}

// scrape sums every node's /metrics series by their full series name.
func scrape(ctx context.Context, st *stack) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, nd := range st.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := st.hc.Do(req)
		if err != nil {
			return nil, err
		}
		err = parseProm(resp.Body, sum)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s/metrics: %w", nd.url, err)
		}
	}
	return sum, nil
}

// parseProm adds each sample of a Prometheus text exposition into into.
// Label values may contain spaces, so the value is the last field.
func parseProm(r io.Reader, into map[string]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return fmt.Errorf("malformed sample %q: %w", line, err)
		}
		into[line[:cut]] += v
	}
	return sc.Err()
}

// delta sums the change of every series of base whose labels pass keep.
func delta(before, after map[string]float64, base string, keep func(series string) bool) float64 {
	d := 0.0
	for series, v := range after {
		name, _, _ := strings.Cut(series, "{")
		if name == base && (keep == nil || keep(series)) {
			d += v - before[series]
		}
	}
	return d
}

// finish takes the end-of-run readings, replays the sample through the
// library, sets every per-layer reading and writes the spans out.
func (t *traced) finish(ctx context.Context, w *workload, d *runner, opts options, rep *report, attempted int) error {
	if t.err != nil {
		return t.err
	}
	after, err := scrape(ctx, t.st)
	if err != nil {
		return err
	}
	n := float64(attempted)
	counter := func(base string) float64 { return delta(t.before, after, base, nil) }
	rep.set("core.iterations_per_assessment", counter("litmus_sampling_iterations_total")/n, "count")
	rep.set("core.before_factorizations_per_assessment", counter("litmus_before_factorizations_total")/n, "count")
	hits, misses := counter("litmus_cache_hits_total"), counter("litmus_cache_misses_total")
	rep.set("serve.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	// The traced run's own reads (job traces, /metrics) are not workload.
	requests := delta(t.before, after, "litmus_http_requests_total", func(s string) bool {
		return !strings.Contains(s, "/trace") && !strings.Contains(s, "/metrics")
	})
	rep.set("serve.http_requests_per_assessment", requests/n, "count")
	rep.set("journal.appends_per_assessment", counter("litmus_journal_appends_total")/n, "count")
	rep.set("serve.queue_rejected", counter("litmus_queue_rejected_total"), "count")
	rep.set("serve.job_retries", counter("litmus_job_retries_total"), "count")
	rep.set("client.polls_per_assessment", float64(d.polls.Load())/n, "count")

	for _, name := range spanNames {
		rep.set("span."+name+".self_ms", t.selfMs[name]/float64(max(t.computed, 1)), "ms")
	}
	rep.set("serve.unspanned_ms", median(t.unspanned), "ms")
	rep.set("serve.queue_wait_ms", median(t.queueMs), "ms")
	rep.set("serve.run_ms", median(t.runMs), "ms")
	rep.set("serve.jobs_traced", float64(len(t.runMs)), "count")

	rp := &replay{tr: t.tr}
	singles, batches := replaySample(w, opts.seed, opts.size.replay)
	for _, c := range singles {
		if err := rp.single(c); err != nil {
			return fmt.Errorf("replaying %s: %w", c.id, err)
		}
	}
	for _, b := range batches {
		if err := rp.batch(ctx, b); err != nil {
			return fmt.Errorf("replaying a batch: %w", err)
		}
	}
	if err := t.timeClient(ctx); err != nil {
		return err
	}
	if err := t.timeJournal(opts.tmp, rp.results); err != nil {
		return err
	}

	med := func(name string) float64 { return median(t.tr.durations(name)) }
	units := float64(max(rp.units, 1))
	rep.set("netsim.build_ms", med("netsim.Build")/1000, "ms")
	rep.set("gen.new_us", med("gen.New"), "us")
	rep.set("gen.series_us", med("gen.Series"), "us")
	rep.set("gen.series_calls_per_assessment", float64(rp.seriesCalls)/units, "count")
	rep.set("control.select_us", med("control.Select"), "us")
	rep.set("control.controls_selected", float64(rp.controls)/units, "count")
	rep.set("linalg.qr_factor_us", med("linalg.QR.factor"), "us")
	rep.set("linalg.qr_solve_us", med("linalg.QR.solve"), "us")
	rep.set("stats.median_us", med("stats.MedianInPlace"), "us")
	rep.set("stats.fligner_policello_us", med("stats.FlignerPolicello"), "us")
	rep.set("core.assess_element_ms", med("core.AssessElement")/1000, "ms")
	rep.set("core.assess_group_ms.w1", med("core.AssessGroup.w1")/1000, "ms")
	rep.set("core.assess_group_ms.w2", med("core.AssessGroup.w2")/1000, "ms")
	rep.set("litmus.assess_change_ms", med("litmus.AssessChange")/1000, "ms")
	rep.set("litmus.marshal_us", med("litmus.MarshalAssessment"), "us")
	entries := float64(max(rp.batchEntries, 1))
	rep.set("litmus.assess_batch_ms_per_entry", sum(t.tr.durations("litmus.AssessBatch"))/1000/entries, "ms")
	rep.set("litmus.batch_panels_shared_ratio", float64(rp.panelsShared)/(entries*float64(len(kpis))), "ratio")
	rep.set("litmus.batch_factorizations_reused_ratio", float64(rp.factorsReused)/(entries*float64(len(kpis))*core.DefaultIterations), "ratio")
	rep.set("shard.canonical_id_us", med("serve.CanonicalJobID"), "us")
	rep.set("client.rtt_us", med("client.Ready"), "us")
	rep.set("journal.append_us", med("journal.Append"), "us")

	// The library time behind one computed assessment, against the
	// service's run time for one: the share of serve.run_ms the library
	// layers account for.
	libMs := (med("netsim.Build") + med("gen.New") + med("litmus.AssessChange") + med("litmus.MarshalAssessment")) / 1000
	if w.items[0].batch != nil {
		libMs = sum(t.tr.durations("replay.batch")) / 1000 / entries
	}
	rep.set("serve.attributed_frac", libMs/median(t.runPer), "ratio")

	if rt := t.st.router; rt != nil {
		rs := rt.Stats()
		rep.set("shard.failovers", float64(rs.Failovers), "count")
		rep.set("shard.breaker_skips", float64(rs.BreakerSkips), "count")
		rep.set("shard.hedges", float64(rs.Hedges), "count")
	}
	return t.write(w, d, opts)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// timeClient times GET /readyz round trips on an idle node.
func (t *traced) timeClient(ctx context.Context) error {
	c := client.New(t.st.nodes[0].url, t.st.hc)
	root := t.tr.begin(nil, "replay.client")
	defer t.tr.end(root)
	for i := 0; i < 100; i++ {
		if err := t.tr.do(root, "client.Ready", func() error { return c.Ready(ctx) }); err != nil {
			return err
		}
	}
	return nil
}

// timeJournal times completion-record appends carrying real results to
// a journal of its own.
func (t *traced) timeJournal(tmp string, results [][]byte) error {
	dir, err := os.MkdirTemp(tmp, "journal-timing-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	root := t.tr.begin(nil, "replay.journal")
	for i, res := range results {
		rec := journal.Record{Kind: journal.KindComplete, Digest: fmt.Sprintf("j%064d", i), Payload: res}
		if err := t.tr.do(root, "journal.Append", func() error { return jr.Append(rec) }); err != nil {
			jr.Close()
			return err
		}
	}
	t.tr.end(root)
	return jr.Close()
}

// write saves the replay spans and the client's view of every request.
func (t *traced) write(w *workload, d *runner, opts options) error {
	type request struct {
		Item      int     `json:"item"`
		JobID     string  `json:"jobId,omitempty"`
		Endpoint  string  `json:"endpoint,omitempty"`
		Cached    bool    `json:"cached,omitempty"`
		LatencyMs float64 `json:"latencyMs"`
		Error     string  `json:"error,omitempty"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Replay   []*span   `json:"replay"`
		Requests []request `json:"requests"`
	}{Workload: w.name, Seed: opts.seed, Replay: t.tr.roots}
	for i, o := range d.out {
		r := request{Item: i, JobID: o.jobID, Endpoint: o.endpoint, Cached: o.cached, LatencyMs: float64(o.latency) / float64(time.Millisecond)}
		if o.err != nil {
			r.Error = o.err.Error()
		}
		doc.Requests = append(doc.Requests, r)
	}
	if err := os.MkdirAll(filepath.Dir(opts.traceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(opts.traceOut)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
