// Package serve is the Litmus assessment service: a stdlib-only HTTP
// layer that accepts self-contained assessment requests (a seeded
// synthetic world plus a change record — everything needed to reproduce
// the assessment bit-for-bit), runs them through the Pipeline on a
// bounded job queue with worker-pool concurrency, caches results by a
// canonical request hash, and applies backpressure (429 + Retry-After)
// when the queue is full.
//
// API (JSON over HTTP):
//
//	POST /v1/assess              submit a request; 202 queued, 200 cached,
//	                             429 queue full (Retry-After set)
//	POST /v1/assess/batch        submit a changelog against one shared
//	                             world; entries are canonicalized to the
//	                             same digests as single submissions, so
//	                             cached entries are not recomputed
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/result    canonical assessment document (200 when
//	                             done, 409 while pending, 500 when failed)
//	GET  /v1/jobs/{id}/trace     execution trace: queue-wait vs run
//	                             timings, the degradations of a partial
//	                             result, and the run's span tree
//	GET  /healthz                liveness
//	GET  /readyz                 readiness (503 while draining)
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/pprof/*          profiling (only with Config.EnablePprof)
//
// Determinism contract: the same canonical request always produces the
// same result bytes (the engine's (Seed, iteration) RNG derivation), so
// the result cache never changes an answer — it only skips recompute.
//
// Every job carries a W3C trace identity: POST /v1/assess accepts a
// traceparent request header (minting an identity when absent), and
// responses that name a job echo a traceparent header back — see
// trace.go for the propagation contract.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"
	"unsafe"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/freelist"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/timeseries"

	litmus "repro"
)

// IndexSpec is the time grid of the synthetic world: N points starting
// at Start, Step apart.
type IndexSpec struct {
	// Start is the grid origin, RFC 3339.
	Start string `json:"start"`
	// Step is the sampling interval as a Go duration string (e.g. "6h").
	Step string `json:"step"`
	// N is the number of grid points.
	N int `json:"n"`
}

// TopologySpec parameterizes the generated network. Zero fields take
// the defaults of netsim.DefaultTopologyConfig; sizes are capped so one
// request cannot ask for an unboundedly large world.
type TopologySpec struct {
	Seed                 int64 `json:"seed,omitempty"`
	ControllersPerRegion int   `json:"controllersPerRegion,omitempty"`
	TowersPerController  int   `json:"towersPerController,omitempty"`
	CellsPerTower        int   `json:"cellsPerTower,omitempty"`
	ENodeBsPerRegion     int   `json:"eNodeBsPerRegion,omitempty"`
	MSCsPerRegion        int   `json:"mscsPerRegion,omitempty"`
}

// GeneratorSpec parameterizes the KPI synthesizer (defaults from
// gen.DefaultConfig). The change's ground-truth effect is always
// injected, so the service's verdicts have a known truth to match.
type GeneratorSpec struct {
	Seed int64 `json:"seed,omitempty"`
}

// ChangeSpec is the change record under assessment.
type ChangeSpec struct {
	ID          string `json:"id"`
	Type        string `json:"type,omitempty"` // changelog type name; default "config-change"
	Description string `json:"description,omitempty"`
	// Elements are the study-group element IDs (netsim-generated IDs,
	// e.g. "nb1-ne-1").
	Elements []string `json:"elements"`
	// At is the change execution time, RFC 3339.
	At                     string  `json:"at"`
	PropagateToDescendants bool    `json:"propagateToDescendants,omitempty"`
	TrueQuality            float64 `json:"trueQuality,omitempty"`
	TrueLoadMult           float64 `json:"trueLoadMult,omitempty"`
}

// AssessorSpec overrides the assessor configuration (defaults per
// litmus.Config). Workers is honored at execution time but normalized
// out of the canonical hash — worker counts never change results.
type AssessorSpec struct {
	Alpha          float64 `json:"alpha,omitempty"`
	SampleFraction float64 `json:"sampleFraction,omitempty"`
	Iterations     int     `json:"iterations,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	MinControls    int     `json:"minControls,omitempty"`
	EffectFloor    float64 `json:"effectFloor,omitempty"`
	Workers        int     `json:"workers,omitempty"`
}

// ControlsSpec selects the control group: named predicates (ANDed) and
// the group-size cap.
type ControlsSpec struct {
	// Predicates are named selection predicates, ANDed together. Known
	// names: same-kind, same-tech, same-region, same-parent, same-zip,
	// same-software, same-vendor, same-model, same-terrain,
	// same-traffic. Empty means the pipeline default
	// [same-kind, same-region].
	Predicates []string `json:"predicates,omitempty"`
	// MaxControls caps the control group (0 = default 100; at most
	// 1,000).
	MaxControls int `json:"maxControls,omitempty"`
}

// AssessRequest is a self-contained assessment submission: the seeded
// synthetic world, the change record, and the assessment parameters.
// Identical canonical requests hash identically and share one cached
// result.
type AssessRequest struct {
	Topology   *TopologySpec  `json:"topology,omitempty"`
	Generator  *GeneratorSpec `json:"generator,omitempty"`
	Index      IndexSpec      `json:"index"`
	Change     ChangeSpec     `json:"change"`
	KPIs       []string       `json:"kpis"`
	WindowDays int            `json:"windowDays"`
	Assessor   *AssessorSpec  `json:"assessor,omitempty"`
	Controls   *ControlsSpec  `json:"controls,omitempty"`
}

// Size caps on the synthetic world, bounding one request's CPU and
// memory footprint.
const (
	maxIndexPoints          = 100_000
	maxControllersPerRegion = 16
	maxTowersPerController  = 64
	maxCellsPerTower        = 16
	maxENodeBsPerRegion     = 256
	maxMSCsPerRegion        = 8
	maxStudyElements        = 256
	maxIterations           = 10_000
	// maxControls covers the paper's control groups of tens to hundreds
	// of elements. A control panel's build scans its IDs, so it is
	// quadratic in its columns: about 2 ms at 1,000 and about 40 ms at
	// 5,000 (timeseries BenchmarkPanelAdd).
	maxControls = 1000
)

// predicateFactories maps the named control predicates of the API to
// their constructors.
var predicateFactories = map[string]func() control.Predicate{
	"same-kind":     control.SameKind,
	"same-tech":     control.SameTech,
	"same-region":   control.SameRegion,
	"same-parent":   control.SameParent,
	"same-zip":      control.SameZip,
	"same-software": control.SameSoftware,
	"same-vendor":   control.SameVendor,
	"same-model":    control.SameModel,
	"same-terrain":  control.SameTerrain,
	"same-traffic":  control.SameTrafficProfile,
}

// compiledRequest is a validated request: the canonical (defaulted,
// normalized) form that feeds the hash, plus the parsed values the
// scenario builder consumes. The change is compiled apart from the rest
// (compiledChange), so the entries of a batch share one compiledRequest
// of the fields they share, whose change is empty.
type compiledRequest struct {
	norm     AssessRequest
	changeAt time.Time
	topo     netsim.TopologyConfig
	genSeed  int64
	index    timeseries.Index
	kpis     []kpi.KPI
	window   int
	cfg      litmus.Config
	preds    []control.Predicate
	maxCtrls int
}

// compiledChange is a validated change record: its normalized form,
// which enters the canonical request, and its parsed time.
type compiledChange struct {
	spec ChangeSpec
	at   time.Time
}

// compile validates req and returns its compiled form, leaving req
// unchanged. Every error is a client error (HTTP 400).
func compile(req *AssessRequest) (*compiledRequest, error) {
	c := &compiledRequest{}
	if err := c.compileWorld(req); err != nil {
		return nil, err
	}
	ch, err := compileChange(&req.Change)
	if err != nil {
		return nil, err
	}
	c.norm.Change, c.changeAt = ch.spec, ch.at
	if err := c.compileParams(req); err != nil {
		return nil, err
	}
	return c, nil
}

// compileShared validates every field of req but its change — the
// fields the entries of a batch share — in compile's order, and returns
// them compiled, with no change.
func compileShared(req *AssessRequest) (*compiledRequest, error) {
	c := &compiledRequest{}
	if err := c.compileWorld(req); err != nil {
		return nil, err
	}
	if err := c.compileParams(req); err != nil {
		return nil, err
	}
	return c, nil
}

// compileWorld validates and normalizes the fields that determine the
// world: the index, the topology and the generator.
func (c *compiledRequest) compileWorld(req *AssessRequest) error {
	// Index.
	start, err := time.Parse(time.RFC3339, req.Index.Start)
	if err != nil {
		return fmt.Errorf("index.start: %v", err)
	}
	step, err := time.ParseDuration(req.Index.Step)
	if err != nil {
		return fmt.Errorf("index.step: %v", err)
	}
	if step <= 0 {
		return fmt.Errorf("index.step %q must be positive", req.Index.Step)
	}
	if req.Index.N < 6 || req.Index.N > maxIndexPoints {
		return fmt.Errorf("index.n %d outside [6, %d]", req.Index.N, maxIndexPoints)
	}
	c.index = timeseries.NewIndex(start.UTC(), step, req.Index.N)
	c.norm.Index = IndexSpec{Start: start.UTC().Format(time.RFC3339Nano), Step: step.String(), N: req.Index.N}

	// Topology (defaults + caps).
	topo := netsim.DefaultTopologyConfig()
	t := req.Topology
	if t == nil {
		t = &TopologySpec{}
	}
	if t.Seed != 0 {
		topo.Seed = t.Seed
	}
	for _, f := range []struct {
		name string
		val  int
		dst  *int
		cap  int
	}{
		{"controllersPerRegion", t.ControllersPerRegion, &topo.ControllersPerRegion, maxControllersPerRegion},
		{"towersPerController", t.TowersPerController, &topo.TowersPerController, maxTowersPerController},
		{"cellsPerTower", t.CellsPerTower, &topo.CellsPerTower, maxCellsPerTower},
		{"eNodeBsPerRegion", t.ENodeBsPerRegion, &topo.ENodeBsPerRegion, maxENodeBsPerRegion},
		{"mscsPerRegion", t.MSCsPerRegion, &topo.MSCsPerRegion, maxMSCsPerRegion},
	} {
		if f.val < 0 || f.val > f.cap {
			return fmt.Errorf("topology.%s %d outside [0, %d]", f.name, f.val, f.cap)
		}
		if f.val != 0 {
			*f.dst = f.val
		}
	}
	c.topo = topo
	c.norm.Topology = &TopologySpec{
		Seed:                 topo.Seed,
		ControllersPerRegion: topo.ControllersPerRegion,
		TowersPerController:  topo.TowersPerController,
		CellsPerTower:        topo.CellsPerTower,
		ENodeBsPerRegion:     topo.ENodeBsPerRegion,
		MSCsPerRegion:        topo.MSCsPerRegion,
	}

	// Generator.
	c.genSeed = 1
	if req.Generator != nil && req.Generator.Seed != 0 {
		c.genSeed = req.Generator.Seed
	}
	c.norm.Generator = &GeneratorSpec{Seed: c.genSeed}
	return nil
}

// compileChange validates and normalizes a change record.
func compileChange(spec *ChangeSpec) (compiledChange, error) {
	if spec.ID == "" {
		return compiledChange{}, fmt.Errorf("change.id is required")
	}
	if len(spec.Elements) == 0 {
		return compiledChange{}, fmt.Errorf("change.elements is required")
	}
	if len(spec.Elements) > maxStudyElements {
		return compiledChange{}, fmt.Errorf("change.elements has %d entries, max %d", len(spec.Elements), maxStudyElements)
	}
	for i, id := range spec.Elements {
		if slices.Contains(spec.Elements[:i], id) {
			return compiledChange{}, fmt.Errorf("change.elements lists %q twice", id)
		}
	}
	at, err := time.Parse(time.RFC3339, spec.At)
	if err != nil {
		return compiledChange{}, fmt.Errorf("change.at: %v", err)
	}
	ch := compiledChange{spec: *spec, at: at.UTC()}
	if ch.spec.Type == "" {
		ch.spec.Type = "config-change"
	}
	if _, err := changelog.ParseType(ch.spec.Type); err != nil {
		return compiledChange{}, err
	}
	ch.spec.At = ch.at.Format(time.RFC3339Nano)
	return ch, nil
}

// compileParams validates and normalizes the assessment parameters: the
// KPIs, the window, the assessor and the controls.
func (c *compiledRequest) compileParams(req *AssessRequest) error {
	// KPIs: parsed, sorted and deduplicated — the per-KPI results are
	// order-independent, so order must not split the cache.
	if len(req.KPIs) == 0 {
		return fmt.Errorf("kpis is required")
	}
	names := append([]string(nil), req.KPIs...)
	sort.Strings(names)
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		k, err := kpi.Parse(name)
		if err != nil {
			return err
		}
		c.kpis = append(c.kpis, k)
	}
	// A fresh slice, so the canonical form never shares req.KPIs' backing
	// array, which compile must not write through.
	c.norm.KPIs = make([]string, len(c.kpis))
	for i, k := range c.kpis {
		c.norm.KPIs[i] = k.String()
	}

	// Window.
	if req.WindowDays < 2 {
		return fmt.Errorf("windowDays %d too short (need >= 2)", req.WindowDays)
	}
	c.window = req.WindowDays
	c.norm.WindowDays = req.WindowDays

	// Assessor config: validate eagerly so bad configs are a 400, not a
	// failed job. Workers is normalized to 0 in the canonical form —
	// results are bit-identical for every worker count.
	a := req.Assessor
	if a == nil {
		a = &AssessorSpec{}
	}
	if a.Iterations > maxIterations {
		return fmt.Errorf("assessor.iterations %d above max %d", a.Iterations, maxIterations)
	}
	c.cfg = litmus.Config{
		Alpha:          a.Alpha,
		SampleFraction: a.SampleFraction,
		Iterations:     a.Iterations,
		Seed:           a.Seed,
		MinControls:    a.MinControls,
		EffectFloor:    a.EffectFloor,
		Workers:        a.Workers,
	}
	if err := c.cfg.Validate(); err != nil {
		return fmt.Errorf("assessor: %v", err)
	}
	normA := *a
	normA.Workers = 0
	c.norm.Assessor = &normA

	// Controls.
	ctl := req.Controls
	if ctl == nil {
		ctl = &ControlsSpec{}
	}
	predNames := ctl.Predicates
	if len(predNames) == 0 {
		predNames = []string{"same-kind", "same-region"}
	}
	for _, name := range predNames {
		f, ok := predicateFactories[name]
		if !ok {
			return fmt.Errorf("controls.predicates: unknown predicate %q", name)
		}
		c.preds = append(c.preds, f())
	}
	if ctl.MaxControls < 0 {
		return fmt.Errorf("controls.maxControls %d negative", ctl.MaxControls)
	}
	if ctl.MaxControls > maxControls {
		return fmt.Errorf("controls.maxControls %d above max %d", ctl.MaxControls, maxControls)
	}
	c.maxCtrls = ctl.MaxControls
	c.norm.Controls = &ControlsSpec{Predicates: predNames, MaxControls: ctl.MaxControls}
	return nil
}

// hash returns the canonical request hash — the job and cache key. It
// covers the normalized form, so notation differences (omitted vs
// explicit defaults, KPI order, timezone spelling, worker count) map to
// the same key. The full sha256 digest is kept: ids are opaque to
// clients, and a truncated key colliding would silently serve one
// request's cached assessment as another's.
func (c *compiledRequest) hash() string { return c.digest(c.change()) }

// change returns the request's own compiled change.
func (c *compiledRequest) change() compiledChange {
	return compiledChange{spec: c.norm.Change, at: c.changeAt}
}

// digest returns the job id of c's shared fields with change ch: the id
// a single submission of that change gets.
func (c *compiledRequest) digest(ch compiledChange) string {
	cb, canon := c.canonical(ch)
	id := jobDigest(canon)
	cb.release()
	return id
}

// jobDigest returns the job id of a request's canonical bytes: "j" and
// the hex SHA-256, rendered in a fixed array, so the id is the one
// string it allocates.
func jobDigest(canon []byte) string {
	sum := sha256.Sum256(canon)
	var id [1 + 2*sha256.Size]byte
	id[0] = 'j'
	hex.Encode(id[1:], sum[:])
	return string(id[:])
}

// canonicalScratch is the memory one rendering of a canonical form
// reuses: the normalized request, and the buffer a compact encoder
// writes it into.
type canonicalScratch struct {
	req AssessRequest
	buf []byte
	enc *json.Encoder // compact, writing into buf through Write
}

// Write appends p to the buffer; the encoder writes through it.
func (cb *canonicalScratch) Write(p []byte) (int, error) {
	cb.buf = append(cb.buf, p...)
	return len(p), nil
}

// canonicalListBytes bounds the list of canonical scratch, one per
// concurrent rendering of about 1.1 KiB. Measured peaks (seed 1, 8 s
// runs): 2,288 B (two) on fresh-world and shared-world, 1,968 B on
// routed-mixed and 1,144 B on changelog-batch.
const canonicalListBytes = 16 << 10

// canonicals is the process-wide list of canonical scratch: the submit
// handlers, batch compilation and the router's CanonicalJobID render
// every digest in it.
var canonicals = freelist.New(canonicalListBytes, func(cb *canonicalScratch) int {
	return int(unsafe.Sizeof(*cb)) + cap(cb.buf)
})

// canonical renders the normalized request of c's shared fields with
// change ch — the bytes the hash covers, equal to json.Marshal of it,
// and the journal's submit payload — into listed scratch. The bytes
// stay valid until the caller releases the scratch. Compiling these
// bytes again reproduces the same canonical form (normalization is
// idempotent), so a journaled submission replays to the same job id.
func (c *compiledRequest) canonical(ch compiledChange) (*canonicalScratch, []byte) {
	cb, ok := canonicals.Take()
	if !ok {
		cb = new(canonicalScratch)
		cb.enc = json.NewEncoder(cb)
	}
	cb.req = c.norm
	cb.req.Change = ch.spec
	cb.buf = cb.buf[:0]
	if err := cb.enc.Encode(&cb.req); err != nil {
		// The normalized form is plain data; encoding cannot fail on it.
		panic("serve: encoding normalized request: " + err.Error())
	}
	return cb, cb.buf[:len(cb.buf)-1] // without Encode's newline
}

// release lists the scratch again, dropping the request it held.
func (cb *canonicalScratch) release() {
	cb.req = AssessRequest{}
	canonicals.Put(cb)
}

// CanonicalJobID returns the job id req would get from POST /v1/assess
// — the canonical request digest that keys the job table and, for
// sharded deployments, the consistent-hash routing key (see
// shard.Router). req is not mutated. Every error is a validation error,
// identical to the HTTP 400 the service would return.
func CanonicalJobID(req *AssessRequest) (string, error) {
	c, err := compile(req)
	if err != nil {
		return "", err
	}
	return c.hash(), nil
}

// SubmitResponse is the POST /v1/assess response body.
type SubmitResponse struct {
	// ID is the job identifier (also the canonical request hash).
	ID string `json:"id"`
	// Status is the job status at submit time: "queued", "running",
	// "done" or "failed".
	Status string `json:"status"`
	// Cached is true when the response was served from the result cache
	// or deduplicated onto an already-submitted identical request.
	Cached bool `json:"cached,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} response body.
type JobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	// Degraded reports that the assessment finished but parts of it could
	// not be computed; the result document's failures list the
	// machine-readable reasons.
	Degraded bool `json:"degraded,omitempty"`
	// TraceID is the job's W3C trace identity (32 hex digits) — the key
	// into GET /v1/jobs/{id}/trace and the caller's own trace backend.
	TraceID     string     `json:"traceId,omitempty"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	Error       string     `json:"error,omitempty"`
}

// APIError is the JSON body of every non-2xx response.
type APIError struct {
	Error string `json:"error"`
}
