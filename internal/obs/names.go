package obs

// Canonical span names — the stage taxonomy of the assessment path.
// Every instrumented layer uses these constants so traces from different
// entry points (Pipeline.AssessChange, a bare AssessGroup, the eval
// harness) aggregate under the same stage names.
const (
	// SpanAssessChange covers one full Pipeline.AssessChange call.
	SpanAssessChange = "assess-change"
	// SpanControlSelect covers control.Selector.Select.
	SpanControlSelect = "control-select"
	// SpanPanelAssembly covers study/control panel construction from the
	// series provider.
	SpanPanelAssembly = "panel-assembly"
	// SpanAssessGroup covers one factor group: one control panel at one
	// change time and the study groups fitted on it — one KPI of a
	// change, or the (change × KPI) assessments of a batch that share a
	// control panel. Its children are one SpanSampling and one
	// SpanAssessElement per element.
	SpanAssessGroup = "assess-group"
	// SpanAssessElement covers finishing one element of a factor group:
	// forecast aggregation and the rank test. Its fits run inside the
	// group's SpanSampling.
	SpanAssessElement = "assess-element"
	// SpanSampling covers a factor group's iteration fan-out: per
	// iteration, the sampled designs and their QR factorizations, and
	// every element's solve and forecasts.
	SpanSampling = "sampling-iterations"
	// SpanAggregate covers forecast aggregation and the forecast
	// differences.
	SpanAggregate = "aggregate-forecasts"
	// SpanRankTest covers the two-sample test plus the autocorrelation
	// correction.
	SpanRankTest = "rank-test"
	// SpanDiagnostics covers control-group quality diagnostics.
	SpanDiagnostics = "control-diagnostics"
)

// Canonical metric names (Prometheus conventions: _total for counters,
// base units in the name).
const (
	// MetricStageSeconds is the per-stage latency histogram; one series
	// per span name, labeled stage="<name>". Recorded automatically by
	// Scope.End.
	MetricStageSeconds = "litmus_stage_seconds"
	// MetricIterations counts sampling iterations run.
	MetricIterations = "litmus_sampling_iterations_total"
	// MetricIterationsFailed counts sampling iterations whose regression
	// failed to fit (degenerate draws).
	MetricIterationsFailed = "litmus_sampling_iterations_failed_total"
	// MetricControlsSampled counts control columns drawn across sampling
	// iterations (k per iteration).
	MetricControlsSampled = "litmus_controls_sampled_total"
	// MetricIterationsResampled counts sampling iterations whose control
	// draw was replaced after an unusable design (rank deficiency every
	// fallback failed to absorb) — the iteration-level resilience budget.
	MetricIterationsResampled = "litmus_iterations_resampled_total"
	// MetricBeforeFactorizations counts QR factorizations of before-window
	// design matrices — the unit the factor-once kernel minimizes. A
	// factor group of fully observed elements advances it by exactly
	// Iterations, not Iterations × Elements.
	MetricBeforeFactorizations = "litmus_before_factorizations_total"
	// MetricLeverageSkipped counts sampling iterations whose leave-one-out
	// leverage adjustment was skipped because the factorization was
	// numerically rank deficient — previously an invisible silent branch.
	MetricLeverageSkipped = "litmus_leverage_skipped_total"
	// MetricGroupSharedElements counts study elements fitted on their
	// factor group's shared design (as opposed to an element with missing
	// before-window data, which gets a design on its own fit rows).
	MetricGroupSharedElements = "litmus_group_shared_elements_total"
	// MetricElementsAssessed counts study elements assessed successfully.
	MetricElementsAssessed = "litmus_elements_assessed_total"
	// MetricElementsSkipped counts study elements skipped by AssessGroup
	// (individual assessment failed).
	MetricElementsSkipped = "litmus_elements_skipped_total"
	// MetricPValue is the histogram of assessment p-values.
	MetricPValue = "litmus_p_value"
	// MetricControlCandidates counts control candidates that matched the
	// selection predicate (before the MaxSize cap).
	MetricControlCandidates = "litmus_control_candidates_total"
	// MetricControlsSelected counts control elements selected.
	MetricControlsSelected = "litmus_controls_selected_total"
	// MetricControlsFlagged counts controls flagged as bad predictors by
	// the diagnostics.
	MetricControlsFlagged = "litmus_controls_flagged_total"
	// MetricControlsDiagnosed counts controls evaluated by the
	// diagnostics.
	MetricControlsDiagnosed = "litmus_controls_diagnosed_total"
	// MetricDecisions counts pipeline go/no-go decisions, labeled
	// decision="go|hold|no-go".
	MetricDecisions = "litmus_decisions_total"
	// MetricEvalCases counts evaluation-harness cases, labeled
	// scenario="..." (synthetic) or row="..." (known assessments).
	MetricEvalCases = "litmus_eval_cases_total"
	// MetricBatchEntries counts changelog entries submitted through the
	// batch assessment path (Pipeline.AssessChangelog / POST
	// /v1/assess/batch).
	MetricBatchEntries = "litmus_batch_entries_total"
	// MetricBatchPanelsShared counts panel assemblies a batch avoided
	// because another entry of the same batch had already assembled the
	// identical (control-set, KPI, window) panel.
	MetricBatchPanelsShared = "litmus_batch_panels_shared_total"
	// MetricBatchFactorizationsReused counts, for every batch factor group
	// of two or more (entry × KPI) assessments, its members times the
	// before-window QR factorizations of its shared design — the
	// cross-change extension of MetricBeforeFactorizations'
	// cross-element sharing.
	MetricBatchFactorizationsReused = "litmus_batch_factorizations_reused_total"

	// MetricHTTPRequests counts assessment-service HTTP requests, labeled
	// path="<route pattern>" and code="<status>".
	MetricHTTPRequests = "litmus_http_requests_total"
	// MetricQueueDepth is the current number of jobs waiting in the
	// assessment service's bounded submission queue.
	MetricQueueDepth = "litmus_queue_depth"
	// MetricQueueRejected counts submissions rejected with 429 because
	// the queue was full — the backpressure signal.
	MetricQueueRejected = "litmus_queue_rejected_total"
	// MetricCacheHits counts submissions answered from the result cache
	// (or deduplicated onto an in-flight job) without recomputation.
	MetricCacheHits = "litmus_cache_hits_total"
	// MetricCacheMisses counts submissions that enqueued a fresh job.
	MetricCacheMisses = "litmus_cache_misses_total"
	// MetricWorldCacheHits counts serve jobs whose synthetic world was
	// already resident in the process-wide world slot.
	MetricWorldCacheHits = "litmus_world_cache_hits_total"
	// MetricWorldCacheMisses counts serve jobs that built their synthetic
	// world and replaced the world slot's previous one.
	MetricWorldCacheMisses = "litmus_world_cache_misses_total"
	// MetricJobSeconds is the queue-to-completion latency histogram of
	// assessment jobs.
	MetricJobSeconds = "litmus_job_seconds"
	// MetricJobQueueSeconds is the queue-wait histogram of assessment
	// jobs: submission to the moment a worker dequeues the job.
	MetricJobQueueSeconds = "litmus_job_queue_seconds"
	// MetricJobRunSeconds is the execution-latency histogram of
	// assessment jobs: dequeue to terminal state.
	MetricJobRunSeconds = "litmus_job_run_seconds"
	// MetricJobs counts finished assessment jobs, labeled
	// status="done|failed|canceled|degraded" (degraded = completed with a
	// partial, Degraded-flagged assessment).
	MetricJobs = "litmus_jobs_total"
	// MetricJobPanics counts per-job panics recovered by the worker; the
	// job fails with a stack-annotated error, the worker survives.
	MetricJobPanics = "litmus_job_panics_total"
	// MetricJournalAppends counts records appended to the durability
	// journal (job submissions and completions).
	MetricJournalAppends = "litmus_journal_appends_total"
	// MetricJournalReplayed counts completed results repopulated into
	// the result cache from the journal during boot replay.
	MetricJournalReplayed = "litmus_journal_replayed_total"
	// MetricJournalCompactions counts background journal compactions
	// (sealed segments rewritten with superseded/expired entries
	// dropped).
	MetricJournalCompactions = "litmus_journal_compactions_total"

	// MetricRouterBreakerTransitions counts shard-router circuit-breaker
	// state changes, labeled endpoint="<url>" and
	// to="closed|open|half-open".
	MetricRouterBreakerTransitions = "litmus_router_breaker_transitions_total"
	// MetricRouterHedges counts hedged backup requests fired by the
	// shard router (the owner exceeded the adaptive latency percentile).
	MetricRouterHedges = "litmus_router_hedges_total"
	// MetricRouterHedgeWins counts hedged backups whose answer arrived
	// before the owner's — byte-identical either way, by the determinism
	// contract.
	MetricRouterHedgeWins = "litmus_router_hedge_wins_total"
)

// Serving-layer span names.
const (
	// SpanServeJob covers one queued assessment job from dequeue to
	// completion (the pipeline stages nest beneath it).
	SpanServeJob = "serve-job"
	// SpanWorld covers a serve job's world-slot lookup, and the world
	// build on a miss (internal/serve/world.go).
	SpanWorld = "world"
	// SpanBatchSetup covers a batch job's entry setup before its
	// assess-batch span: each entry's change and series provider.
	SpanBatchSetup = "batch-setup"
	// SpanBatchMarshal covers a batch job's marshal of every entry it
	// computed into its assessment document.
	SpanBatchMarshal = "batch-marshal"
	// SpanBatchRecord covers a batch job's journal appends and done
	// records of its computed entries, and the batch document's
	// encoding.
	SpanBatchRecord = "batch-record"
)

// Batch-assessment span names.
const (
	// SpanAssessBatch covers one Pipeline.AssessChangelog call (the whole
	// changelog batch); one SpanBatchEntry per entry and one
	// SpanAssessGroup per factor group nest beneath it.
	SpanAssessBatch = "assess-batch"
	// SpanBatchEntry covers one changelog entry's setup inside a batch
	// assessment: validation, control selection and panel assembly, with
	// the same control-select and panel-assembly children as
	// SpanAssessChange. Its assessments run in the batch's assess-group
	// spans.
	SpanBatchEntry = "batch-entry"
)

// helpText is the canonical one-line # HELP string for each metric's
// base name, keyed by the constants above. WritePrometheus emits these
// ahead of the # TYPE lines; keeping them here, next to the names,
// means a new metric and its scrape-visible documentation land in the
// same diff.
var helpText = map[string]string{
	MetricStageSeconds:         "Per-stage latency of the assessment pipeline, labeled by stage name.",
	MetricIterations:           "Sampling iterations run.",
	MetricIterationsFailed:     "Sampling iterations whose regression failed to fit.",
	MetricControlsSampled:      "Control columns drawn across sampling iterations.",
	MetricIterationsResampled:  "Sampling iterations redrawn after an unusable control design.",
	MetricBeforeFactorizations: "QR factorizations of before-window design matrices.",
	MetricLeverageSkipped:      "Sampling iterations whose leverage adjustment was skipped (rank-deficient factorization).",
	MetricGroupSharedElements:  "Study elements fitted on their factor group's shared design.",
	MetricElementsAssessed:     "Study elements assessed successfully.",
	MetricElementsSkipped:      "Study elements skipped because individual assessment failed.",
	MetricPValue:               "Distribution of assessment p-values.",
	MetricControlCandidates:    "Control candidates matching the selection predicate, before the size cap.",
	MetricControlsSelected:     "Control elements selected.",
	MetricControlsFlagged:      "Controls flagged as bad predictors by the diagnostics.",
	MetricControlsDiagnosed:    "Controls evaluated by the diagnostics.",
	MetricDecisions:            "Pipeline go/no-go decisions, labeled by decision.",
	MetricEvalCases:            "Evaluation-harness cases, labeled by scenario or row.",

	MetricBatchEntries:              "Changelog entries submitted through the batch assessment path.",
	MetricBatchPanelsShared:         "Panel assemblies shared across entries of one batch.",
	MetricBatchFactorizationsReused: "Before-window QR factorizations reused across batch entries with identical control panels.",

	MetricHTTPRequests:    "Assessment-service HTTP requests, labeled by route pattern and status code.",
	MetricQueueDepth:      "Jobs currently waiting in the bounded submission queue.",
	MetricQueueRejected:   "Submissions rejected with 429 because the queue was full.",
	MetricCacheHits:       "Submissions answered from the result cache or deduplicated onto an in-flight job.",
	MetricCacheMisses:     "Submissions that enqueued a fresh assessment job.",
	MetricJobSeconds:      "Submission-to-completion latency of assessment jobs.",
	MetricJobQueueSeconds: "Queue wait of assessment jobs: submission until a worker dequeues.",
	MetricJobRunSeconds:   "Execution latency of assessment jobs: dequeue to terminal state.",
	MetricJobs:            "Finished assessment jobs, labeled by terminal status.",
	MetricJobPanics:       "Per-job panics recovered by a worker.",

	MetricWorldCacheHits:   "Serve jobs whose synthetic world was already resident in the world slot.",
	MetricWorldCacheMisses: "Serve jobs that built their synthetic world and replaced the world slot.",

	MetricJournalAppends:     "Records appended to the durability journal.",
	MetricJournalReplayed:    "Completed results repopulated from the journal during boot replay.",
	MetricJournalCompactions: "Background journal compactions of sealed segments.",

	MetricRouterBreakerTransitions: "Shard-router circuit-breaker state changes, labeled by endpoint and target state.",
	MetricRouterHedges:             "Hedged backup requests fired by the shard router.",
	MetricRouterHedgeWins:          "Hedged backups whose answer arrived before the owner's.",
}

// Help returns the canonical # HELP text for a metric's base name, or
// "" when the name has none (ad-hoc series still scrape fine — they
// just carry no HELP line).
func Help(base string) string { return helpText[base] }

// Default bucket bounds.
var (
	// StageBuckets spans the engine's latency range: microsecond stages
	// (rank test on short windows) through multi-minute table
	// reproductions.
	StageBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30, 120}
	// PValueBuckets resolve the decision-relevant left tail around
	// conventional significance levels.
	PValueBuckets = []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5}
)
