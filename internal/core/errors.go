package core

// Typed error taxonomy of the assessment engine. Every failure a caller
// can trigger with data — as opposed to programmer error, which panics —
// maps onto one of these sentinels, and ReasonOf collapses any wrapped
// engine error into a machine-readable Reason code. The taxonomy is what
// lets AssessGroup and Pipeline.AssessChange degrade gracefully: instead
// of aborting a whole run, they record a Failure carrying the reason and
// carry on with the elements and KPIs that still assess.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Sentinel errors returned by the assessor for data-caused failures.
// Match with errors.Is; classify with ReasonOf.
var (
	// ErrInsufficientControls means the control group has fewer usable
	// members than Config.MinControls, or a control selection matched
	// fewer candidates than it needs.
	ErrInsufficientControls = errors.New("core: control group too small")
	// ErrShortWindow means a before/after window has too few observations
	// to fit the regression or run the test.
	ErrShortWindow = errors.New("core: assessment window too short")
	// ErrRankDeficient is linalg.ErrRankDeficient re-exported: the sampled
	// design stayed numerically rank deficient through every fallback
	// (ridge regularization, collinear-column pruning, resampling).
	ErrRankDeficient = linalg.ErrRankDeficient
	// ErrAllIterationsFailed means no sampling iteration produced a usable
	// fit even after resampling — typically a hopelessly degenerate
	// control panel.
	ErrAllIterationsFailed = errors.New("core: all sampling iterations failed to fit")
	// ErrDegenerateStatistics means the two-sample test could not produce
	// a verdict (e.g. both forecast-difference windows empty after
	// dropping non-finite values).
	ErrDegenerateStatistics = errors.New("core: degenerate statistics input")
	// ErrIndexMismatch means the study series and control panel are on
	// different time grids.
	ErrIndexMismatch = errors.New("core: study and control indexes differ")
	// ErrNoData means a series provider had no data for an element.
	ErrNoData = errors.New("core: no data for element")
)

// Deprecated aliases: the pre-taxonomy names, kept so existing
// errors.Is call sites keep matching. They are the same error values.
var (
	// ErrControlTooSmall is the deprecated alias of ErrInsufficientControls.
	ErrControlTooSmall = ErrInsufficientControls
	// ErrWindowTooShort is the deprecated alias of ErrShortWindow.
	ErrWindowTooShort = ErrShortWindow
)

// Reason is the machine-readable degradation code carried by a Failure —
// the wire-format form of the error taxonomy. Stable strings: they appear
// in assessment documents and job payloads.
type Reason string

// Degradation reasons.
const (
	ReasonInsufficientControls Reason = "insufficient-controls"
	ReasonShortWindow          Reason = "short-window"
	ReasonRankDeficient        Reason = "rank-deficient"
	ReasonAllIterationsFailed  Reason = "all-iterations-failed"
	ReasonDegenerateStatistics Reason = "degenerate-statistics"
	ReasonIndexMismatch        Reason = "index-mismatch"
	ReasonNoData               Reason = "no-data"
	ReasonCanceled             Reason = "canceled"
	ReasonPanic                Reason = "panic"
	ReasonUnknown              Reason = "unknown"
)

// ReasonOf classifies err into its degradation reason. Unrecognized
// errors (including nil) map to ReasonUnknown — the caller should treat
// those as potential bugs, not expected degradation.
func ReasonOf(err error) Reason {
	switch {
	case err == nil:
		return ReasonUnknown
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ReasonCanceled
	case errors.Is(err, ErrInsufficientControls):
		return ReasonInsufficientControls
	case errors.Is(err, ErrShortWindow), errors.Is(err, stats.ErrSampleTooSmall):
		return ReasonShortWindow
	case errors.Is(err, ErrRankDeficient), errors.Is(err, linalg.ErrSingular):
		return ReasonRankDeficient
	case errors.Is(err, ErrAllIterationsFailed):
		return ReasonAllIterationsFailed
	case errors.Is(err, ErrDegenerateStatistics), errors.Is(err, stats.ErrDegenerate):
		return ReasonDegenerateStatistics
	case errors.Is(err, ErrIndexMismatch):
		return ReasonIndexMismatch
	case errors.Is(err, ErrNoData):
		return ReasonNoData
	default:
		return ReasonUnknown
	}
}

// IsDegradation reports whether err is an expected data-caused failure —
// one the engine degrades through rather than a bug or a cancellation.
func IsDegradation(err error) bool {
	switch ReasonOf(err) {
	case ReasonUnknown, ReasonCanceled, ReasonPanic:
		return false
	default:
		return true
	}
}

// Failure records one isolated degradation inside an otherwise
// successful assessment: which element (or the whole group, when Element
// is empty) could not be assessed, and why. Failures are deterministic —
// the same inputs produce the same failures in the same order.
type Failure struct {
	// Element is the study or control element that failed; empty for a
	// group-level failure.
	Element string
	// Reason is the machine-readable degradation code.
	Reason Reason
	// Detail is the underlying error text, for humans.
	Detail string
}

func (f Failure) String() string {
	if f.Element == "" {
		return fmt.Sprintf("%s: %s", f.Reason, f.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", f.Element, f.Reason, f.Detail)
}

// failureOf builds the Failure record for one element's error.
func failureOf(element string, err error) Failure {
	return Failure{Element: element, Reason: ReasonOf(err), Detail: err.Error()}
}
