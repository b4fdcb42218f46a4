package core

// Iteration-level resilience of the sampling loop. A drawn control
// sample can be unusable — rank deficient past what the ridge fallback
// absorbs (e.g. injected zero or duplicated columns conspiring with the
// regularizer) — and before this existed the iteration was silently
// skipped. Now the solver degrades through a fixed chain (QR → minimally
// regularized ridge → collinear-column pruning) and, if the design is
// still unusable, the iteration redraws its control sample up to
// maxResampleAttempts times from attempt-specific RNG streams.
//
// Determinism: redraw attempt a of iteration it seeds from
// deriveSeed(Seed, resampleStream(it, a)) — independent of workers,
// schedule, and element — so faulted runs stay bit-identical across
// worker counts. Bit-compatibility: every stage of the chain fails on a
// condition of the design matrix alone (never the right-hand side), so
// every element fitted on a design makes the accept/skip/resample
// decision it would make alone for the same draw, and clean inputs
// never reach the new stages at all.

import (
	"math/rand"

	"repro/internal/linalg"
)

// maxResampleAttempts bounds the redraws of one sampling iteration whose
// design stayed unusable through every solver fallback.
const maxResampleAttempts = 3

// resampleStream returns the RNG stream of redraw attempt (1-based) of
// iteration it. Bit 62 keeps redraw streams disjoint from the primary
// per-iteration streams (0..Iterations-1).
func resampleStream(it, attempt int) uint64 {
	return 1<<62 | uint64(attempt)<<32 | uint64(it)
}

// resampleColumns draws the replacement control sample for a redraw —
// deterministic in (Seed, it, attempt) under the same derivation
// contract as the primary draws.
func (a *Assessor) resampleColumns(n, k, it, attempt int) []int {
	rng := rand.New(rand.NewSource(deriveSeed(a.cfg.Seed, resampleStream(it, attempt))))
	return sampleColumns(rng, n, k)
}

// solveWithFallbacks solves the sampled regression with the degradation
// chain and reports whether any stage produced usable coefficients in
// beta: the factor-once QR solve, then the minimally regularized ridge
// (numerically identical to the historical fallback), then a refit with
// the collinear columns pruned (their coefficients zeroed, so forecasts
// ignore them exactly).
func solveWithFallbacks(qr *linalg.QR, x *linalg.Matrix, beta, y, work []float64) bool {
	if err := qr.SolveInto(beta, y, work); err == nil {
		return true
	}
	if b, err := linalg.SolveRidge(x, y, linalg.RidgeFallbackLambda); err == nil {
		copy(beta, b)
		return true
	}
	if b, _, err := linalg.SolvePruned(x, y); err == nil {
		copy(beta, b)
		return true
	}
	return false
}

// designUsable reports whether solveWithFallbacks can succeed on this
// design — the X-only predicate behind the chain: QR success is
// FullRank, ridge success is the Cholesky factorization of XᵀX+λd̄I,
// pruned success is the rank of the surviving columns. None depends on
// the right-hand side, so probing with a zero vector is exact. The
// factor-group kernel uses this to make the per-iteration resample
// decision once per design, identically to what every element fitted
// on it would decide alone.
func designUsable(qr *linalg.QR, x *linalg.Matrix) bool {
	if qr.FullRank() {
		return true
	}
	zero := make([]float64, x.Rows())
	if _, err := linalg.SolveRidge(x, zero, linalg.RidgeFallbackLambda); err == nil {
		return true
	}
	if _, _, err := linalg.SolvePruned(x, zero); err == nil {
		return true
	}
	return false
}
