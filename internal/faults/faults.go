// Package faults is the deterministic fault-injection harness of the
// chaos test suite and the -faults CLI flag: composable injectors that
// corrupt KPI series and control panels the way production telemetry
// breaks — missing timepoints, NaN gaps, counter resets, outlier
// spikes, duplicated (collinear) control columns, dropped and
// short-history control elements.
//
// Determinism contract: injection follows the engine's own discipline.
// Every (kind, element) pair draws from a private generator seeded by a
// splitmix64 mix of (Seed, kind, FNV-64a(element id)) — never from
// shared state — so a fault set is a pure function of (spec, seed,
// rate): the same triple corrupts the same points of the same elements
// regardless of application order, worker count, or how many other
// elements exist. That is what lets the chaos suite assert bit-identical
// faulted output across worker counts.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/seedmix"
	"repro/internal/timeseries"
)

// Kind names one injector. The string values are the spec vocabulary of
// Parse and the -faults flag.
type Kind string

// The injector vocabulary.
const (
	// Missing NaNs out one contiguous run of timepoints (sensor outage).
	Missing Kind = "missing"
	// Gap NaNs out scattered individual timepoints (lossy collection).
	Gap Kind = "gap"
	// Spike adds large outliers at scattered timepoints.
	Spike Kind = "spike"
	// Reset drops a run of values to the series minimum (counter reset).
	Reset Kind = "reset"
	// DupCol overwrites control columns with copies of other columns —
	// exactly collinear designs (duplicated reporting).
	DupCol Kind = "dupcol"
	// DropCol removes control columns from the panel entirely.
	DropCol Kind = "dropcol"
	// ShortHist NaNs out the leading half of affected control columns
	// (elements commissioned mid-window).
	ShortHist Kind = "shorthist"
	// DropElem makes the series provider report no data for affected
	// elements (decommissioned or never-provisioned elements).
	DropElem Kind = "dropelem"
)

// allKinds is the full vocabulary in canonical (spec "all") order.
var allKinds = []Kind{Missing, Gap, Spike, Reset, DupCol, DropCol, ShortHist, DropElem}

// DefaultRate is the per-kind intensity used when neither the spec nor
// the rate argument sets one.
const DefaultRate = 0.1

// Set is an immutable, composable set of fault injectors. The zero
// value and the nil pointer are inert: every method no-ops, so callers
// thread an optional *Set without guards.
type Set struct {
	seed  int64
	rates map[Kind]float64 // enabled kinds with their intensities
}

// New returns a fault set enabling the given kinds at the given rate
// (clamped to [0, 1]; 0 means DefaultRate at Parse level, here it means
// literally zero intensity).
func New(seed int64, rate float64, kinds ...Kind) *Set {
	s := &Set{seed: seed, rates: make(map[Kind]float64, len(kinds))}
	for _, k := range kinds {
		s.rates[k] = clampRate(rate)
	}
	return s
}

// Parse builds a fault set from a spec string: a comma-separated list
// of injector names, each optionally carrying its own intensity as
// name=rate — e.g. "gap=0.2,spike,dupcol". The name "all" enables every
// injector. rate is the default intensity for entries without their
// own; rate 0 means DefaultRate. An empty spec returns nil (no faults).
func Parse(spec string, seed int64, rate float64) (*Set, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	if rate == 0 {
		rate = DefaultRate
	}
	if rate < 0 || rate > 1 || math.IsNaN(rate) {
		return nil, fmt.Errorf("faults: rate %v outside [0, 1]", rate)
	}
	s := &Set{seed: seed, rates: make(map[Kind]float64)}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rateStr, hasRate := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		r := rate
		if hasRate {
			v, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad rate in %q: %v", entry, err)
			}
			if v < 0 || v > 1 || math.IsNaN(v) {
				return nil, fmt.Errorf("faults: rate %v in %q outside [0, 1]", v, entry)
			}
			r = v
		}
		if name == "all" {
			for _, k := range allKinds {
				s.rates[k] = r
			}
			continue
		}
		k := Kind(name)
		if !validKind(k) {
			return nil, fmt.Errorf("faults: unknown injector %q (want %s or all)", name, kindList())
		}
		s.rates[k] = r
	}
	if len(s.rates) == 0 {
		return nil, nil
	}
	return s, nil
}

func validKind(k Kind) bool {
	for _, v := range allKinds {
		if v == k {
			return true
		}
	}
	return false
}

func kindList() string {
	names := make([]string, len(allKinds))
	for i, k := range allKinds {
		names[i] = string(k)
	}
	return strings.Join(names, ", ")
}

func clampRate(r float64) float64 {
	if math.IsNaN(r) || r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Derive returns a copy of the set whose seed is derived from (seed, n)
// with the engine's SplitMix64 finalizer (internal/seedmix) — the per-case derivation the
// evaluation harness uses so consecutive cases draw independent fault
// streams while the whole sweep stays a pure function of the base seed.
// Deriving from a nil set returns nil.
func (s *Set) Derive(n uint64) *Set {
	if s == nil {
		return nil
	}
	z := seedmix.SplitMix64(seedmix.SplitMix64(uint64(s.seed)) ^ seedmix.SplitMix64(n))
	return &Set{seed: int64(z &^ (1 << 63)), rates: s.rates}
}

// Rate returns the configured intensity of kind (0 when disabled or nil).
func (s *Set) Rate(k Kind) float64 {
	if s == nil {
		return 0
	}
	return s.rates[k]
}

// Active reports whether the set injects anything; false for nil.
func (s *Set) Active() bool { return s != nil && len(s.rates) > 0 }

// Kinds returns the enabled injectors in canonical order.
func (s *Set) Kinds() []Kind {
	if s == nil {
		return nil
	}
	out := make([]Kind, 0, len(s.rates))
	for _, k := range allKinds {
		if _, ok := s.rates[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

// Drawn reports whether the injector's selection draw fires for the
// element — the same draw Series/Panel/DropsElement consult, exposed so
// evaluation harnesses can attribute damage to the injector that caused
// it. True means the element was selected for corruption; the realized
// damage can still be a no-op in edge cases (e.g. dupcol with a single
// surviving column).
func (s *Set) Drawn(kind Kind, id string) bool {
	if s == nil {
		return false
	}
	return s.affected(kind, id)
}

// DrawnKinds returns, in canonical order, the enabled injectors whose
// selection draw fires for at least one of the given element IDs — the
// damage profile of a case whose observed world consists of those
// elements.
func (s *Set) DrawnKinds(ids []string) []Kind {
	if !s.Active() {
		return nil
	}
	var out []Kind
	for _, k := range s.Kinds() {
		for _, id := range ids {
			if s.affected(k, id) {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// String renders the set back into spec form (canonical kind order,
// per-kind rates).
func (s *Set) String() string {
	if !s.Active() {
		return ""
	}
	parts := make([]string, 0, len(s.rates))
	for _, k := range s.Kinds() {
		parts = append(parts, fmt.Sprintf("%s=%g", k, s.rates[k]))
	}
	return strings.Join(parts, ",")
}

// rng returns the private generator for (kind, id) — the determinism
// contract of the package.
func (s *Set) rng(kind Kind, id string) *rand.Rand {
	z := seedmix.SplitMix64(seedmix.SplitMix64(uint64(s.seed)) ^ seedmix.SplitMix64(seedmix.FNV64a(string(kind))) ^ seedmix.SplitMix64(seedmix.FNV64a(id)))
	return rand.New(rand.NewSource(int64(z &^ (1 << 63))))
}

// affected reports whether (kind, id) is hit at all — true with
// probability rate, drawn from a stream disjoint from the corruption
// draws so intensity and selection stay independent.
func (s *Set) affected(kind Kind, id string) bool {
	r, ok := s.rates[kind]
	if !ok || r == 0 {
		return false
	}
	return s.rng(kind, "select\x00"+id).Float64() < r
}

// DropsElement reports whether the DropElem injector removes the
// element from the provider's view entirely.
func (s *Set) DropsElement(id string) bool {
	if s == nil {
		return false
	}
	return s.affected(DropElem, id)
}

// Series returns a faulted copy of the series for element id, applying
// the enabled value-level injectors (missing, gap, spike, reset). The
// input is never mutated; with no applicable injector the input is
// returned unchanged (same backing array).
func (s *Set) Series(id string, sr timeseries.Series) timeseries.Series {
	if s == nil {
		return sr
	}
	values := sr.Values
	copied := false
	mutable := func() []float64 {
		if !copied {
			values = append([]float64(nil), values...)
			copied = true
		}
		return values
	}
	n := len(values)
	if n == 0 {
		return sr
	}
	if s.affected(Missing, id) {
		v := mutable()
		rng := s.rng(Missing, id)
		run := runLength(s.rates[Missing], n)
		start := rng.Intn(n - run + 1)
		for i := start; i < start+run; i++ {
			v[i] = math.NaN()
		}
	}
	if s.affected(Gap, id) {
		v := mutable()
		rng := s.rng(Gap, id)
		rate := s.rates[Gap]
		for i := range v {
			if rng.Float64() < rate {
				v[i] = math.NaN()
			}
		}
	}
	if s.affected(Spike, id) {
		v := mutable()
		rng := s.rng(Spike, id)
		scale := spikeScale(v)
		count := 1 + int(s.rates[Spike]*float64(n)/4)
		for c := 0; c < count; c++ {
			i := rng.Intn(n)
			sign := 1.0
			if rng.Float64() < 0.5 {
				sign = -1
			}
			if !math.IsNaN(v[i]) {
				v[i] += sign * 8 * scale
			}
		}
	}
	if s.affected(Reset, id) {
		v := mutable()
		rng := s.rng(Reset, id)
		run := runLength(s.rates[Reset], n)
		start := rng.Intn(n - run + 1)
		floor := finiteMin(v)
		for i := start; i < start+run; i++ {
			if !math.IsNaN(v[i]) {
				v[i] = floor
			}
		}
	}
	if !copied {
		return sr
	}
	return timeseries.NewSeries(sr.Index, values)
}

// Panel returns a faulted copy of a control panel: drops columns
// (dropcol), applies the value-level injectors per surviving column,
// NaNs out leading halves (shorthist), and finally overwrites dupcol
// targets with exact copies of other surviving columns — last, so the
// duplicates are exactly collinear. Element IDs are preserved (dupcol
// keeps the victim's id with the donor's values). The input panel is
// never mutated. A panel can lose every column; callers degrade.
func (s *Set) Panel(p *timeseries.Panel) *timeseries.Panel {
	if s == nil || !s.Active() || p == nil {
		return p
	}
	// kept[i] names the surviving column cols[i].
	kept := make([]string, 0, p.Len())
	cols := make([][]float64, 0, p.Len())
	for j := 0; j < p.Len(); j++ {
		id, col := p.Column(j)
		if s.affected(DropCol, id) {
			continue
		}
		v := s.Series(id, col).Values
		if s.affected(ShortHist, id) {
			v = append([]float64(nil), v...)
			for i := 0; i < len(v)/2; i++ {
				v[i] = math.NaN()
			}
		}
		kept = append(kept, id)
		cols = append(cols, v)
	}
	// Duplicate columns deterministically: each affected victim copies
	// the donor chosen by its private stream from the other kept columns.
	for i, id := range kept {
		if len(kept) < 2 || !s.affected(DupCol, id) {
			continue
		}
		rng := s.rng(DupCol, id)
		donor := rng.Intn(len(kept))
		for donor == i {
			donor = rng.Intn(len(kept))
		}
		cols[i] = cols[donor]
	}
	out := timeseries.NewPanel(p.Index())
	out.Grow(len(kept))
	for i, id := range kept {
		out.Add(id, timeseries.NewSeries(p.Index(), cols[i]))
	}
	return out
}

// runLength converts an intensity into a contiguous corruption run on
// an n-point series: at least one point, at most the whole series.
func runLength(rate float64, n int) int {
	run := int(math.Ceil(rate * float64(n)))
	if run < 1 {
		run = 1
	}
	if run > n {
		run = n
	}
	return run
}

// spikeScale is the magnitude unit of injected outliers: the standard
// deviation of the finite values, or 1 for constant/empty input.
func spikeScale(v []float64) float64 {
	var sum, sumsq float64
	var n int
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		sum += x
		sumsq += x * x
		n++
	}
	if n < 2 {
		return 1
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if variance <= 0 {
		return 1
	}
	return math.Sqrt(variance)
}

// finiteMin returns the smallest finite value (0 if none) — the floor a
// counter reset collapses to.
func finiteMin(v []float64) float64 {
	min, ok := 0.0, false
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if !ok || x < min {
			min, ok = x, true
		}
	}
	return min
}

// KindNames returns the full injector vocabulary, for CLI usage text.
func KindNames() []string {
	names := make([]string, len(allKinds))
	for i, k := range allKinds {
		names[i] = string(k)
	}
	sort.Strings(names)
	return names
}
