// Package control implements Litmus' domain-knowledge-guided control
// group selection (CoNEXT'13 §3.3): predicates over element attributes —
// geographic (zip code, distance), topological (shared upstream
// elements), configuration (software version, vendor, model), terrain and
// traffic profile — composable into uni- or multi-variate selection
// rules, plus a Selector that applies them while excluding the change's
// causal impact scope.
package control

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Predicate decides whether a candidate element is an acceptable control
// for a study element.
type Predicate interface {
	// Name identifies the predicate in reports.
	Name() string
	// Matches reports whether candidate can control for study.
	Matches(study, candidate *netsim.Element) bool
}

// predicateFunc adapts a function to the Predicate interface.
type predicateFunc struct {
	name string
	fn   func(study, candidate *netsim.Element) bool
}

func (p predicateFunc) Name() string { return p.name }
func (p predicateFunc) Matches(s, c *netsim.Element) bool {
	return p.fn(s, c)
}

// NewPredicate builds a Predicate from a name and a match function.
func NewPredicate(name string, fn func(study, candidate *netsim.Element) bool) Predicate {
	return predicateFunc{name: name, fn: fn}
}

// SameKind requires the candidate to be the same element kind (NodeB with
// NodeB, RNC with RNC) — implicit in all of the paper's selections.
func SameKind() Predicate {
	return NewPredicate("same-kind", func(s, c *netsim.Element) bool { return s.Kind == c.Kind })
}

// SameTech requires the same radio access technology.
func SameTech() Predicate {
	return NewPredicate("same-technology", func(s, c *netsim.Element) bool { return s.Tech == c.Tech })
}

// SameZip requires the candidate to share the study element's zip code —
// the paper's geographic predicate for LTE (§4.2).
func SameZip() Predicate {
	return NewPredicate("same-zip", func(s, c *netsim.Element) bool { return s.ZipCode == c.ZipCode })
}

// SameRegion requires the same geographic region — the coarse predicate
// that keeps external factors (foliage, storms) common between groups.
func SameRegion() Predicate {
	return NewPredicate("same-region", func(s, c *netsim.Element) bool { return s.Region == c.Region })
}

// WithinKm requires the candidate within the given great-circle distance.
func WithinKm(radius float64) Predicate {
	return NewPredicate(fmt.Sprintf("within-%.0fkm", radius), func(s, c *netsim.Element) bool {
		return netsim.DistanceKm(s.Location, c.Location) <= radius
	})
}

// SameParent requires a shared direct upstream element — the paper's
// topological predicate (NodeBs under the same RNC, §4.2).
func SameParent() Predicate {
	return NewPredicate("same-parent", func(s, c *netsim.Element) bool {
		return s.Parent != "" && s.Parent == c.Parent
	})
}

// SameSoftware requires matching software versions (paper §3.3 example:
// upstream RNCs with same OS).
func SameSoftware() Predicate {
	return NewPredicate("same-software", func(s, c *netsim.Element) bool {
		return s.Config.SoftwareVersion == c.Config.SoftwareVersion
	})
}

// SameVendor requires matching equipment vendors.
func SameVendor() Predicate {
	return NewPredicate("same-vendor", func(s, c *netsim.Element) bool {
		return s.Config.Vendor == c.Config.Vendor
	})
}

// SameModel requires matching equipment models.
func SameModel() Predicate {
	return NewPredicate("same-model", func(s, c *netsim.Element) bool {
		return s.Config.EquipmentModel == c.Config.EquipmentModel
	})
}

// SameTerrain requires matching terrain classes (paper attribute 4).
func SameTerrain() Predicate {
	return NewPredicate("same-terrain", func(s, c *netsim.Element) bool { return s.Terrain == c.Terrain })
}

// SameTrafficProfile requires matching traffic profiles (paper attribute
// 5) — the guard against the business-vs-lake bad-predictor problem
// (§3.2).
func SameTrafficProfile() Predicate {
	return NewPredicate("same-traffic-profile", func(s, c *netsim.Element) bool { return s.Traffic == c.Traffic })
}

// SONState requires the candidate's SON feature flag to equal enabled —
// used in the hurricane Sandy case study (§5.3) where the control group is
// the non-SON towers.
func SONState(enabled bool) Predicate {
	return NewPredicate(fmt.Sprintf("son=%t", enabled), func(_, c *netsim.Element) bool {
		return c.Config.SONEnabled == enabled
	})
}

// And composes predicates conjunctively (multi-variate predicates, §3.3).
func And(ps ...Predicate) Predicate {
	name := "and("
	for i, p := range ps {
		if i > 0 {
			name += ","
		}
		name += p.Name()
	}
	name += ")"
	return NewPredicate(name, func(s, c *netsim.Element) bool {
		for _, p := range ps {
			if !p.Matches(s, c) {
				return false
			}
		}
		return true
	})
}

// Or composes predicates disjunctively.
func Or(ps ...Predicate) Predicate {
	name := "or("
	for i, p := range ps {
		if i > 0 {
			name += ","
		}
		name += p.Name()
	}
	name += ")"
	return NewPredicate(name, func(s, c *netsim.Element) bool {
		for _, p := range ps {
			if p.Matches(s, c) {
				return true
			}
		}
		return false
	})
}

// Not inverts a predicate.
func Not(p Predicate) Predicate {
	return NewPredicate("not("+p.Name()+")", func(s, c *netsim.Element) bool {
		return !p.Matches(s, c)
	})
}

// Selector selects a control group for a study group.
type Selector struct {
	// Net is the network to draw candidates from.
	Net *netsim.Network
	// Predicate must accept a candidate for at least one study element.
	Predicate Predicate
	// Exclude lists element IDs that may not appear in the control group
	// beyond the automatic exclusions (study group and its impact scope).
	Exclude []string
	// MinSize is the smallest acceptable control group (default 4): below
	// it the robust-regression benefit is lost (§3.3).
	MinSize int
	// MaxSize caps the group (default 100, the paper's "10s-100s, not the
	// whole network"); the nearest candidates by distance to the study
	// group are kept.
	MaxSize int
	// Obs is the optional observability scope: Select records a
	// control-select span plus candidate/selected counters into it. Nil
	// (the default) costs nothing and changes nothing.
	Obs *obs.Scope
}

// DefaultMinSize and DefaultMaxSize bound control group sizes per §3.3.
const (
	DefaultMinSize = 4
	DefaultMaxSize = 100
)

// tooFewError is a selection that matched fewer candidates than it needs:
// a failure the data causes, so it wraps core.ErrInsufficientControls.
type tooFewError string

func (e tooFewError) Error() string { return string(e) }
func (tooFewError) Unwrap() error   { return core.ErrInsufficientControls }

// candidate is one matched control candidate and its mean distance to
// the study group.
type candidate struct {
	id   string
	dist float64
}

// selectScratch is one selection's working memory: the excluded set,
// the study elements, the scope walk and the matched candidates. Select
// takes it from selections and lists it again before it returns, so
// nothing it holds may reach the result.
type selectScratch struct {
	excluded map[string]bool
	study    []*netsim.Element
	walk     []string // the impact scope's IDs, then the matched ones
	cands    []candidate
	peak     int // the most excluded IDs the set has held
}

// selectListBytes bounds the list of selection scratch, one per
// concurrent selection. Measured peaks (seed 1, 8 s runs): 2,864 B (two)
// on fresh-world, shared-world and routed-mixed and 1,432 B on
// changelog-batch; a selection on the default network's predicates,
// same kind and region, holds about 15 KiB.
const selectListBytes = 64 << 10

// selections is the process-wide list of selection scratch.
var selections = freelist.New(selectListBytes, (*selectScratch).bytes)

// bytes is what the scratch weighs on the list: its slices, and its
// excluded set at about 48 B per ID it has held.
func (x *selectScratch) bytes() int {
	return int(unsafe.Sizeof(*x)) + 8*cap(x.study) + 16*cap(x.walk) +
		int(unsafe.Sizeof(candidate{}))*cap(x.cands) + 48*x.peak
}

// takeSelect returns selection scratch with an empty excluded set and
// empty slices.
func takeSelect() *selectScratch {
	x, ok := selections.Take()
	if !ok {
		return &selectScratch{excluded: make(map[string]bool)}
	}
	clear(x.excluded)
	x.study, x.walk, x.cands = x.study[:0], x.walk[:0], x.cands[:0]
	return x
}

// release lists the scratch again, first dropping the element pointers
// and IDs it holds, so the list pins no network.
func (x *selectScratch) release() {
	x.peak = max(x.peak, len(x.excluded))
	clear(x.excluded)
	clear(x.study)
	clear(x.walk)
	clear(x.cands)
	selections.Put(x)
}

// Select returns the control group for the given study element IDs. The
// result is deterministic: candidates are ordered by mean distance to the
// study group with ID tie-breaks. It returns an error wrapping
// core.ErrInsufficientControls when fewer than MinSize candidates
// qualify. Its working memory comes from a process-wide list; only the
// returned group is allocated.
func (s *Selector) Select(studyIDs []string) ([]string, error) {
	sc := s.Obs.Child(obs.SpanControlSelect)
	defer sc.End()
	if len(studyIDs) == 0 {
		return nil, fmt.Errorf("control: empty study group")
	}
	if s.Predicate == nil {
		return nil, fmt.Errorf("control: selector without predicate")
	}
	minSize := s.MinSize
	if minSize == 0 {
		minSize = DefaultMinSize
	}
	maxSize := s.MaxSize
	if maxSize == 0 {
		maxSize = DefaultMaxSize
	}

	x := takeSelect()
	defer x.release()
	excluded := x.excluded
	for _, id := range studyIDs {
		e := s.Net.Element(id)
		if e == nil {
			return nil, fmt.Errorf("control: unknown study element %q", id)
		}
		x.study = append(x.study, e)
		excluded[id] = true
		// The impact scope of a change at the study element: its subtree
		// and direct upstream chain must not serve as controls.
		x.walk = s.Net.AppendAncestors(s.Net.AppendDescendants(x.walk[:0], id), id)
		for _, d := range x.walk {
			excluded[d] = true
		}
	}
	for _, id := range s.Exclude {
		excluded[id] = true
	}

	// Matches is pure, so the first study element that accepts a
	// candidate decides; only matched candidates are priced.
	study := x.study
	x.walk = s.Net.AppendFilter(x.walk[:0], func(c *netsim.Element) bool {
		if excluded[c.ID] {
			return false
		}
		for _, se := range study {
			if s.Predicate.Matches(se, c) {
				return true
			}
		}
		return false
	})
	for _, id := range x.walk {
		loc := s.Net.MustElement(id).Location
		var dsum float64
		for _, se := range study {
			dsum += netsim.DistanceKm(se.Location, loc)
		}
		x.cands = append(x.cands, candidate{id: id, dist: dsum / float64(len(study))})
	}
	cands := x.cands
	if len(cands) < minSize {
		return nil, tooFewError(fmt.Sprintf("control: only %d candidates match %s, need >= %d", len(cands), s.Predicate.Name(), minSize))
	}
	// IDs are unique, so the order is total and the sort need not be
	// stable.
	slices.SortFunc(cands, func(a, b candidate) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	sc.SetAttr("predicate", s.Predicate.Name())
	sc.SetAttr("candidates", len(cands))
	sc.Counter(obs.MetricControlCandidates).Add(int64(len(cands)))
	if len(cands) > maxSize {
		cands = cands[:maxSize]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	sc.Counter(obs.MetricControlsSelected).Add(int64(len(out)))
	return out, nil
}
