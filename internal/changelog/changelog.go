// Package changelog models the network change-management log the paper
// consumes (§2.2): typed change records locating what changed, where and
// when, the engineering teams' expected impact, and — because this is a
// simulation with exact ground truth — the true injected effect.
package changelog

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
)

// Type classifies a network change (paper §2.2–2.3).
type Type int

// Change types.
const (
	ConfigChange Type = iota // parameter tuning: timers, thresholds, power, tilt
	SoftwareUpgrade
	FeatureActivation // e.g. SON features, new UE types
	TopologyChange    // re-homes of network equipment
	HardwareUpgrade
	TrafficMove // traffic movements across data centers
)

func (t Type) String() string {
	names := [...]string{"config-change", "software-upgrade", "feature-activation", "topology-change", "hardware-upgrade", "traffic-move"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType is the inverse of Type.String, so change records carried as
// text (tickets, service requests) round-trip back into typed values.
func ParseType(s string) (Type, error) {
	for t := ConfigChange; t <= TrafficMove; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("changelog: unknown change type %q", s)
}

// Frequency classifies how often a parameter is changed (paper §2.3).
type Frequency int

// Change frequencies: high-frequency parameters (antenna tilt, power) are
// tuned dynamically; low-frequency "gold standard" parameters change with
// major software releases and follow one-value-fits-all rules.
const (
	HighFrequency Frequency = iota
	LowFrequency
)

func (f Frequency) String() string {
	if f == HighFrequency {
		return "high-frequency"
	}
	return "low-frequency"
}

// Change is one entry of the change management log.
type Change struct {
	// ID is a unique change ticket identifier.
	ID string
	// Type and Frequency classify the change.
	Type      Type
	Frequency Frequency
	// Description is free-form ticket text.
	Description string
	// Elements are the study-group element IDs the change is applied to.
	Elements []string
	// At is the change execution time.
	At time.Time
	// PropagateToDescendants marks changes whose impact scope includes the
	// subtree below each element (e.g. an RNC software upgrade improving
	// its NodeBs, paper Fig. 6).
	PropagateToDescendants bool
	// Expected is the engineering teams' expected impact per KPI.
	Expected map[kpi.KPI]kpi.Impact
	// TrueQuality is the ground-truth latent quality shift the change
	// actually induces (generator stress units; 0 = no real effect).
	TrueQuality float64
	// TrueLoadMult is the ground-truth load multiplier (0 = unchanged).
	TrueLoadMult float64
}

// Validate checks the change against the network: elements must exist,
// each listed once, and the change must carry an ID and timestamp.
func (c *Change) Validate(net *netsim.Network) error {
	if c.ID == "" {
		return fmt.Errorf("changelog: change without ID")
	}
	if c.At.IsZero() {
		return fmt.Errorf("changelog: change %s without timestamp", c.ID)
	}
	if len(c.Elements) == 0 {
		return fmt.Errorf("changelog: change %s with empty study group", c.ID)
	}
	for i, id := range c.Elements {
		if net.Element(id) == nil {
			return fmt.Errorf("changelog: change %s references unknown element %q", c.ID, id)
		}
		if slices.Contains(c.Elements[:i], id) {
			return fmt.Errorf("changelog: change %s lists element %q twice", c.ID, id)
		}
	}
	return nil
}

// ImpactScope returns the element IDs whose KPIs the change can causally
// affect: the study elements plus, for propagating changes, their
// descendants (paper §2.2: "causal impact scope").
func (c *Change) ImpactScope(net *netsim.Network) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range c.Elements {
		add(id)
		if c.PropagateToDescendants {
			for _, d := range net.Descendants(id) {
				add(d)
			}
		}
	}
	return out
}

// Effect converts the change's ground truth into a generator effect over
// its impact scope. Changes with no real effect (TrueQuality == 0 and no
// load change) return a zero-quality effect that the generator ignores
// numerically but that keeps provenance explicit.
func (c *Change) Effect(net *netsim.Network) gen.Effect {
	scope := c.ImpactScope(net)
	set := make(map[string]bool, len(scope))
	for _, id := range scope {
		set[id] = true
	}
	return gen.Effect{
		Label:    c.ID,
		Elements: set,
		Start:    c.At,
		Quality:  c.TrueQuality,
		LoadMult: c.TrueLoadMult,
	}
}

// Log is an append-only, time-ordered collection of changes.
type Log struct {
	changes []*Change
	byID    map[string]*Change
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{byID: make(map[string]*Change)}
}

// Add validates and appends a change. Duplicate IDs are rejected.
func (l *Log) Add(net *netsim.Network, c *Change) error {
	if err := c.Validate(net); err != nil {
		return err
	}
	if _, dup := l.byID[c.ID]; dup {
		return fmt.Errorf("changelog: duplicate change ID %q", c.ID)
	}
	l.byID[c.ID] = c
	l.changes = append(l.changes, c)
	sort.SliceStable(l.changes, func(i, j int) bool { return l.changes[i].At.Before(l.changes[j].At) })
	return nil
}

// Len returns the number of changes.
func (l *Log) Len() int { return len(l.changes) }

// ByID returns the change with the given ID, or nil.
func (l *Log) ByID(id string) *Change { return l.byID[id] }

// All returns the changes in time order. The slice is a copy; the changes
// are shared.
func (l *Log) All() []*Change {
	out := make([]*Change, len(l.changes))
	copy(out, l.changes)
	return out
}

// InWindow returns changes with At in [from, to).
func (l *Log) InWindow(from, to time.Time) []*Change {
	var out []*Change
	for _, c := range l.changes {
		if !c.At.Before(from) && c.At.Before(to) {
			out = append(out, c)
		}
	}
	return out
}

// TouchingElement returns changes whose impact scope includes id — used to
// screen control-group candidates for overlapping maintenance activity.
func (l *Log) TouchingElement(net *netsim.Network, id string) []*Change {
	var out []*Change
	for _, c := range l.changes {
		for _, sid := range c.ImpactScope(net) {
			if sid == id {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// Effects converts every change in the log into generator effects.
func (l *Log) Effects(net *netsim.Network) []gen.Effect {
	out := make([]gen.Effect, 0, len(l.changes))
	for _, c := range l.changes {
		out = append(out, c.Effect(net))
	}
	return out
}
