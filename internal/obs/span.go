package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed node of a trace tree. Spans are created through
// Scope.Child and closed by Scope.End; readers use the exported
// accessors after the run. A span may be written to (children appended,
// attrs set) from multiple goroutines.
type Span struct {
	// Name is the stage name (one of the Span* constants for engine
	// stages).
	Name string
	// Start is the creation time.
	Start time.Time

	mu       sync.Mutex
	finish   time.Time
	attrs    []Attr
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

func (s *Span) startChild(name string) *Span {
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

func (s *Span) end() time.Duration {
	now := time.Now()
	s.mu.Lock()
	if s.finish.IsZero() {
		s.finish = now
	}
	d := s.finish.Sub(s.Start)
	s.mu.Unlock()
	return d
}

func (s *Span) setAttr(key string, value any) {
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Duration returns the span's duration; for a still-open span it is the
// time elapsed so far.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finish.IsZero() {
		return time.Since(s.Start)
	}
	return s.finish.Sub(s.Start)
}

// Children returns a snapshot of the span's direct children.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Attrs returns a snapshot of the span's annotations.
func (s *Span) Attrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// WriteJSON writes the span's subtree as an indented JSON trace
// document, rendered from a frozen copy (see Freeze).
func (s *Span) WriteJSON(w io.Writer) error {
	return s.Freeze().WriteJSON(w)
}

// flameNode aggregates same-named sibling spans for the text summary.
type flameNode struct {
	name     string
	count    int
	total    time.Duration
	children []*flameNode
	index    map[string]*flameNode
}

func (n *flameNode) child(name string) *flameNode {
	if n.index == nil {
		n.index = map[string]*flameNode{}
	}
	if c, ok := n.index[name]; ok {
		return c
	}
	c := &flameNode{name: name}
	n.index[name] = c
	n.children = append(n.children, c)
	return c
}

func mergeFlame(dst *flameNode, s *Span) {
	dst.count++
	dst.total += s.Duration()
	for _, c := range s.Children() {
		mergeFlame(dst.child(c.Name), c)
	}
}

// WriteFlame writes a flame-style text summary of the span's subtree:
// same-named siblings merged (×count), one line per stage with its total
// duration and share of the root. Children are ordered by total
// duration, heaviest first.
func (s *Span) WriteFlame(w io.Writer) error {
	root := &flameNode{name: s.Name}
	mergeFlame(root, s)
	return writeFlameNode(w, root, 0, root.total)
}

func writeFlameNode(w io.Writer, n *flameNode, depth int, rootTotal time.Duration) error {
	label := n.name
	if n.count > 1 {
		label = fmt.Sprintf("%s ×%d", n.name, n.count)
	}
	pct := 100.0
	if rootTotal > 0 {
		pct = 100 * float64(n.total) / float64(rootTotal)
	}
	if _, err := fmt.Fprintf(w, "%-*s%-*s %12s %6.1f%%\n",
		2*depth, "", 46-2*depth, label, n.total.Round(time.Microsecond), pct); err != nil {
		return err
	}
	kids := append([]*flameNode(nil), n.children...)
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].total != kids[j].total {
			return kids[i].total > kids[j].total
		}
		return kids[i].name < kids[j].name
	})
	for _, c := range kids {
		if err := writeFlameNode(w, c, depth+1, rootTotal); err != nil {
			return err
		}
	}
	return nil
}

// StageStat aggregates every span of one name within a trace.
type StageStat struct {
	// Name is the stage (span) name.
	Name string
	// Count is how many spans carried the name.
	Count int
	// Total, Min and Max summarize their durations. Total can exceed the
	// root duration when same-named spans ran concurrently.
	Total, Min, Max time.Duration
}

// Mean returns the mean duration per span.
func (st StageStat) Mean() time.Duration {
	if st.Count == 0 {
		return 0
	}
	return st.Total / time.Duration(st.Count)
}

// StageStats aggregates the whole subtree by span name, ordered by total
// duration descending (name ascending on ties). The root span itself is
// included.
func StageStats(root *Span) []StageStat {
	acc := map[string]*StageStat{}
	var order []string
	var walk func(s *Span)
	walk = func(s *Span) {
		d := s.Duration()
		st, ok := acc[s.Name]
		if !ok {
			st = &StageStat{Name: s.Name, Min: d, Max: d}
			acc[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.Total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	out := make([]StageStat, 0, len(order))
	for _, name := range order {
		out = append(out, *acc[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return strings.Compare(out[i].Name, out[j].Name) < 0
	})
	return out
}

// Coverage returns the fraction of the span's duration covered by its
// direct children (their summed durations over the span's own, capped at
// 1 — concurrent children can oversum). It is the self-check behind the
// "stage durations sum to ≥90% of wall time" instrumentation goal: low
// coverage at a node means an unattributed gap in the taxonomy.
func Coverage(s *Span) float64 {
	total := s.Duration()
	if total <= 0 {
		return 0
	}
	var sum time.Duration
	for _, c := range s.Children() {
		sum += c.Duration()
	}
	cov := float64(sum) / float64(total)
	if cov > 1 {
		cov = 1
	}
	return cov
}
