package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed node of a finished trace tree: an immutable copy
// taken from a trace store (Scope.Span), the form a finished serve job
// keeps for its trace. The tree is one preorder slice of fixed-size
// nodes plus one slice of all their attrs, shared by every Span of the
// tree, so a copy costs three allocations however many spans it holds,
// and readers need no lock. Attr values are shared with the recording,
// not copied.
type Span struct {
	// Name is the stage name (one of the Span* constants for engine
	// stages).
	Name string
	// root is the tree root's start with the monotonic reading stripped:
	// root.Add(offset) formats exactly as the recorded start did.
	root  time.Time
	i     int32
	nodes []frozenNode
	attrs []Attr
}

// frozenNode is one span of a frozen tree (48 bytes). Node i's subtree
// is nodes[i:end], so its children are i+1, nodes[i+1].end, ... up to
// end.
type frozenNode struct {
	name string
	// start is the wall-clock offset from the root's start, dur the
	// span's duration, both in nanoseconds.
	start, dur int64
	// attrLo and attrHi bound the span's attrs in Span.attrs.
	attrLo, attrHi int32
	end            int32
}

// Duration returns the span's duration; a span still open when the tree
// was copied reports its age at the copy.
func (s *Span) Duration() time.Duration { return time.Duration(s.nodes[s.i].dur) }

// Children returns the span's direct children, in creation order.
func (s *Span) Children() []*Span {
	var out []*Span
	for c := s.i + 1; c < s.nodes[s.i].end; c = s.nodes[c].end {
		out = append(out, &Span{Name: s.nodes[c].name, root: s.root, i: c, nodes: s.nodes, attrs: s.attrs})
	}
	return out
}

// Attrs returns the span's annotations in the order they were set, a
// repeated key once per setting.
func (s *Span) Attrs() []Attr {
	n := &s.nodes[s.i]
	return append([]Attr(nil), s.attrs[n.attrLo:n.attrHi]...)
}

// spanJSON is the export schema of one trace node.
type spanJSON struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []spanJSON     `json:"children,omitempty"`
}

// WriteJSON writes the span's subtree as an indented JSON trace
// document: per span its name, start, durationMs, attrs (the last value
// of a repeated key wins) and children.
func (s *Span) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.toJSON(s.i))
}

func (s *Span) toJSON(i int32) spanJSON {
	n := &s.nodes[i]
	out := spanJSON{
		Name:       n.name,
		Start:      s.root.Add(time.Duration(n.start)),
		DurationMs: float64(n.dur) / float64(time.Millisecond),
	}
	if n.attrHi > n.attrLo {
		out.Attrs = make(map[string]any, n.attrHi-n.attrLo)
		for _, a := range s.attrs[n.attrLo:n.attrHi] {
			out.Attrs[a.Key] = a.Value
		}
	}
	for c := i + 1; c < n.end; c = s.nodes[c].end {
		out.Children = append(out.Children, s.toJSON(c))
	}
	return out
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
