package obs

import (
	"encoding/json"
	"io"
	"time"
)

// FrozenSpan is an immutable copy of a span tree: the form a finished
// job keeps for its trace. The tree is one preorder slice of fixed-size
// nodes plus one slice of all their attrs, so a frozen tree costs three
// allocations where the live tree costs several per span, and readers
// need no lock. It renders the same JSON as the live tree it was frozen
// from.
type FrozenSpan struct {
	// root is the root span's start with the monotonic reading stripped:
	// root.Add(offset) formats exactly as the live span's start did.
	root  time.Time
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
	// attrLo and attrHi bound the span's attrs in FrozenSpan.attrs.
	attrLo, attrHi int32
	end            int32
}

// spanJSON is the export schema of one trace node.
type spanJSON struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []spanJSON     `json:"children,omitempty"`
}

// Freeze returns an immutable copy of the span's subtree. Attr values
// are shared with the live tree, not copied. A span still open at the
// call reports its duration as of the call and keeps it; spans added to
// the live tree afterwards are not in the copy.
func (s *Span) Freeze() *FrozenSpan {
	nodes, attrs := s.count()
	f := &FrozenSpan{
		root:  s.Start.Round(0),
		nodes: make([]frozenNode, 0, nodes),
		attrs: make([]Attr, 0, attrs),
	}
	f.add(s, time.Now())
	return f
}

// snapshot returns the span's finish time and the current extent of its
// attrs and children. Both slices are append-only, so the returned
// prefixes stay valid without the lock.
func (s *Span) snapshot() (finish time.Time, attrs []Attr, children []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finish, s.attrs, s.children
}

// count returns the number of spans and attrs in the subtree.
func (s *Span) count() (nodes, attrs int) {
	_, a, kids := s.snapshot()
	nodes, attrs = 1, len(a)
	for _, c := range kids {
		n, na := c.count()
		nodes += n
		attrs += na
	}
	return nodes, attrs
}

// add appends s's subtree to f in preorder; now stands in for the
// finish time of spans still open.
func (f *FrozenSpan) add(s *Span, now time.Time) {
	finish, attrs, kids := s.snapshot()
	if finish.IsZero() {
		finish = now
	}
	i := len(f.nodes)
	f.nodes = append(f.nodes, frozenNode{
		name:   s.Name,
		start:  s.Start.UnixNano() - f.root.UnixNano(),
		dur:    int64(finish.Sub(s.Start)),
		attrLo: int32(len(f.attrs)),
		attrHi: int32(len(f.attrs) + len(attrs)),
	})
	f.attrs = append(f.attrs, attrs...)
	for _, c := range kids {
		f.add(c, now)
	}
	f.nodes[i].end = int32(len(f.nodes))
}

// WriteJSON writes the tree as an indented JSON trace document: per
// span its name, start, durationMs, attrs (the last value of a repeated
// key wins) and children.
func (f *FrozenSpan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.toJSON(0))
}

func (f *FrozenSpan) toJSON(i int) spanJSON {
	n := &f.nodes[i]
	out := spanJSON{
		Name:       n.name,
		Start:      f.root.Add(time.Duration(n.start)),
		DurationMs: float64(n.dur) / float64(time.Millisecond),
	}
	if n.attrHi > n.attrLo {
		out.Attrs = make(map[string]any, n.attrHi-n.attrLo)
		for _, a := range f.attrs[n.attrLo:n.attrHi] {
			out.Attrs[a.Key] = a.Value
		}
	}
	for c := i + 1; c < int(n.end); c = int(f.nodes[c].end) {
		out.Children = append(out.Children, f.toJSON(c))
	}
	return out
}
