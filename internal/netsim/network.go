package netsim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/seedmix"
)

// Network is a collection of elements with parent/child adjacency — the
// topological structure the paper infers from daily configuration
// snapshots (§2.2) and uses for control-group selection (§3.3).
//
// Elements sit in insertion order, which every scan follows; first, last
// and next link each position to its first and last child and to its
// next sibling (-1 for none), in insertion order. index maps an ID to its
// position: an open-addressed table, a power of two at least twice the
// element count, holding position + 1 (0 for an empty slot) and probed
// linearly from the mixed FNV-1a hash of the ID.
//
// A built network shares its index and links with every network Build
// makes of the same shape (their layout, see Build); they are read-only
// while shared, and Add gives the network its own copy first.
type Network struct {
	elems             []*Element
	index             []int32
	first, last, next []int32
	shared            bool // index and links belong to a layout
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return newNetwork(0) }

// newNetwork returns an empty network sized for size elements.
func newNetwork(size int) *Network {
	return &Network{
		elems: make([]*Element, 0, size),
		index: make([]int32, indexSize(size)),
		first: make([]int32, 0, size),
		last:  make([]int32, 0, size),
		next:  make([]int32, 0, size),
	}
}

// indexSize returns the index table size for size elements: the least
// power of two of at least 2·size slots, and at least 8.
func indexSize(size int) int {
	slots := 8
	for slots < 2*size {
		slots *= 2
	}
	return slots
}

// Add inserts an element. It panics on a duplicate ID or (for non-root
// elements) an unknown parent, both of which indicate broken topology
// construction. On a network that shares its layout, it first copies the
// index and links, so no other network sees the element.
func (n *Network) Add(e *Element) {
	if e.ID == "" {
		panic("netsim: element with empty ID")
	}
	if n.shared {
		n.index, n.first, n.last, n.next = slices.Clone(n.index), slices.Clone(n.first), slices.Clone(n.last), slices.Clone(n.next)
		n.shared = false
	}
	if 2*(len(n.elems)+1) > len(n.index) {
		n.rehash(indexSize(len(n.elems) + 1))
	}
	slot := n.slot(e.ID)
	if n.index[slot] != 0 {
		panic(fmt.Sprintf("netsim: duplicate element ID %q", e.ID))
	}
	parent := int32(-1)
	if e.Parent != "" {
		if parent = n.lookup(e.Parent); parent < 0 {
			panic(fmt.Sprintf("netsim: element %q references unknown parent %q", e.ID, e.Parent))
		}
	}
	pos := int32(len(n.elems))
	n.index[slot] = pos + 1
	n.elems = append(n.elems, e)
	n.first = append(n.first, -1)
	n.last = append(n.last, -1)
	n.next = append(n.next, -1)
	if parent >= 0 {
		if tail := n.last[parent]; tail >= 0 {
			n.next[tail] = pos
		} else {
			n.first[parent] = pos
		}
		n.last[parent] = pos
	}
}

// rehash rebuilds the index with the given number of slots.
func (n *Network) rehash(slots int) {
	n.index = make([]int32, slots)
	for pos, e := range n.elems {
		n.index[n.slot(e.ID)] = int32(pos) + 1
	}
}

// slot returns the index slot of id: the slot holding it, or the empty
// slot where it would go. The table always has an empty slot.
func (n *Network) slot(id string) int {
	mask := uint64(len(n.index) - 1)
	for i := seedmix.SplitMix64(seedmix.FNV64a(id)) & mask; ; i = (i + 1) & mask {
		if p := n.index[i]; p == 0 || n.elems[p-1].ID == id {
			return int(i)
		}
	}
}

// lookup returns the position of id, or -1 if absent.
func (n *Network) lookup(id string) int32 {
	return n.index[n.slot(id)] - 1
}

// Element returns the element with the given ID, or nil if absent.
func (n *Network) Element(id string) *Element {
	if pos := n.lookup(id); pos >= 0 {
		return n.elems[pos]
	}
	return nil
}

// MustElement returns the element with the given ID, panicking if absent.
func (n *Network) MustElement(id string) *Element {
	e := n.Element(id)
	if e == nil {
		panic(fmt.Sprintf("netsim: unknown element %q", id))
	}
	return e
}

// Len returns the number of elements.
func (n *Network) Len() int { return len(n.elems) }

// IDs returns all element IDs in insertion order. The slice is a copy.
func (n *Network) IDs() []string {
	out := make([]string, len(n.elems))
	for i, e := range n.elems {
		out[i] = e.ID
	}
	return out
}

// firstChild returns the position of pos's first child, or -1 when pos
// is absent (-1) or childless.
func (n *Network) firstChild(pos int32) int32 {
	if pos < 0 {
		return -1
	}
	return n.first[pos]
}

// Children returns the IDs of the direct children of id, in insertion
// order. The slice is a copy.
func (n *Network) Children(id string) []string {
	pos := n.lookup(id)
	kids := 0
	for c := n.firstChild(pos); c >= 0; c = n.next[c] {
		kids++
	}
	out := make([]string, 0, kids)
	for c := n.firstChild(pos); c >= 0; c = n.next[c] {
		out = append(out, n.elems[c].ID)
	}
	return out
}

// Descendants returns all transitive children of id, in breadth-first
// order — the "causal impact scope" of a change at an upstream element
// (paper §2.2).
func (n *Network) Descendants(id string) []string { return n.AppendDescendants(nil, id) }

// AppendDescendants appends the IDs of all transitive children of id to
// dst, in breadth-first order, and returns the extended slice. The
// appended IDs are the walk's queue: each is looked up again to visit
// its children.
func (n *Network) AppendDescendants(dst []string, id string) []string {
	// A child is added after its parent, so the links are acyclic.
	start := len(dst)
	for c := n.firstChild(n.lookup(id)); c >= 0; c = n.next[c] {
		dst = append(dst, n.elems[c].ID)
	}
	for i := start; i < len(dst); i++ {
		for c := n.firstChild(n.lookup(dst[i])); c >= 0; c = n.next[c] {
			dst = append(dst, n.elems[c].ID)
		}
	}
	return dst
}

// Ancestors returns the chain of parents of id from nearest to root.
func (n *Network) Ancestors(id string) []string { return n.AppendAncestors(nil, id) }

// AppendAncestors appends the chain of parents of id, nearest first, to
// dst and returns the extended slice.
func (n *Network) AppendAncestors(dst []string, id string) []string {
	e := n.Element(id)
	for e != nil && e.Parent != "" {
		dst = append(dst, e.Parent)
		e = n.Element(e.Parent)
	}
	return dst
}

// OfKind returns the IDs of all elements of the given kind, in insertion
// order.
func (n *Network) OfKind(k Kind) []string {
	return n.Filter(func(e *Element) bool { return e.Kind == k })
}

// InRegion returns the IDs of all elements in the given region, in
// insertion order.
func (n *Network) InRegion(r Region) []string {
	return n.Filter(func(e *Element) bool { return e.Region == r })
}

// Filter returns the IDs of elements satisfying pred, in insertion order.
func (n *Network) Filter(pred func(*Element) bool) []string { return n.AppendFilter(nil, pred) }

// AppendFilter appends the IDs of elements satisfying pred, in
// insertion order, to dst and returns the extended slice.
func (n *Network) AppendFilter(dst []string, pred func(*Element) bool) []string {
	for _, e := range n.elems {
		if pred(e) {
			dst = append(dst, e.ID)
		}
	}
	return dst
}

// WithinKm returns the IDs of elements within radius km of the given
// element (excluding itself), ordered by ascending distance with ID
// tie-break.
func (n *Network) WithinKm(id string, radius float64) []string {
	center := n.MustElement(id)
	type cand struct {
		id string
		d  float64
	}
	var cands []cand
	for _, e := range n.elems {
		if e.ID == id {
			continue
		}
		d := DistanceKm(center.Location, e.Location)
		if d <= radius {
			cands = append(cands, cand{e.ID, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// Siblings returns the IDs of elements sharing id's parent (excluding id
// itself) — e.g. NodeBs under the same RNC, the paper's topological
// control-group predicate for GSM/UMTS (§4.2).
func (n *Network) Siblings(id string) []string {
	e := n.MustElement(id)
	if e.Parent == "" {
		return nil
	}
	var out []string
	for c := n.firstChild(n.lookup(e.Parent)); c >= 0; c = n.next[c] {
		if kid := n.elems[c].ID; kid != id {
			out = append(out, kid)
		}
	}
	return out
}

// CouplingWeights models shared-load interference around a change at id:
// for every sibling (the topological control-group predicate), the
// fraction of the change's latent quality effect that bleeds into that
// sibling through shared congestion — users and traffic displaced by the
// change redistribute onto nearby co-parented towers, so a study-group
// injection leaks into exactly the elements the control regression
// treats as independent ("Unbiased Experiments in Congested Networks":
// interference makes the control group absorb part of the treatment).
//
// strength is the fraction received by a hypothetical zero-distance
// sibling; the fraction decays gently with geographic distance on the
// scale of twice the mean sibling distance, w = strength · d0/(d0+d)
// with d0 = 2·mean — towers sharing an RNC also share backhaul and
// overlapping coverage, so even the far siblings keep most of the
// coupling. Weights are clamped to [0, 1] and the result is
// deterministic in the topology. Siblings at unknown coordinates
// (mean distance 0) all receive the full clamped strength.
func (n *Network) CouplingWeights(id string, strength float64) map[string]float64 {
	sibs := n.Siblings(id)
	if len(sibs) == 0 || strength == 0 {
		return nil
	}
	if strength < 0 {
		strength = 0
	}
	if strength > 1 {
		strength = 1
	}
	center := n.MustElement(id)
	dists := make([]float64, len(sibs))
	var mean float64
	for i, sid := range sibs {
		dists[i] = DistanceKm(center.Location, n.Element(sid).Location)
		mean += dists[i]
	}
	mean /= float64(len(sibs))
	out := make(map[string]float64, len(sibs))
	for i, sid := range sibs {
		w := strength
		if mean > 0 {
			d0 := 2 * mean
			w = strength * d0 / (d0 + dists[i])
		}
		out[sid] = w
	}
	return out
}

// SameZip returns the IDs of same-kind elements sharing id's zip code
// (excluding id) — the paper's geographic predicate for LTE (§4.2).
func (n *Network) SameZip(id string) []string {
	e := n.MustElement(id)
	var out []string
	for _, oe := range n.elems {
		if oe.ID != id && oe.ZipCode == e.ZipCode && oe.Kind == e.Kind {
			out = append(out, oe.ID)
		}
	}
	return out
}

// Validate checks structural invariants: every parent exists, no cycles,
// towers parent to controllers, controllers to core elements. It returns
// a descriptive error on the first violation.
func (n *Network) Validate() error {
	for i, e := range n.elems {
		if e.Parent == "" {
			continue
		}
		p := n.Element(e.Parent)
		if p == nil {
			return fmt.Errorf("netsim: element %q has unknown parent %q", e.ID, e.Parent)
		}
		switch {
		case e.Kind == NodeB || e.Kind == BTS:
			if !p.Kind.IsController() {
				return fmt.Errorf("netsim: tower %q parented to non-controller %q (%s)", e.ID, p.ID, p.Kind)
			}
		case e.Kind == Cell:
			if !p.Kind.IsTower() {
				return fmt.Errorf("netsim: cell %q parented to non-tower %q (%s)", e.ID, p.ID, p.Kind)
			}
		case e.Kind == RNC || e.Kind == BSC || e.Kind == ENodeB:
			if !p.Kind.IsCore() {
				return fmt.Errorf("netsim: controller %q parented to non-core %q (%s)", e.ID, p.ID, p.Kind)
			}
		}
		if c := n.cycleEntry(int32(i)); c >= 0 {
			return fmt.Errorf("netsim: parent cycle involving %q", n.elems[c].ID)
		}
	}
	return nil
}

// cycleEntry returns the first position the ancestor walk from pos
// reaches twice, or -1 when the walk ends at a root or an unknown parent.
// It is Floyd's cycle finding, so no walk allocates a visited set.
func (n *Network) cycleEntry(pos int32) int32 {
	up := func(p int32) int32 { return n.lookup(n.elems[p].Parent) }
	slow, fast := pos, pos
	for {
		if fast = up(fast); fast < 0 {
			return -1
		}
		if fast = up(fast); fast < 0 {
			return -1
		}
		if slow = up(slow); slow == fast {
			break
		}
	}
	// The walk from pos and the one from the meeting point reach the
	// cycle's entry together.
	for slow = pos; slow != fast; slow, fast = up(slow), up(fast) {
	}
	return slow
}
