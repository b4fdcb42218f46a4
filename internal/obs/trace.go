package obs

import (
	"math/bits"
	"sync"
	"time"
	"unsafe"
)

// now is the trace clock; tests set it to record deterministic trees.
var now = time.Now

// A trace store keeps its spans and its attrs in chunks that are never
// copied or moved: the first two hold firstLen entries each, each later
// one twice as many as the one before it up to chunkLen, and every one
// from there on chunkLen (16, 16, 32, 64, 128, 128, ...). A fresh store
// so allocates about what a short trace holds, and a long one grows 128
// entries at a time.
const (
	firstShift = 4
	firstLen   = 1 << firstShift
	chunkShift = 7
	chunkLen   = 1 << chunkShift
	// smallChunks counts the chunks shorter than chunkLen.
	smallChunks = chunkShift - firstShift + 1
)

// locate returns the chunk holding entry i of a store and i's offset in
// it.
func locate(i int32) (k, off int32) {
	switch {
	case i < firstLen:
		return 0, i
	case i < chunkLen:
		k = int32(bits.Len32(uint32(i))) - firstShift
		return k, i - 1<<(k+firstShift-1)
	}
	return i>>chunkShift + smallChunks - 1, i & (chunkLen - 1)
}

// grow returns chunks with room for entry i, the entry after the last
// one in use: a new chunk when the last one is full.
func grow[T any](chunks [][]T, i int32) [][]T {
	if k, _ := locate(i); int(k) == len(chunks) {
		n := chunkLen
		if k < smallChunks {
			n = firstLen << max(k-1, 0)
		}
		chunks = append(chunks, make([]T, n))
	}
	return chunks
}

// retainBytes bounds the chunks a Recorder keeps across Start: a trace
// that grew its store beyond it leaves the next one to start from
// empty, so one outsized trace does not pin its memory.
const retainBytes = 512 << 10

// node is one span of a trace store (64 bytes). Links are node indices,
// 0 meaning none: node 0 is the root, which is no span's child or
// sibling.
type node struct {
	name string
	// wall is the start's wall-clock offset from the trace's start and
	// mono its monotonic offset, in nanoseconds; dur is the duration,
	// -1 while the span is open.
	wall, mono, dur int64
	// child and last are the first and last child, next the next
	// sibling: children in creation order.
	child, last, next int32
	// attr and lastAttr are the first and last attr, indices into the
	// attr store, 0 meaning none (attr 0 is never used).
	attr, lastAttr int32
}

// attr is one annotation of a trace store, linked to its span's next.
type attr struct {
	key   string
	value any
	next  int32
}

// trace is the flat store one recording writes into: its spans and
// attrs in chunks, addressed by index, under one mutex.
// gen counts the recordings the store has held; a Scope carries the gen
// it was made in and is a no-op once the store has moved on.
type trace struct {
	mu    sync.Mutex
	gen   uint32
	start time.Time // the root's start, monotonic reading kept
	wall0 int64     // start.UnixNano()
	nodes [][]node
	attrs [][]attr
	n, na int32 // nodes and attrs in use; na counts the unused attr 0
}

func (t *trace) node(i int32) *node {
	k, off := locate(i)
	return &t.nodes[k][off]
}

func (t *trace) attr(i int32) *attr {
	k, off := locate(i)
	return &t.attrs[k][off]
}

// bytes returns the size of the chunks the store holds.
func (t *trace) bytes() int {
	n := 0
	for _, c := range t.nodes {
		n += len(c) * int(unsafe.Sizeof(node{}))
	}
	for _, c := range t.attrs {
		n += len(c) * int(unsafe.Sizeof(attr{}))
	}
	return n
}

// reset starts a new recording whose root span is named name, started
// at start: a new generation, the attr values of the last one cleared
// (a reused chunk keeps no value alive), and the chunks dropped when
// they outgrew retainBytes.
func (t *trace) reset(name string, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	if t.bytes() > retainBytes {
		t.nodes, t.attrs = nil, nil
	} else {
		for i := int32(1); i < t.na; i++ {
			*t.attr(i) = attr{}
		}
	}
	t.start, t.wall0 = start, start.UnixNano()
	t.n, t.na = 0, 1
	t.newNode(name, start)
}

// newNode appends an open span named name, started at start, and
// returns its index. Callers hold t.mu.
func (t *trace) newNode(name string, start time.Time) int32 {
	i := t.n
	t.nodes = grow(t.nodes, i)
	t.n++
	*t.node(i) = node{name: name, wall: start.UnixNano() - t.wall0, mono: int64(start.Sub(t.start)), dur: -1}
	return i
}

// child appends a span named name as the last child of span i and
// returns its index; ok is false when gen is not the store's.
func (t *trace) child(i int32, gen uint32, name string) (c int32, ok bool) {
	start := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.gen {
		return 0, false
	}
	c = t.newNode(name, start)
	if p := t.node(i); p.last != 0 {
		t.node(p.last).next = c
		p.last = c
	} else {
		p.child, p.last = c, c
	}
	return c, true
}

// end closes span i unless it is closed already, and returns its name
// and duration; ok is false when gen is not the store's.
func (t *trace) end(i int32, gen uint32) (name string, d time.Duration, ok bool) {
	finish := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.gen {
		return "", 0, false
	}
	n := t.node(i)
	if n.dur < 0 {
		n.dur = int64(finish.Sub(t.start)) - n.mono
	}
	return n.name, time.Duration(n.dur), true
}

// setAttr appends an annotation to span i, unless gen is not the
// store's.
func (t *trace) setAttr(i int32, gen uint32, key string, value any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.gen {
		return
	}
	a := t.na
	t.attrs = grow(t.attrs, a)
	t.na++
	*t.attr(a) = attr{key: key, value: value}
	if n := t.node(i); n.lastAttr != 0 {
		t.attr(n.lastAttr).next = a
		n.lastAttr = a
	} else {
		n.attr, n.lastAttr = a, a
	}
}

// freeze returns the frozen copy of span i's subtree, allocated at its
// exact size, or nil when gen is not the store's. A span still open
// reports its age at the call.
func (t *trace) freeze(i int32, gen uint32) *Span {
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.gen {
		return nil
	}
	nodes, attrs := t.count(i)
	root := t.node(i)
	s := &Span{
		Name:  root.name,
		root:  t.start.Round(0).Add(time.Duration(root.wall)),
		nodes: make([]frozenNode, 0, nodes),
		attrs: make([]Attr, 0, attrs),
	}
	t.copyTo(s, i, root.wall, int64(at.Sub(t.start)))
	return s
}

// count returns the number of spans and attrs in span i's subtree.
func (t *trace) count(i int32) (nodes, attrs int) {
	n := t.node(i)
	nodes = 1
	for a := n.attr; a != 0; a = t.attr(a).next {
		attrs++
	}
	for c := n.child; c != 0; c = t.node(c).next {
		cn, ca := t.count(c)
		nodes += cn
		attrs += ca
	}
	return nodes, attrs
}

// copyTo appends span i's subtree to s in preorder, start offsets from
// wall0; at is the monotonic offset that closes the spans still open.
func (t *trace) copyTo(s *Span, i int32, wall0, at int64) {
	n := t.node(i)
	dur := n.dur
	if dur < 0 {
		dur = at - n.mono
	}
	k := len(s.nodes)
	s.nodes = append(s.nodes, frozenNode{name: n.name, start: n.wall - wall0, dur: dur, attrLo: int32(len(s.attrs))})
	for a := n.attr; a != 0; a = t.attr(a).next {
		ap := t.attr(a)
		s.attrs = append(s.attrs, Attr{Key: ap.key, Value: ap.value})
	}
	s.nodes[k].attrHi = int32(len(s.attrs))
	for c := n.child; c != 0; c = t.node(c).next {
		t.copyTo(s, c, wall0, at)
	}
	s.nodes[k].end = int32(len(s.nodes))
}
