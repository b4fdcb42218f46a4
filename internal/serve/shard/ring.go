// Package shard spreads the Litmus assessment service across N
// processes that together behave like one coherent cache. It has two
// halves: a consistent-hash Ring mapping canonical job digests to
// owning nodes (replicated virtual points over sha256, so nodes join
// and leave with minimal key movement), and a client-side Router that
// wraps the typed client, routes every submit and poll to the owner of
// the request's digest, and fails over clockwise around the ring when
// the owner is unreachable.
//
// The determinism contract makes the scheme safe with no coordination
// at all: a digest's result is bit-identical wherever it is computed,
// so the worst case of routing to the wrong node — after a failover, a
// ring change, or a stale member list — is a duplicate computation,
// never a wrong answer. Routing by digest is what upgrades N caches of
// size c into one coherent cache of size N×c: every resubmission of a
// digest lands on the same node, so no result is computed or stored
// twice.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultReplicas is the number of virtual points each node projects
// onto the ring. 128 keeps the expected per-node key share within a few
// percent of uniform for small clusters.
const DefaultReplicas = 128

// Ring is an immutable consistent-hash ring. Build with NewRing; safe
// for concurrent use.
type Ring struct {
	nodes  []string // distinct node names, insertion order
	points []uint64 // sorted virtual-point hashes
	owner  []int    // owner[i] = index into nodes owning points[i]
}

// hash64 maps a key onto the ring: the first 8 bytes of its sha256,
// big-endian. Job digests are themselves sha256 hex — rehashing keeps
// the ring independent of the digest encoding (and handles virtual
// point labels, which are not digests at all).
func hash64(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given distinct node names with
// DefaultReplicas virtual points each. Node order does not affect
// ownership — only the names themselves do.
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one node")
	}
	seen := map[string]bool{}
	r := &Ring{
		points: make([]uint64, 0, len(nodes)*DefaultReplicas),
		owner:  make([]int, 0, len(nodes)*DefaultReplicas),
	}
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("shard: duplicate node %q", n)
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	type point struct {
		h   uint64
		idx int
	}
	pts := make([]point, 0, len(nodes)*DefaultReplicas)
	for i, n := range r.nodes {
		for v := 0; v < DefaultReplicas; v++ {
			pts = append(pts, point{h: hash64(fmt.Sprintf("%s#%d", n, v)), idx: i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].h != pts[b].h {
			return pts[a].h < pts[b].h
		}
		// A full 64-bit hash collision between virtual points: break the
		// tie by node name so every ring built from these nodes agrees.
		return r.nodes[pts[a].idx] < r.nodes[pts[b].idx]
	})
	for _, p := range pts {
		r.points = append(r.points, p.h)
		r.owner = append(r.owner, p.idx)
	}
	return r, nil
}

// Nodes returns the ring's node names in insertion order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// start returns the index of the first virtual point at or clockwise of
// key's hash.
func (r *Ring) start(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node owning key: the node of the first virtual
// point clockwise of the key's hash.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.owner[r.start(key)]]
}

// Sequence returns every node in key's clockwise failover order: the
// owner first, then each remaining node in the order its first virtual
// point appears. Routing tries the sequence left to right, so a down
// owner degrades to the same deterministic substitute for every client.
func (r *Ring) Sequence(key string) []string {
	seq := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i, n := r.start(key), 0; n < len(r.points); n++ {
		idx := r.owner[i]
		if !seen[idx] {
			seen[idx] = true
			seq = append(seq, r.nodes[idx])
			if len(seq) == len(r.nodes) {
				break
			}
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return seq
}
