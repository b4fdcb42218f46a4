// Package seedmix holds the two hash primitives every deterministic
// random stream of the repository derives its seed from: the SplitMix64
// finalizer and 64-bit FNV-1a. The engine's sampling iterations, the
// data-fault injectors and the network-fault proxies all key their
// generators through it. It imports nothing from the repository, so the
// fault injectors stay independent of the engine they break.
//
// It also keeps the process-wide free list of math/rand generators that
// the world build and series synthesis draw from (TakeRand, PutRand).
package seedmix

import (
	"math/rand"
	"runtime"
)

// SplitMix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014): a
// bijective avalanche mix whose output stream passes BigCrush. It is the
// standard generator for deriving independent streams from a key.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// FNV64a is the 64-bit FNV-1a hash of s, which folds a string identity
// (an element, a fault kind, a link endpoint) into a stream key.
func FNV64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// rands is the process-wide free list of generators. A math/rand source
// is about 4.9 KiB, and a network build and every series draw need one
// only for the length of their draws; the list lets them reuse sources
// instead of allocating one each. It is a buffered channel, not a
// sync.Pool: garbage collection empties a pool, and the race detector
// drops a quarter of its Puts, so a pool would make what a draw
// allocates depend on the collector. Four per P: a draw holds its
// generator only while it runs, so about one per P is out at a time and
// the rest covers draws descheduled mid-way, while a burst of
// concurrent draws leaves at most 4·P sources (about 20 KiB per P)
// resident once it is over.
var rands = make(chan *rand.Rand, 4*runtime.GOMAXPROCS(0))

// TakeRand returns a generator from the free list, or a new one when
// the list is empty. Its state is whatever its last user left: the
// caller seeds it before drawing (Rand.Seed rebuilds exactly the state
// rand.NewSource builds) and hands it back with PutRand.
func TakeRand() *rand.Rand {
	select {
	case r := <-rands:
		return r
	default:
		return rand.New(rand.NewSource(0))
	}
}

// PutRand returns r to the free list, or drops it when the list is
// full. The caller must not use r afterwards.
func PutRand(r *rand.Rand) {
	select {
	case rands <- r:
	default:
	}
}
