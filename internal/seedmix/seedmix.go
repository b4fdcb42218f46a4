// Package seedmix holds the two hash primitives every deterministic
// random stream of the repository derives its seed from: the SplitMix64
// finalizer and 64-bit FNV-1a. The engine's sampling iterations, the
// data-fault injectors and the network-fault proxies all key their
// generators through it. It imports nothing from the repository, so the
// fault injectors stay independent of the engine they break.
package seedmix

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
