package seedmix

import (
	"hash/fnv"
	"testing"
)

// TestSplitMix64KnownValues pins the finalizer to the published
// reference stream: seeded at 0, SplitMix64 emits 0xE220A8397B1DCDAF
// then 0x6E789E6AA1B965F4.
func TestSplitMix64KnownValues(t *testing.T) {
	const gamma = 0x9E3779B97F4A7C15
	if got := SplitMix64(0); got != 0xE220A8397B1DCDAF {
		t.Errorf("SplitMix64(0) = %#x, want 0xE220A8397B1DCDAF", got)
	}
	if got := SplitMix64(gamma); got != 0x6E789E6AA1B965F4 {
		t.Errorf("SplitMix64(gamma) = %#x, want 0x6E789E6AA1B965F4", got)
	}
}

func TestFNV64aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "missing", "nb1-ne-1", "10.0.0.1:8080"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := FNV64a(s), h.Sum64(); got != want {
			t.Errorf("FNV64a(%q) = %#x, want %#x", s, got, want)
		}
	}
}
