package stats

// Fuzz target for the two-sample rank tests on arbitrary finite float
// slices — ties, constants, tiny and lopsided samples. The contract:
// never panic; on success the statistic is finite and the p-value is a
// probability.

import (
	"encoding/binary"
	"math"
	"testing"
)

// floatsFromBytes decodes data into two finite float slices: the first
// byte fixes the split, the rest becomes float64s (non-finite bit
// patterns are folded into large-but-finite values so the harness
// exercises the tests' numerics rather than input validation).
func floatsFromBytes(data []byte) (x, y []float64) {
	if len(data) == 0 {
		return nil, nil
	}
	split := int(data[0])
	data = data[1:]
	var all []float64
	for len(data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
		if math.IsNaN(v) {
			v = 0
		}
		if math.IsInf(v, 0) || math.Abs(v) > 1e300 {
			v = math.Copysign(1e300, v)
		}
		all = append(all, v)
	}
	if len(all) == 0 {
		return nil, nil
	}
	k := split % (len(all) + 1)
	return all[:k], all[k:]
}

func checkResult(t *testing.T, name string, r TestResult, err error, x, y []float64) {
	t.Helper()
	if err != nil {
		return
	}
	if math.IsNaN(r.Statistic) || math.IsInf(r.Statistic, 0) {
		t.Fatalf("%s(%v, %v): non-finite statistic %v", name, x, y, r.Statistic)
	}
	if math.IsNaN(r.P) || r.P < 0 || r.P > 1 {
		t.Fatalf("%s(%v, %v): p = %v outside [0,1]", name, x, y, r.P)
	}
	if r.N1 != len(x) || r.N2 != len(y) {
		t.Fatalf("%s: sample sizes (%d,%d), want (%d,%d)", name, r.N1, r.N2, len(x), len(y))
	}
}

// fpFuzzSeeds is FuzzFlignerPolicello's seed corpus as (x, y) pairs;
// TestPoolFlignerPolicelloMatchesPlacements checks each against the
// placement-array reference too.
var fpFuzzSeeds = [][2][]float64{
	{{1, 2, 3}, {4, 5, 6}},             // clean shift
	{{1, 1, 1}, {1, 1, 1}},             // identical constants
	{{1, 1, 1}, {2, 2, 2}},             // disjoint constants
	{{1, 2, 2, 3}, {2, 2, 2, 4}},       // heavy ties
	{{1, 2}, {3, 4, 5}},                // below minimum size
	{{-1e300, 0, 1e300}, {0, 0, 0}},    // extreme scale
	{{0.1, 0.2, 0.3, 0.4, 0.5}, {0.3}}, // lopsided
}

func FuzzFlignerPolicello(f *testing.F) {
	seed := func(x, y []float64) []byte {
		buf := []byte{byte(len(x))}
		for _, v := range append(append([]float64(nil), x...), y...) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			buf = append(buf, b[:]...)
		}
		return buf
	}
	for _, s := range fpFuzzSeeds {
		f.Add(seed(s[0], s[1]))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		x, y := floatsFromBytes(data)
		r, err := FlignerPolicello(x, y)
		checkResult(t, "FlignerPolicello", r, err, x, y)
		// Exercise Mann–Whitney on the same corpus: the two rank tests
		// share the never-panic / valid-p contract.
		r, err = MannWhitney(x, y)
		checkResult(t, "MannWhitney", r, err, x, y)
	})
}
