package litmus

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/changelog"
	"repro/internal/core"
)

// fuzzStrings are the strings a fuzzed document draws from besides raw
// bytes: HTML characters, quotes and backslashes, control bytes,
// invalid UTF-8, U+2028/U+2029 and other non-ASCII text.
var fuzzStrings = []string{
	"", "CHG-1", "nb1-ne-1", "<script>&amp;</script>", `quote"back\slash`,
	"ctl\x00\x01\x1f\x7f", "\xff\xfe invalid \xc3", "line\u2028sep\u2029",
	"tab\t\n\r\b\f", "ünïcödé ↑↓", "plain text", "a<b", "a>b", "a&b",
}

// fuzzFloats are the floats a fuzzed document draws from besides raw
// bits: both sides of encoding/json's exponent thresholds (1e-6, 1e21),
// ±0, subnormals, NaN and ±Inf.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.999999e-7, -1e-7, 1.5e-300, 5e-324,
	2.2250738585072014e-308 / 3, 1e21, 9.99999e20, -1e21, 1e20, 123.456,
	0.1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-10,
}

// fuzzReader turns fuzz bytes into choices; it reads zeros once the
// bytes run out.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) n(k int) int { return int(r.byte()) % k }

func (r *fuzzReader) string() string {
	if b := r.byte(); b < 0x80 {
		return fuzzStrings[int(b)%len(fuzzStrings)]
	}
	n := r.n(16)
	if n > len(*r) {
		n = len(*r)
	}
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

func (r *fuzzReader) float() float64 {
	if b := r.byte(); b < 0x80 {
		return fuzzFloats[int(b)%len(fuzzFloats)]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = r.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// fuzzAssessment decodes a change assessment: nil, empty or listed
// controls; zero to two KPIs (out-of-range ones included) with empty or
// listed votes and no or some elements; degraded results with failures
// whose optional fields are empty or not.
func fuzzAssessment(data []byte) *ChangeAssessment {
	r := fuzzReader(data)
	res := &ChangeAssessment{Change: &changelog.Change{ID: r.string()}, Decision: Decision(r.n(4))}
	switch r.n(3) {
	case 1:
		res.ControlGroup = []string{}
	case 2:
		for i := r.n(4); i >= 0; i-- {
			res.ControlGroup = append(res.ControlGroup, r.string())
		}
	}
	if nk := r.n(3); nk > 0 {
		res.PerKPI = map[KPI]GroupResult{}
		for ; nk > 0; nk-- {
			gr := GroupResult{Overall: Impact(r.n(4)), Votes: map[Impact]int{}}
			for i := r.n(4); i > 0; i-- {
				gr.Votes[Impact(r.n(4))] = int(int8(r.byte()))
			}
			for i := r.n(3); i > 0; i-- {
				e := core.ElementResult{ElementID: r.string(), FitR2: r.float()}
				e.Impact = Impact(r.n(4))
				e.Statistic, e.P, e.Shift = r.float(), r.float(), r.float()
				gr.PerElement = append(gr.PerElement, e)
			}
			res.PerKPI[KPI(r.n(9))] = gr
		}
	}
	res.Degraded = r.n(2) == 1
	for i := r.n(3); i > 0; i-- {
		res.Failures = append(res.Failures, AssessmentFailure{
			KPI: KPI(r.n(9)), Element: r.string(), Reason: core.Reason(r.string()), Detail: r.string(),
		})
	}
	return res
}

// FuzzAppendAssessment differentially tests the reflection-free writer
// against encoding/json: AppendAssessment must append exactly the bytes
// of json.MarshalIndent(AssessmentToDoc(res), "", "  "), or fail with
// its error text and leave dst as it was.
func FuzzAppendAssessment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		res := fuzzAssessment(data)
		want, wantErr := json.MarshalIndent(AssessmentToDoc(res), "", "  ")
		prefix := []byte("prefix")
		got, gotErr := AppendAssessment(prefix, res)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, want %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("a failed append left %q, want %q", got, prefix)
			}
			return
		}
		if !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("document differs from encoding/json's.\ngot:\n%s\nwant:\n%s", got[len(prefix):], want)
		}
	})
}
