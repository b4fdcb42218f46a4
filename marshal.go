package litmus

// Canonical JSON serialization of a ChangeAssessment. This is the wire
// format of the assessment service (internal/serve) and the format of
// the committed golden fixture (testdata/golden_assessment.json): KPIs
// sorted by name, floats at shortest round-trip precision, so two
// serializations are byte-equal iff every statistic, p-value and shift
// is bit-identical. Treat any change here as a wire-format break — the
// golden test and the service's cache-hit contract both pin it.

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// AssessmentElementDoc is one study element's row in the canonical
// assessment document.
type AssessmentElementDoc struct {
	ID        string  `json:"id"`
	Impact    string  `json:"impact"`
	Statistic float64 `json:"statistic"`
	P         float64 `json:"p"`
	Shift     float64 `json:"shift"`
	FitR2     float64 `json:"fitR2"`
}

// AssessmentGroupDoc is one KPI's voted group result in the canonical
// assessment document.
type AssessmentGroupDoc struct {
	KPI      string                 `json:"kpi"`
	Overall  string                 `json:"overall"`
	Votes    map[string]int         `json:"votes"`
	Elements []AssessmentElementDoc `json:"elements"`
}

// AssessmentFailureDoc is one isolated degradation in the canonical
// assessment document: the KPI (empty only for future non-KPI scopes),
// the element when the failure is element-scoped, and the
// machine-readable reason (a core.Reason string).
type AssessmentFailureDoc struct {
	KPI     string `json:"kpi,omitempty"`
	Element string `json:"element,omitempty"`
	Reason  string `json:"reason"`
	Detail  string `json:"detail,omitempty"`
}

// AssessmentDoc is the canonical JSON document for one ChangeAssessment.
// Degraded and Failures are omitted on clean runs, so documents from
// healthy data are byte-identical to the pre-degradation format.
type AssessmentDoc struct {
	ChangeID string                 `json:"changeID"`
	Decision string                 `json:"decision"`
	Controls []string               `json:"controls"`
	PerKPI   []AssessmentGroupDoc   `json:"perKPI"`
	Degraded bool                   `json:"degraded,omitempty"`
	Failures []AssessmentFailureDoc `json:"failures,omitempty"`
}

// AssessmentToDoc converts a ChangeAssessment into its canonical
// document form (KPIs sorted by name; element order preserved).
func AssessmentToDoc(res *ChangeAssessment) AssessmentDoc {
	doc := AssessmentDoc{
		ChangeID: res.Change.ID,
		Decision: res.Decision.String(),
		Controls: res.ControlGroup,
	}
	kpis := make([]KPI, 0, len(res.PerKPI))
	for k := range res.PerKPI {
		kpis = append(kpis, k)
	}
	sort.Slice(kpis, func(i, j int) bool { return kpis[i].String() < kpis[j].String() })
	for _, k := range kpis {
		gr := res.PerKPI[k]
		g := AssessmentGroupDoc{KPI: k.String(), Overall: gr.Overall.String(), Votes: map[string]int{}}
		for imp, n := range gr.Votes {
			g.Votes[imp.String()] = n
		}
		for _, e := range gr.PerElement {
			g.Elements = append(g.Elements, AssessmentElementDoc{
				ID: e.ElementID, Impact: e.Impact.String(),
				Statistic: e.Statistic, P: e.P, Shift: e.Shift, FitR2: e.FitR2,
			})
		}
		doc.PerKPI = append(doc.PerKPI, g)
	}
	doc.Degraded = res.Degraded
	for _, f := range res.Failures {
		doc.Failures = append(doc.Failures, AssessmentFailureDoc{
			KPI: f.KPI.String(), Element: f.Element,
			Reason: string(f.Reason), Detail: f.Detail,
		})
	}
	return doc
}

// MarshalAssessment renders the canonical, deterministic JSON document
// for a ChangeAssessment (two-space indented, no trailing newline):
// json.MarshalIndent(AssessmentToDoc(res), "", "  ").
func MarshalAssessment(res *ChangeAssessment) ([]byte, error) {
	return AppendAssessment(nil, res)
}

// AppendAssessment appends the canonical document of res to dst: the
// bytes MarshalAssessment returns, written without reflection or an
// intermediate document, so a caller that reuses dst allocates nothing
// for it. A non-finite statistic fails with encoding/json's error and
// returns dst unchanged. FuzzAppendAssessment pins it to
// json.MarshalIndent(AssessmentToDoc(res), "", "  ").
func AppendAssessment(dst []byte, res *ChangeAssessment) ([]byte, error) {
	start := len(dst)
	dst = append(dst, "{\n  \"changeID\": "...)
	dst = appendString(dst, res.Change.ID)
	dst = append(dst, ",\n  \"decision\": "...)
	dst = appendString(dst, res.Decision.String())
	dst = append(dst, ",\n  \"controls\": "...)
	switch {
	case res.ControlGroup == nil:
		dst = append(dst, "null"...)
	case len(res.ControlGroup) == 0:
		dst = append(dst, "[]"...)
	default:
		for i, id := range res.ControlGroup {
			dst = appendItem(dst, i, "\n    ")
			dst = appendString(dst, id)
		}
		dst = append(dst, "\n  ]"...)
	}
	dst = append(dst, ",\n  \"perKPI\": "...)
	if len(res.PerKPI) == 0 {
		dst = append(dst, "null"...)
	} else {
		var room [16]KPI
		kpis := room[:0]
		for k := range res.PerKPI {
			kpis = append(kpis, k)
		}
		slices.SortFunc(kpis, func(a, b KPI) int { return strings.Compare(a.String(), b.String()) })
		for i, k := range kpis {
			dst = appendItem(dst, i, "\n    {")
			var err error
			if dst, err = appendGroup(dst, k, res.PerKPI[k]); err != nil {
				return dst[:start], err
			}
			dst = append(dst, "\n    }"...)
		}
		dst = append(dst, "\n  ]"...)
	}
	if res.Degraded {
		dst = append(dst, ",\n  \"degraded\": true"...)
	}
	if len(res.Failures) > 0 {
		dst = append(dst, ",\n  \"failures\": "...)
	}
	for i, f := range res.Failures {
		dst = appendItem(dst, i, "\n    {")
		n := 0
		if kpi := f.KPI.String(); kpi != "" {
			dst = appendKey(dst, n, "\n      \"kpi\": ")
			dst = appendString(dst, kpi)
			n++
		}
		if f.Element != "" {
			dst = appendKey(dst, n, "\n      \"element\": ")
			dst = appendString(dst, f.Element)
			n++
		}
		dst = appendKey(dst, n, "\n      \"reason\": ")
		dst = appendString(dst, string(f.Reason))
		if f.Detail != "" {
			dst = append(dst, ",\n      \"detail\": "...)
			dst = appendString(dst, f.Detail)
		}
		dst = append(dst, "\n    }"...)
	}
	if len(res.Failures) > 0 {
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}"...), nil
}

// appendGroup appends the fields of KPI k's group document, indented
// inside the perKPI array.
func appendGroup(dst []byte, k KPI, gr GroupResult) ([]byte, error) {
	dst = append(dst, "\n      \"kpi\": "...)
	dst = appendString(dst, k.String())
	dst = append(dst, ",\n      \"overall\": "...)
	dst = appendString(dst, gr.Overall.String())
	dst = append(dst, ",\n      \"votes\": "...)
	if len(gr.Votes) == 0 {
		dst = append(dst, "{}"...)
	} else {
		var room [8]Impact
		imps := room[:0]
		for imp := range gr.Votes {
			imps = append(imps, imp)
		}
		slices.SortFunc(imps, func(a, b Impact) int { return strings.Compare(a.String(), b.String()) })
		dst = append(dst, '{')
		for i, imp := range imps {
			dst = appendKey(dst, i, "\n        ")
			dst = appendString(dst, imp.String())
			dst = append(dst, ": "...)
			dst = strconv.AppendInt(dst, int64(gr.Votes[imp]), 10)
		}
		dst = append(dst, "\n      }"...)
	}
	dst = append(dst, ",\n      \"elements\": "...)
	if len(gr.PerElement) == 0 {
		return append(dst, "null"...), nil
	}
	for i := range gr.PerElement {
		e := &gr.PerElement[i]
		dst = appendItem(dst, i, "\n        {\n          \"id\": ")
		dst = appendString(dst, e.ElementID)
		dst = append(dst, ",\n          \"impact\": "...)
		dst = appendString(dst, e.Impact.String())
		var err error
		for _, f := range [...]struct {
			key string
			v   float64
		}{
			{",\n          \"statistic\": ", e.Statistic},
			{",\n          \"p\": ", e.P},
			{",\n          \"shift\": ", e.Shift},
			{",\n          \"fitR2\": ", e.FitR2},
		} {
			dst = append(dst, f.key...)
			if dst, err = appendFloat(dst, f.v); err != nil {
				return dst, err
			}
		}
		dst = append(dst, "\n        }"...)
	}
	return append(dst, "\n      ]"...), nil
}

// appendItem opens array item i: the array's bracket before the first
// item, a comma between items, then the item's indented opening.
func appendItem(dst []byte, i int, open string) []byte {
	if i == 0 {
		dst = append(dst, '[')
	} else {
		dst = append(dst, ',')
	}
	return append(dst, open...)
}

// appendKey opens an object's field after n earlier fields: a comma
// between fields, then the field's indented opening.
func appendKey(dst []byte, n int, key string) []byte {
	if n > 0 {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it: HTML characters, control bytes, invalid UTF-8, U+2028 and
// U+2029. A string of printable ASCII other than quote, backslash, '<',
// '>' and '&' needs no escape and is copied; any other string goes
// through json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent unpadded (1e-7, not 1e-07).
// NaN and ±Inf fail with encoding/json's error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
