package eval

// The reproduction's full-volume tables: the confusion matrices of
// Table 2 (known assessments, 313 cases) and Table 4 (synthetic
// injection, 8,010 cases) for all three algorithms, pinned by a
// committed fixture. Any change to a count is a change to what the
// reproduction claims, so the fixture changes only on purpose.
//
// Gated behind LITMUS_TABLES=1 (Table 4 alone runs for about half a
// minute on two CPUs); run via `make tables` or directly:
//
//	LITMUS_TABLES=1 go test -run TestTables ./internal/eval
//
// Regenerate after an intentional change with:
//
//	LITMUS_TABLES=1 go test ./internal/eval -run TestTables -update

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tableDoc is the fixture form of one table: its case count and each
// algorithm's confusion matrix.
type tableDoc struct {
	Cases    int                `json:"cases"`
	Matrices map[string]*Matrix `json:"matrices"`
}

func newTableDoc(cases int, matrices map[Algorithm]*Matrix) tableDoc {
	doc := tableDoc{Cases: cases, Matrices: map[string]*Matrix{}}
	for _, alg := range Algorithms() {
		doc.Matrices[alg.String()] = matrices[alg]
	}
	return doc
}

func TestTables(t *testing.T) {
	if os.Getenv("LITMUS_TABLES") == "" {
		t.Skip("full-volume tables disabled; set LITMUS_TABLES=1 (or run `make tables`)")
	}
	known, err := RunKnownAssessments(DefaultKnownConfig())
	if err != nil {
		t.Fatal(err)
	}
	synth, err := RunSynthetic(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]tableDoc{
		"table2": newTableDoc(known.TotalCases(), known.Matrices),
		"table4": newTableDoc(synth.TotalCases(), synth.Matrices),
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "tables.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Table 2 or Table 4 deviates from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
