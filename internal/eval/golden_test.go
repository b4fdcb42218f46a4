package eval

// Determinism golden test for the synthetic harness: a small fixed-seed
// RunSynthetic serializes to a committed fixture byte for byte, at any
// worker count. Any change to the (Seed, iteration) RNG-derivation
// contract — a reordered scenario, an extra draw, a changed default —
// shows up as a fixture diff at review time. Regenerate after an
// *intentional* contract change with:
//
//	go test ./internal/eval -run TestSyntheticGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenCase is the fixture form of one CaseResult, fixed field order.
type goldenCase struct {
	Scenario string            `json:"scenario"`
	Region   string            `json:"region"`
	KPI      string            `json:"kpi"`
	Expected string            `json:"expected"`
	Observed map[string]string `json:"observed,omitempty"`
	Outcomes map[string]string `json:"outcomes,omitempty"`
	Failures map[string]string `json:"failures,omitempty"`
}

type goldenDoc struct {
	Seed     int64              `json:"seed"`
	Cases    []goldenCase       `json:"cases"`
	Matrices map[string]*Matrix `json:"matrices"`
}

func goldenConfig() SyntheticConfig {
	cfg := DefaultSyntheticConfig().WithAdversarialCases().ScaleCases(0.004)
	cfg.Seed = 7
	return cfg
}

func goldenRun(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := goldenConfig()
	cfg.Assessor.Workers = workers
	res, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := goldenDoc{Seed: cfg.Seed, Matrices: map[string]*Matrix{}}
	for _, alg := range Algorithms() {
		doc.Matrices[alg.String()] = res.Matrices[alg]
	}
	for _, c := range res.Cases {
		gc := goldenCase{
			Scenario: c.Scenario.String(),
			Region:   c.Region.String(),
			KPI:      c.KPI.String(),
			Expected: c.Expected.String(),
		}
		for alg, imp := range c.Observed {
			if gc.Observed == nil {
				gc.Observed = map[string]string{}
			}
			gc.Observed[alg.String()] = imp.String()
		}
		for alg, o := range c.Outcomes {
			if gc.Outcomes == nil {
				gc.Outcomes = map[string]string{}
			}
			gc.Outcomes[alg.String()] = o.String()
		}
		for alg, f := range c.Failures {
			if gc.Failures == nil {
				gc.Failures = map[string]string{}
			}
			gc.Failures[alg.String()] = string(f.Reason)
		}
		doc.Cases = append(doc.Cases, gc)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestSyntheticGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_synthetic.json")
	got := goldenRun(t, 0)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("synthetic run deviates from the committed golden fixture — the seeding contract changed.\nIf intentional, regenerate with `go test ./internal/eval -run TestSyntheticGolden -update`.")
	}
}

// TestSyntheticGoldenWorkerInvariant re-runs the golden world at worker
// counts 1, 2, 4 and 8 and requires byte-identical serialization.
func TestSyntheticGoldenWorkerInvariant(t *testing.T) {
	want := goldenRun(t, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := goldenRun(t, workers); !bytes.Equal(got, want) {
			t.Errorf("golden run at %d workers differs from 1 worker", workers)
		}
	}
}
