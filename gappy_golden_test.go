package litmus

// Golden pin of the pipeline on gappy telemetry: the batch world's
// changelog with missing runs and scattered gaps injected into every
// series, assessed as one batch and change by change. Studies with
// before-window gaps take the per-element fallback, so the committed
// fixture — rendered by the per-change pipeline and the per-element
// sampling loop that preceded the one-entry batch and the single
// element kernel — is an independent reference for both on the data
// they were merged for. Regenerate after an intentional contract change
// with:
//
//	go test -run TestGappyPipelineGolden -update

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/changelog"
	"repro/internal/faults"
	"repro/internal/obs"
)

// renderChangelog writes each change's canonical document, or its
// error, under a header line naming the change.
func renderChangelog(t *testing.T, changes []*changelog.Change, results []*ChangeAssessment, errs []error) []byte {
	t.Helper()
	var doc bytes.Buffer
	for i, c := range changes {
		fmt.Fprintf(&doc, "== %s\n", c.ID)
		if errs[i] != nil {
			fmt.Fprintf(&doc, "error: %v\n", errs[i])
			continue
		}
		ser, err := MarshalAssessment(results[i])
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		doc.Write(ser)
		doc.WriteByte('\n')
	}
	return doc.Bytes()
}

func TestGappyPipelineGolden(t *testing.T) {
	ctx := context.Background()
	gappy := func(p SeriesProvider) SeriesProvider {
		fset, err := faults.Parse("missing=0.3,gap=0.2", 99, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return faultyProvider(p, fset)
	}
	var docs [][]byte
	for _, workers := range []int{1, 4} {
		net, changes, provider := batchWorld()
		scope := NewScope("gappy", NewMetricsRegistry())
		batch, err := batchPipeline(workers, gappy(provider), net, scope).AssessChangelog(ctx, changes, batchKPIs, 14)
		if err != nil {
			t.Fatalf("workers=%d: AssessChangelog: %v", workers, err)
		}
		reg := scope.Registry()
		if shared, assessed := reg.Counter(obs.MetricGroupSharedElements).Value(), reg.Counter(obs.MetricElementsAssessed).Value(); shared == 0 || shared >= assessed {
			t.Fatalf("workers=%d: %d of %d elements on shared factors, want some on each path", workers, shared, assessed)
		}
		docs = append(docs, renderChangelog(t, changes, batch.Results, batch.Errors))

		net, changes, provider = batchWorld()
		p := batchPipeline(workers, gappy(provider), net, nil)
		results := make([]*ChangeAssessment, len(changes))
		errs := make([]error, len(changes))
		for i, c := range changes {
			results[i], errs[i] = p.AssessChangeContext(ctx, c, batchKPIs, 14)
		}
		docs = append(docs, renderChangelog(t, changes, results, errs))
	}

	golden := filepath.Join("testdata", "golden_gappy_pipeline.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, docs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	for i, got := range docs {
		path := [...]string{"batch", "singles"}[i%2]
		workers := [...]int{1, 4}[i/2]
		if !bytes.Equal(got, want) {
			t.Errorf("%s at workers=%d differs from %s:\ngot:\n%s\nwant:\n%s", path, workers, golden, got, want)
		}
	}
}
