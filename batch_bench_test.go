package litmus

// Batch-vs-singles benchmark pair: the same changelog through
// AssessChangelog (amortized) and through per-change AssessChangeContext
// calls (the baseline); `make bench` runs both. The service path at
// changelog scale is bounded by TestBatchAmortization
// (internal/serve/client).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/gen"
	"repro/internal/netsim"
)

// benchChangelog builds n changes spread over `signatures` distinct
// (study, at) pairs on the batch test world's topology — the same
// sharing shape as TestBatchAmortization's changelog.
func benchChangelog(n, signatures int) (*netsim.Network, []*changelog.Change, SeriesProvider) {
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	var studies [][]string
	for _, rnc := range rncs {
		children := net.Children(rnc)
		for o := 0; o+3 <= len(children); o += 3 {
			studies = append(studies, children[o:o+3])
		}
	}
	base := epoch.Add(14 * 24 * time.Hour)
	types := []changelog.Type{changelog.ConfigChange, changelog.SoftwareUpgrade, changelog.FeatureActivation, changelog.HardwareUpgrade}
	qualities := []float64{-1.5, -0.8, 0, 0.8}
	changes := make([]*changelog.Change, 0, n)
	for i := 0; i < n; i++ {
		sig := i % signatures
		changes = append(changes, &changelog.Change{
			ID:          fmt.Sprintf("CHG-BENCH-%04d", i),
			Type:        types[i%len(types)],
			Elements:    studies[sig%len(studies)],
			At:          base.Add(time.Duration(sig/len(studies)) * 6 * time.Hour),
			TrueQuality: qualities[(i/len(types))%len(qualities)],
		})
	}
	ix := newBenchIndex()
	gcfg := gen.DefaultConfig(ix)
	gcfg.Seed = 23
	for _, c := range changes {
		gcfg.Effects = append(gcfg.Effects, c.Effect(net))
	}
	g := gen.New(net, gcfg)
	provider := ProviderFunc(func(id string, metric KPI) (Series, bool) {
		if net.Element(id) == nil {
			return Series{}, false
		}
		return g.Series(id, metric), true
	})
	return net, changes, provider
}

func newBenchIndex() Index {
	return NewIndex(epoch, 6*time.Hour, 28*4)
}

// BenchmarkBatchChangelog measures one AssessChangelog pass over a
// 60-entry changelog sharing 6 panel signatures.
func BenchmarkBatchChangelog(b *testing.B) {
	net, changes, provider := benchChangelog(60, 6)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := batchPipeline(0, provider, net, nil)
		batch, err := p.AssessChangelog(ctx, changes, batchKPIs, 14)
		if err != nil {
			b.Fatal(err)
		}
		for j, e := range batch.Errors {
			if e != nil {
				b.Fatalf("entry %s: %v", changes[j].ID, e)
			}
		}
	}
}

// BenchmarkSequentialSingles is the baseline: the same 60 changes, one
// AssessChangeContext call each.
func BenchmarkSequentialSingles(b *testing.B) {
	net, changes, provider := benchChangelog(60, 6)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := batchPipeline(0, provider, net, nil)
		for _, c := range changes {
			if _, err := p.AssessChangeContext(ctx, c, batchKPIs, 14); err != nil {
				b.Fatalf("entry %s: %v", c.ID, err)
			}
		}
	}
}
