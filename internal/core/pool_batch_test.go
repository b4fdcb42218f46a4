package core_test

// The batch half of the recycled-buffer test. AssessBatch assesses
// each factor group — several entries sharing one control panel, or a
// single (entry × KPI) assessment — in one pass over pooled fit arenas
// and unit working sets, so poisoned pools must not change one byte of
// its results. An external test package, because the batch path lives
// in the root package, which imports core.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kpi"
	"repro/internal/netsim"
	"repro/internal/timeseries"

	litmus "repro"
)

func TestPoolRecycledBuffersBatch(t *testing.T) {
	topo := netsim.DefaultTopologyConfig()
	topo.Seed = 17
	net := netsim.Build(topo)
	rncs := net.OfKind(netsim.RNC)
	studyA := net.Children(rncs[0])[:3]
	studyB := net.Children(rncs[1])[:3]
	start := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	at := start.Add(14 * 24 * time.Hour)
	// Three entries share one control panel (one factor group), one
	// moves the change time and one another RNC's towers (one-member
	// groups).
	changes := []*changelog.Change{
		{ID: "P1", Type: changelog.ConfigChange, Elements: studyA, At: at, TrueQuality: -1.5},
		{ID: "P2", Type: changelog.SoftwareUpgrade, Elements: studyA, At: at, TrueQuality: 0.8},
		{ID: "P3", Type: changelog.ConfigChange, Elements: studyA, At: at.Add(24 * time.Hour)},
		{ID: "P4", Type: changelog.HardwareUpgrade, Elements: studyB, At: at, TrueQuality: -0.7},
		{ID: "P5", Type: changelog.ConfigChange, Elements: studyA, At: at, TrueQuality: -1.5},
	}
	gcfg := gen.DefaultConfig(timeseries.NewIndex(start, 6*time.Hour, 28*4))
	gcfg.Seed = 23
	for _, c := range changes {
		gcfg.Effects = append(gcfg.Effects, c.Effect(net))
	}
	g := gen.New(net, gcfg)
	provider := litmus.ProviderFunc(func(id string, metric kpi.KPI) (litmus.Series, bool) {
		if net.Element(id) == nil {
			return litmus.Series{}, false
		}
		return g.Series(id, metric), true
	})
	kpis := []kpi.KPI{kpi.VoiceRetainability, kpi.DataAccessibility}

	for _, workers := range []int{1, 4} {
		run := func() [][]byte {
			p := &litmus.Pipeline{
				Network:          net,
				Provider:         provider,
				ControlPredicate: control.And(control.SameKind(), control.SameParent()),
				Assessor:         litmus.MustNewAssessor(litmus.Config{Seed: 9, Workers: workers}),
			}
			res, err := p.AssessChangelog(context.Background(), changes, kpis, 14)
			if err != nil {
				t.Fatalf("workers %d: AssessChangelog: %v", workers, err)
			}
			if res.FactorizationsReused == 0 {
				t.Fatalf("workers %d: no factor group shared a design across entries", workers)
			}
			docs := make([][]byte, len(changes))
			for i, r := range res.Results {
				if res.Errors[i] != nil {
					docs[i] = []byte(res.Errors[i].Error())
					continue
				}
				if docs[i], err = litmus.MarshalAssessment(r); err != nil {
					t.Fatal(err)
				}
			}
			return docs
		}
		cold := run()
		for rep := 0; rep < 3; rep++ {
			core.PoisonPools()
			for i, doc := range run() {
				if !bytes.Equal(doc, cold[i]) {
					t.Fatalf("workers %d rep %d entry %s: batch on poisoned pools differs from the cold run:\n got %s\nwant %s", workers, rep, changes[i].ID, doc, cold[i])
				}
			}
		}
	}
}
