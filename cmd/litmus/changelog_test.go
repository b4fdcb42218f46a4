package main

// Flag validation for the changelog mode (same private-FlagSet pattern
// as the cmd/litmus-eval flag tests), the changelog file loader, and a
// batch-vs-loop equivalence check on real CSV-shaped data.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/kpi"
	"repro/internal/timeseries"

	litmus "repro"
)

// parseFlags runs registerOptions + validate on a private FlagSet, the
// same path main takes.
func parseFlags(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("litmus", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerOptions(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.validate()
}

func TestFlagValidation(t *testing.T) {
	valid := [][]string{
		{"-study", "s.csv", "-controls", "c.csv", "-change", "2012-06-15T00:00:00Z"},
		{"-study", "s.csv", "-controls", "c.csv", "-changelog", "log.json"},
		{"-study", "s.csv", "-controls", "c.csv", "-changelog", "log.json", "-window-days", "7"},
		{"-study", "s.csv", "-controls", "c.csv", "-change", "2012-06-15T00:00:00Z", "-diagnose"},
	}
	for _, args := range valid {
		if _, err := parseFlags(t, args...); err != nil {
			t.Errorf("args %v rejected: %v", args, err)
		}
	}
	invalid := [][]string{
		{},
		{"-study", "s.csv", "-change", "2012-06-15T00:00:00Z"},
		{"-controls", "c.csv", "-change", "2012-06-15T00:00:00Z"},
		{"-study", "s.csv", "-controls", "c.csv"},
		{"-study", "s.csv", "-controls", "c.csv", "-change", "2012-06-15T00:00:00Z", "-changelog", "log.json"},
		{"-study", "s.csv", "-controls", "c.csv", "-change", "not-a-time"},
		{"-study", "s.csv", "-controls", "c.csv", "-changelog", "log.json", "-diagnose"},
		{"-study", "s.csv", "-controls", "c.csv", "-changelog", "log.json", "-window-days", "1"},
	}
	for _, args := range invalid {
		if _, err := parseFlags(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// The parsed change time lands in changeAt.
	o, err := parseFlags(t, "-study", "s.csv", "-controls", "c.csv", "-change", "2012-06-15T06:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Date(2012, 6, 15, 6, 0, 0, 0, time.UTC); !o.changeAt.Equal(want) {
		t.Errorf("changeAt = %v, want %v", o.changeAt, want)
	}
}

func writeChangelogFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "changes.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadChangelog(t *testing.T) {
	good := `[
	  {"id": "CHG-1", "at": "2012-06-15T00:00:00Z", "type": "software-upgrade", "description": "x"},
	  {"id": "CHG-2", "at": "2012-06-16T00:00:00Z"}
	]`
	changes, err := loadChangelog(writeChangelogFile(t, good))
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2 {
		t.Fatalf("got %d changes, want 2", len(changes))
	}
	if changes[0].ID != "CHG-1" || len(changes[0].Elements) != 1 || changes[0].Elements[0] != studyElementID {
		t.Errorf("first change wrong: %+v", changes[0])
	}
	if !changes[1].At.Equal(time.Date(2012, 6, 16, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("second change at = %v", changes[1].At)
	}

	bad := map[string]string{
		"empty list":    `[]`,
		"no id":         `[{"at": "2012-06-15T00:00:00Z"}]`,
		"duplicate id":  `[{"id": "C", "at": "2012-06-15T00:00:00Z"}, {"id": "C", "at": "2012-06-16T00:00:00Z"}]`,
		"bad time":      `[{"id": "C", "at": "yesterday"}]`,
		"bad type":      `[{"id": "C", "at": "2012-06-15T00:00:00Z", "type": "no-such-type"}]`,
		"unknown field": `[{"id": "C", "at": "2012-06-15T00:00:00Z", "extra": 1}]`,
		"not a list":    `{"id": "C"}`,
	}
	for name, content := range bad {
		if _, err := loadChangelog(writeChangelogFile(t, content)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := loadChangelog(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// changelogWorld builds an in-memory study/controls pair long enough for
// a 7-day window on a 6h grid, with two assessable change times.
func changelogWorld() (litmus.Series, *litmus.Panel) {
	ix := timeseries.NewIndex(time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC), 6*time.Hour, 120)
	sv := make([]float64, ix.N)
	for i := range sv {
		sv[i] = 0.95 + 0.02*math.Sin(float64(i)/5)
	}
	study := timeseries.NewSeries(ix, sv)
	panel := timeseries.NewPanel(ix)
	for c := 0; c < 6; c++ {
		v := make([]float64, ix.N)
		for i := range v {
			v[i] = 0.93 + 0.02*math.Sin(float64(i)/5+0.1*float64(c)) + 0.001*float64(c)
		}
		panel.Add(fmt.Sprintf("ctl-%d", c), timeseries.NewSeries(ix, v))
	}
	return study, panel
}

// TestChangelogBatchMatchesLoop pins the mode's core promise: routing a
// changelog through the batch path yields byte-identical assessments to
// the per-entry loop.
func TestChangelogBatchMatchesLoop(t *testing.T) {
	study, controls := changelogWorld()
	net, err := csvNetwork(controls)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]litmus.Series{studyElementID: study}
	for _, id := range controls.IDs() {
		byID[id] = controls.MustSeries(id)
	}
	provider := litmus.ProviderFunc(func(id string, _ litmus.KPI) (litmus.Series, bool) {
		s, ok := byID[id]
		return s, ok
	})
	assessor, err := litmus.NewAssessor(litmus.Config{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &litmus.Pipeline{
		Network:          net,
		Provider:         provider,
		Assessor:         assessor,
		ControlPredicate: control.SameKind(),
		MaxControls:      controls.Len(),
	}
	path := writeChangelogFile(t, `[
	  {"id": "CHG-A", "at": "2012-06-15T00:00:00Z"},
	  {"id": "CHG-B", "at": "2012-06-15T00:00:00Z", "type": "software-upgrade"},
	  {"id": "CHG-C", "at": "2012-06-16T12:00:00Z"}
	]`)
	changes, err := loadChangelog(path)
	if err != nil {
		t.Fatal(err)
	}
	metric := kpi.VoiceRetainability
	kpis := []litmus.KPI{metric}
	ctx := context.Background()

	batch, err := p.AssessChangelog(ctx, changes, kpis, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range changes {
		single, err := p.AssessChangeContext(ctx, c, kpis, 7)
		if err != nil {
			t.Fatalf("%s: loop path failed: %v", c.ID, err)
		}
		if batch.Errors[i] != nil {
			t.Fatalf("%s: batch path failed: %v", c.ID, batch.Errors[i])
		}
		want, err := litmus.MarshalAssessment(single)
		if err != nil {
			t.Fatal(err)
		}
		got, err := litmus.MarshalAssessment(batch.Results[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: batch and loop assessments differ", c.ID)
		}
	}
	// CHG-A and CHG-B share (selection, KPI, at): the batch must have
	// shared their panel assembly.
	if batch.PanelsShared == 0 {
		t.Error("batch shared no panel assemblies across same-signature entries")
	}
}

func TestCSVNetworkRejectsStudyCollision(t *testing.T) {
	ix := timeseries.NewIndex(time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC), 6*time.Hour, 8)
	panel := timeseries.NewPanel(ix)
	panel.Add(studyElementID, timeseries.NewSeries(ix, make([]float64, ix.N)))
	if _, err := csvNetwork(panel); err == nil {
		t.Error("controls column named like the study element accepted")
	}
}
