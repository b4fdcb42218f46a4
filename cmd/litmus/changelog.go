package main

// Changelog mode (-changelog): assess every entry of a JSON changelog
// against the same study/controls CSV pair. Each entry contributes one
// change time; the study series is split at that time and regressed
// against the control panel exactly as in single-change mode, but the
// whole file goes through Pipeline.AssessChangelog — the batch path
// that shares control selection, panel assembly and before-window
// factorizations across entries with equal signatures. Its results are
// identical to assessing each entry alone; only the cost differs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/netsim"
	"repro/internal/obs"

	litmus "repro"
)

// studyElementID is the synthetic element ID the study CSV column is
// registered under — in the network, the provider and fault injection.
const studyElementID = "study"

// changelogEntry is one entry of the -changelog JSON file.
type changelogEntry struct {
	// ID is the change ticket identifier (required, unique).
	ID string `json:"id"`
	// At is the change execution time, RFC 3339 (required).
	At string `json:"at"`
	// Type is the change type name (optional; default config-change).
	Type string `json:"type,omitempty"`
	// Description is free-form ticket text (optional).
	Description string `json:"description,omitempty"`
}

// loadChangelog parses a -changelog file: a JSON array of entries.
func loadChangelog(path string) ([]*changelog.Change, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []changelogEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: changelog has no entries", path)
	}
	seen := map[string]bool{}
	changes := make([]*changelog.Change, 0, len(entries))
	for i, e := range entries {
		if e.ID == "" {
			return nil, fmt.Errorf("%s: entry %d has no id", path, i)
		}
		if seen[e.ID] {
			return nil, fmt.Errorf("%s: duplicate change id %q", path, e.ID)
		}
		seen[e.ID] = true
		at, err := time.Parse(time.RFC3339, e.At)
		if err != nil {
			return nil, fmt.Errorf("%s: entry %s: invalid at %q: %v", path, e.ID, e.At, err)
		}
		ct := changelog.ConfigChange
		if e.Type != "" {
			ct, err = changelog.ParseType(e.Type)
			if err != nil {
				return nil, fmt.Errorf("%s: entry %s: %v", path, e.ID, err)
			}
		}
		changes = append(changes, &changelog.Change{
			ID:          e.ID,
			Type:        ct,
			Description: e.Description,
			Elements:    []string{studyElementID},
			At:          at,
		})
	}
	return changes, nil
}

// csvNetwork wraps the loaded CSV columns as a flat synthetic network —
// the study element plus one element per control column, all the same
// kind, so a same-kind predicate selects exactly the CSV's control set.
func csvNetwork(controls *litmus.Panel) (*netsim.Network, error) {
	net := netsim.NewNetwork()
	net.Add(&netsim.Element{ID: studyElementID, Kind: netsim.NodeB})
	for _, id := range controls.IDs() {
		if id == studyElementID {
			return nil, fmt.Errorf("controls file has a column named %q, which collides with the study element", studyElementID)
		}
		net.Add(&netsim.Element{ID: id, Kind: netsim.NodeB})
	}
	return net, nil
}

// runChangelog assesses every changelog entry and prints one verdict
// line per entry. It returns true when any entry failed.
func runChangelog(o *options, scope *obs.Scope, metric litmus.KPI, assessor *litmus.Assessor, study litmus.Series, controls *litmus.Panel) (failed bool) {
	changes, err := loadChangelog(o.changelogPath)
	if err != nil {
		fatalf("loading changelog: %v", err)
	}
	net, err := csvNetwork(controls)
	if err != nil {
		fatalf("%v", err)
	}
	byID := map[string]litmus.Series{studyElementID: study}
	for j := 0; j < controls.Len(); j++ {
		id, s := controls.Column(j)
		byID[id] = s
	}
	provider := litmus.ProviderFunc(func(id string, _ litmus.KPI) (litmus.Series, bool) {
		s, ok := byID[id]
		return s, ok
	})
	p := &litmus.Pipeline{
		Network:          net,
		Provider:         provider,
		Assessor:         assessor,
		ControlPredicate: control.SameKind(),
		MaxControls:      controls.Len(),
		Obs:              scope,
	}

	fmt.Printf("changelog: %d entries, window %d days\n", len(changes), o.windowDays)

	batch, err := p.AssessChangelog(context.Background(), changes, []litmus.KPI{metric}, o.windowDays)
	if err != nil {
		fatalf("batch assessment: %v", err)
	}
	fmt.Printf("  amortization: %d panel assemblies shared, %d factorizations reused\n",
		batch.PanelsShared, batch.FactorizationsReused)

	for i, c := range changes {
		at := c.At.UTC().Format(time.RFC3339)
		if err := batch.Errors[i]; err != nil {
			fmt.Printf("%-16s @ %s  error: %v\n", c.ID, at, err)
			failed = true
			continue
		}
		res := batch.Results[i]
		verdict := "unassessed"
		if gr, ok := res.PerKPI[metric]; ok {
			if len(gr.PerElement) > 0 {
				verdict = gr.PerElement[0].Verdict.String()
			} else {
				verdict = gr.Overall.String()
			}
		}
		suffix := ""
		if res.Degraded {
			suffix = "  [degraded]"
		}
		fmt.Printf("%-16s @ %s  %s  decision=%s%s\n", c.ID, at, verdict, res.Decision, suffix)
	}
	return failed
}
