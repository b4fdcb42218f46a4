package serve

// Scenario construction: a compiled change's record and a compiled
// request's assessment pipeline, wired on the request's world from the
// world slot (world.go). The series are bit-identical to the golden
// fixture's construction, so the service reproduces offline assessments
// byte-for-byte.

import (
	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/netsim"
	"repro/internal/obs"

	litmus "repro"
)

// build materializes the change record. Topology fit is not checked
// here — callers validate against their network.
func (ch compiledChange) build() (*changelog.Change, error) {
	changeType, err := changelog.ParseType(ch.spec.Type)
	if err != nil {
		return nil, err
	}
	return &changelog.Change{
		ID:                     ch.spec.ID,
		Type:                   changeType,
		Description:            ch.spec.Description,
		Elements:               ch.spec.Elements,
		At:                     ch.at,
		PropagateToDescendants: ch.spec.PropagateToDescendants,
		TrueQuality:            ch.spec.TrueQuality,
		TrueLoadMult:           ch.spec.TrueLoadMult,
	}, nil
}

// pipeline wires the request's assessor, control predicate and control
// cap on net. The caller supplies the series provider.
func (c *compiledRequest) pipeline(net *netsim.Network, scope *obs.Scope) (*litmus.Pipeline, error) {
	assessor, err := litmus.NewAssessor(c.cfg)
	if err != nil {
		return nil, err
	}
	var pred litmus.Predicate
	if len(c.preds) == 1 {
		pred = c.preds[0]
	} else {
		pred = control.And(c.preds...)
	}
	return &litmus.Pipeline{
		Network:          net,
		Assessor:         assessor,
		ControlPredicate: pred,
		MaxControls:      c.maxCtrls,
		Obs:              scope,
	}, nil
}
