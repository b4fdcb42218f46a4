package serve

// Scenario construction: a compiled request's change record and its
// assessment pipeline, wired on the request's world from the world slot
// (world.go). The series are bit-identical to the golden fixture's
// construction, so the service reproduces offline assessments
// byte-for-byte.

import (
	"repro/internal/changelog"
	"repro/internal/control"
	"repro/internal/netsim"
	"repro/internal/obs"

	litmus "repro"
)

// buildChange materializes the request's change record. Topology fit is
// not checked here — callers validate against their network.
func (c *compiledRequest) buildChange() (*changelog.Change, error) {
	changeType, err := changelog.ParseType(c.norm.Change.Type)
	if err != nil {
		return nil, err
	}
	return &changelog.Change{
		ID:                     c.norm.Change.ID,
		Type:                   changeType,
		Description:            c.norm.Change.Description,
		Elements:               c.norm.Change.Elements,
		At:                     c.changeAt,
		PropagateToDescendants: c.norm.Change.PropagateToDescendants,
		TrueQuality:            c.norm.Change.TrueQuality,
		TrueLoadMult:           c.norm.Change.TrueLoadMult,
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
