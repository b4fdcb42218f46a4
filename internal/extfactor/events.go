package extfactor

import (
	"fmt"
	"time"

	"repro/internal/netsim"
)

// WeatherKind classifies the severe-weather events of §2.5 (NCDC storm
// event categories).
type WeatherKind int

// Weather event kinds, roughly ordered by severity.
const (
	Rain WeatherKind = iota
	Fog
	Snow
	StrongWind
	Thunderstorm
	Hail
	Tornado
	Hurricane
)

func (k WeatherKind) String() string {
	names := [...]string{"rain", "fog", "snow", "strong-wind", "thunderstorm", "hail", "tornado", "hurricane"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("WeatherKind(%d)", int(k))
}

// WeatherEvent is a geographically bounded weather episode: every element
// within RadiusKm of Center experiences Severity stress for the event
// window (with ramps for slow-building events like hurricanes). This is
// the synthetic stand-in for the paper's NCDC/Wunderground feeds.
type WeatherEvent struct {
	Kind     WeatherKind
	Label    string // e.g. "hurricane-sandy"
	Center   netsim.GeoPoint
	RadiusKm float64
	Start    time.Time
	End      time.Time
	// Severity is the peak stress applied inside the footprint.
	Severity float64
	// Ramp is the linear intensity ramp at the event edges.
	Ramp time.Duration
}

// Name implements Factor.
func (w WeatherEvent) Name() string {
	if w.Label != "" {
		return w.Label
	}
	return "weather-" + w.Kind.String()
}

// Stress implements Factor.
func (w WeatherEvent) Stress(e *netsim.Element, t time.Time) float64 {
	wgt := rampWeight(t, w.Start, w.End, w.Ramp)
	if wgt == 0 {
		return 0
	}
	if netsim.DistanceKm(w.Center, e.Location) > w.RadiusKm {
		return 0
	}
	return w.Severity * wgt
}

// RegionWeatherEvent applies weather stress to every element of a region —
// convenient for region-scale events like the foliage-belt storms of
// Fig. 4.
type RegionWeatherEvent struct {
	Kind     WeatherKind
	Label    string
	Region   netsim.Region
	Start    time.Time
	End      time.Time
	Severity float64
	Ramp     time.Duration
}

// Name implements Factor.
func (w RegionWeatherEvent) Name() string {
	if w.Label != "" {
		return w.Label
	}
	return "weather-" + w.Kind.String() + "-" + w.Region.String()
}

// Stress implements Factor.
func (w RegionWeatherEvent) Stress(e *netsim.Element, t time.Time) float64 {
	if e.Region != w.Region {
		return 0
	}
	return w.Severity * rampWeight(t, w.Start, w.End, w.Ramp)
}

// TrafficEventKind distinguishes holidays from localized big events.
type TrafficEventKind int

// Traffic event kinds.
const (
	Holiday  TrafficEventKind = iota
	BigEvent                  // stadium game, concert (paper Fig. 5)
)

func (k TrafficEventKind) String() string {
	if k == Holiday {
		return "holiday"
	}
	return "big-event"
}

// TrafficEvent is a traffic-pattern change: a holiday season shifting load
// across a whole region, or a big event multiplying load near a venue. It
// stresses service through congestion: stress rises with the load
// multiplier.
type TrafficEvent struct {
	Kind  TrafficEventKind
	Label string
	// Region scopes holidays; events with RadiusKm > 0 are scoped
	// geographically instead.
	Region   netsim.Region
	Center   netsim.GeoPoint
	RadiusKm float64
	Start    time.Time
	End      time.Time
	// LoadMult is the peak load multiplier (>1 increases traffic; <1 for
	// e.g. students leaving town).
	LoadMult float64
	// CongestionStressPerLoad converts excess load into stress:
	// stress = (mult−1) · CongestionStressPerLoad.
	CongestionStressPerLoad float64
	// Ramp is the linear intensity ramp at the window edges.
	Ramp time.Duration
}

// Name implements Factor.
func (ev TrafficEvent) Name() string {
	if ev.Label != "" {
		return ev.Label
	}
	return ev.Kind.String()
}

func (ev TrafficEvent) covers(e *netsim.Element) bool {
	if ev.RadiusKm > 0 {
		return netsim.DistanceKm(ev.Center, e.Location) <= ev.RadiusKm
	}
	return e.Region == ev.Region
}

// LoadMultiplier implements LoadFactor.
func (ev TrafficEvent) LoadMultiplier(e *netsim.Element, t time.Time) float64 {
	if !ev.covers(e) {
		return 1
	}
	w := rampWeight(t, ev.Start, ev.End, ev.Ramp)
	return 1 + (ev.LoadMult-1)*w
}

// Stress implements Factor: congestion stress proportional to excess load.
func (ev TrafficEvent) Stress(e *netsim.Element, t time.Time) float64 {
	mult := ev.LoadMultiplier(e, t)
	if mult <= 1 {
		return 0
	}
	return (mult - 1) * ev.CongestionStressPerLoad
}

// Outage is a network event (paper §2.5): the listed elements are out of
// service (or severely degraded) for the window. Unlike weather, outages
// target explicit elements — e.g. one failing transport link's towers.
type Outage struct {
	Label    string
	Elements map[string]bool
	Start    time.Time
	End      time.Time
	// Severity is the stress applied while the outage lasts. Large values
	// (≥ 5) represent hard outages.
	Severity float64
}

// NewOutage builds an Outage covering the given element IDs.
func NewOutage(label string, ids []string, start, end time.Time, severity float64) Outage {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return Outage{Label: label, Elements: set, Start: start, End: end, Severity: severity}
}

// Name implements Factor.
func (o Outage) Name() string {
	if o.Label != "" {
		return o.Label
	}
	return "outage"
}

// Stress implements Factor.
func (o Outage) Stress(e *netsim.Element, t time.Time) float64 {
	if !o.Elements[e.ID] || !window(t, o.Start, o.End) {
		return 0
	}
	return o.Severity
}
