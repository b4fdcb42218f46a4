package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

// PoisonPools exposes poisonPools to the external pool tests, which
// import the root package to drive AssessBatch.
var PoisonPools = poisonPools

// The package's tests read each element's forecast medians and
// differences, which results do not carry, through the finish
// observer: an assessment run under a context from recordSeries copies
// them into the context's log. Any other assessment skips the log.
func init() { finishObserver = logFinish }

// elementSeries is what the finish stage computed beside an element's
// verdict: the median forecasts of both windows (Eq. 4–5 of the paper)
// and the forecast differences the rank-order test compared.
type elementSeries struct {
	ForecastBefore, ForecastAfter timeseries.Series
	DiffBefore, DiffAfter         []float64
}

// finished is an element result with its series.
type finished struct {
	ElementResult
	elementSeries
}

// seriesLog holds the series of every element one assessment finished,
// by element ID and KPI.
type seriesLog struct {
	mu     sync.Mutex
	series map[string]elementSeries
}

type seriesLogKey struct{}

// recordSeries returns ctx carrying a new series log. The derived
// context has ctx's Done channel, so a background context keeps the
// non-cancelable path.
func recordSeries(ctx context.Context) (context.Context, *seriesLog) {
	log := &seriesLog{series: map[string]elementSeries{}}
	return context.WithValue(ctx, seriesLogKey{}, log), log
}

func seriesKey(id string, metric kpi.KPI) string { return id + "|" + metric.String() }

// logFinish is the finish observer: it copies e's medians and
// differences into the log of ctx, if any.
func logFinish(ctx context.Context, e *groupElement, med, diff []float64) {
	log, _ := ctx.Value(seriesLogKey{}).(*seriesLog)
	if log == nil {
		return
	}
	lenB := e.yBefore.Len()
	own := append(append([]float64(nil), med...), diff...)
	s := elementSeries{
		ForecastBefore: timeseries.NewSeries(e.yBefore.Index, own[:lenB:lenB]),
		ForecastAfter:  timeseries.NewSeries(e.yAfter.Index, own[lenB:len(med):len(med)]),
		DiffBefore:     own[len(med) : len(med)+lenB : len(med)+lenB],
		DiffAfter:      own[len(med)+lenB:],
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	key := seriesKey(e.id, e.metric)
	if _, dup := log.series[key]; dup {
		panic(fmt.Sprintf("series log: element %s finished twice", key))
	}
	log.series[key] = s
}

// of returns r with the series its assessment logged.
func (l *seriesLog) of(r ElementResult) finished {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.series[seriesKey(r.ElementID, r.KPI)]
	if !ok {
		panic(fmt.Sprintf("series log: no series for element %s (assessed without recordSeries?)", r.ElementID))
	}
	return finished{r, s}
}

// assessElementSeries is AssessElement with the element's series.
func assessElementSeries(a *Assessor, id string, study timeseries.Series, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI) (finished, error) {
	ctx, log := recordSeries(context.Background())
	r, err := a.AssessElementContext(ctx, id, study, controls, changeAt, metric)
	if err != nil {
		return finished{}, err
	}
	return log.of(r), nil
}

// assessGroupSeries is AssessGroup with every element's series,
// positionally with the result's PerElement.
func assessGroupSeries(a *Assessor, studies, controls *timeseries.Panel, changeAt time.Time, metric kpi.KPI) (GroupResult, []finished, error) {
	ctx, log := recordSeries(context.Background())
	g, err := a.AssessGroupContext(ctx, studies, controls, changeAt, metric)
	if err != nil {
		return g, nil, err
	}
	elems := make([]finished, len(g.PerElement))
	for i, r := range g.PerElement {
		elems[i] = log.of(r)
	}
	return g, elems, nil
}
