package litmus

// The panel list (pipeline.go): panels the pipeline assembled go back on
// it once their factor groups are assessed, without their IDs or series,
// and a listed panel reused by a later call never reaches a result. The
// tests are named TestPool* so `make race-pools` repeats them under the
// race detector.

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// poisonPanels takes up to four panels off the panel list, or makes
// them, and lists them again poisoned: on a stale index, holding stale
// columns of NaN under the IDs of the golden study and controls. A take
// that skipped its reset then fails the assessment, or changes its
// bytes.
func poisonPanels() {
	var pans []*Panel
	for i := 0; i < 4; i++ {
		pan, ok := panelList.Take()
		if !ok {
			pan = NewPanel(Index{})
		}
		pans = append(pans, pan)
	}
	stale := timeseries.NewIndex(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC), time.Hour, 7)
	vals := make([]float64, stale.N)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for _, pan := range pans {
		pan.Reset(stale)
		for _, id := range []string{"nb1-ne-1", "nb1-ne-2", "nb1-ne-4", "nb1-ne-5"} {
			pan.Add(id, timeseries.NewSeries(stale, vals))
		}
		panelList.Put(pan)
	}
}

// retainedColumns counts the IDs and column slices pan keeps reachable
// anywhere in its storage, beyond its length too: a released panel must
// keep none, so the list pins no world memo or study buffer.
func retainedColumns(pan *Panel) int {
	n := 0
	v := reflect.ValueOf(pan).Elem()
	for _, field := range []string{"ids", "cols"} {
		f := v.FieldByName(field)
		all := f.Slice(0, f.Cap())
		for i := 0; i < all.Len(); i++ {
			if !all.Index(i).IsZero() {
				n++
			}
		}
	}
	return n
}

// TestPoolPanelsReleasedEmpty assesses the golden change and the batch
// changelog and inspects every listed panel: each holds no ID and no
// column slice.
func TestPoolPanelsReleasedEmpty(t *testing.T) {
	panelList.Drain(func(*Panel) {})
	if _, err := goldenPipeline(2); err != nil {
		t.Fatal(err)
	}
	net, changes, provider := batchWorld()
	if _, err := batchPipeline(2, provider, net, nil).AssessChangelog(context.Background(), changes, batchKPIs, 14); err != nil {
		t.Fatal(err)
	}
	listed := 0
	panelList.Drain(func(pan *Panel) {
		listed++
		if pan.Len() != 0 || retainedColumns(pan) != 0 {
			t.Errorf("a listed panel holds %d columns and keeps %d IDs and column slices reachable", pan.Len(), retainedColumns(pan))
		}
	})
	if listed == 0 {
		t.Fatal("no assembled panel was listed")
	}
}

// TestPoolPanelsRecycledMatchGolden assesses the golden change on
// poisoned lists, sequentially and on several goroutines, and the batch
// changelog against its singles: every document stays byte-identical.
func TestPoolPanelsRecycledMatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_assessment.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(workers int) {
		res, err := goldenPipeline(workers)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := MarshalAssessment(res)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("workers %d: golden change on poisoned lists differs from the fixture:\n%s", workers, got)
		}
	}
	for rep := 0; rep < 3; rep++ {
		poisonPanels()
		check(1 + rep)
	}
	poisonPanels()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check(1 + g%2)
		}(g)
	}
	wg.Wait()
	for _, workers := range []int{1, 4} {
		poisonPanels()
		assertBatchMatchesSingles(t, workers, nil)
	}
}
