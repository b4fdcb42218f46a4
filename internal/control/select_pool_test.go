package control

// The selection list's recycled scratch never reaches a result: with
// every listed scratch poisoned before each selection, and selections
// running concurrently, each control group matches a selection on a
// cold list. Named TestPool* so `make race-pools` repeats it under the
// race detector.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/netsim"
)

// poisonSelections takes up to four scratches off the selection list,
// or makes them, and lists them again poisoned: every element of net
// excluded, stale study elements and walk IDs, and stale candidates
// nearer than any real one. A selection that skipped a reset then
// selects nothing, or the stale candidates.
func poisonSelections(net *netsim.Network) {
	var xs []*selectScratch
	for i := 0; i < 4; i++ {
		x, ok := selections.Take()
		if !ok {
			x = &selectScratch{excluded: map[string]bool{}}
		}
		xs = append(xs, x)
	}
	ids := net.IDs()
	for _, x := range xs {
		for _, id := range ids {
			x.excluded[id] = true
		}
		x.study = append(x.study[:0], net.MustElement(ids[0]))
		x.walk = append(x.walk[:0], ids[:8]...)
		x.cands = x.cands[:0]
		for _, id := range ids[:8] {
			x.cands = append(x.cands, candidate{id: id, dist: math.Inf(-1)})
		}
		x.peak = len(x.excluded)
	}
	for _, x := range xs {
		selections.Put(x)
	}
}

// TestPoolSelectRecycledScratch selects control groups for several
// study groups and predicates on poisoned lists, sequentially and on
// several goroutines, against the same selections on a cold list.
func TestPoolSelectRecycledScratch(t *testing.T) {
	net := testNet()
	rncs := net.OfKind(netsim.RNC)
	selectors := []*Selector{
		{Net: net, Predicate: And(SameKind(), SameParent())},
		{Net: net, Predicate: And(SameKind(), SameRegion()), MaxSize: 25},
		{Net: net, Predicate: SameKind(), Exclude: net.Children(rncs[1])[:2]},
	}
	var studies [][]string
	for _, rnc := range rncs[:3] {
		studies = append(studies, net.Children(rnc)[:3])
	}
	studies = append(studies, []string{rncs[2]})
	run := func(sel *Selector, study []string) string {
		got, err := sel.Select(study)
		return fmt.Sprint(got, err)
	}
	selections.Drain(func(*selectScratch) {})
	var want []string
	for _, sel := range selectors {
		for _, study := range studies {
			want = append(want, run(sel, study))
		}
	}
	check := func(i int, got string) {
		if got != want[i] {
			t.Errorf("selection %d on poisoned scratch:\n got %s\nwant %s", i, got, want[i])
		}
	}
	for rep := 0; rep < 3; rep++ {
		i := 0
		for _, sel := range selectors {
			for _, study := range studies {
				poisonSelections(net)
				check(i, run(sel, study))
				i++
			}
		}
	}
	poisonSelections(net)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := 0
				for _, sel := range selectors {
					for _, study := range studies {
						if (i+g)%2 == 0 {
							check(i, run(sel, study))
						}
						i++
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Scratch a selection released keeps no element or ID of it.
	selections.Drain(func(*selectScratch) {})
	check(0, run(selectors[0], studies[0]))
	selections.Drain(func(x *selectScratch) {
		if len(x.excluded) != 0 || slices.ContainsFunc(x.study[:cap(x.study)], func(e *netsim.Element) bool { return e != nil }) ||
			slices.ContainsFunc(x.walk[:cap(x.walk)], func(id string) bool { return id != "" }) {
			t.Errorf("released selection scratch keeps %d excluded IDs, study elements or walk IDs", len(x.excluded))
		}
	})
}
