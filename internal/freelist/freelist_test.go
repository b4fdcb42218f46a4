package freelist

// Tests of the free list: LIFO reuse, the byte budget, oversized items
// dropped, the best-fit take, and concurrent takes and puts, which
// `make race-pools` repeats under the race detector (TestPool*).

import (
	"sync"
	"testing"
)

func byteLen(b []byte) int { return cap(b) }

// held returns the number of listed items and the bytes they weigh.
func held[T any](l *List[T]) (n, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items), l.bytes
}

// TestPoolListLIFO pins the order: Take hands back the item put last,
// and an empty list reports false.
func TestPoolListLIFO(t *testing.T) {
	l := New(1<<10, byteLen)
	if _, ok := l.Take(); ok {
		t.Fatal("an empty list handed out an item")
	}
	a, b, c := make([]byte, 10), make([]byte, 20), make([]byte, 30)
	for _, x := range [][]byte{a, b, c} {
		if !l.Put(x) {
			t.Fatalf("a %d-byte item did not fit a %d-byte budget", cap(x), 1<<10)
		}
	}
	for _, want := range [][]byte{c, b, a} {
		got, ok := l.Take()
		if !ok || &got[0] != &want[0] {
			t.Fatalf("took %d bytes (ok %v), want the %d-byte item put last", cap(got), ok, cap(want))
		}
	}
	if n, b := held(l); n != 0 || b != 0 {
		t.Fatalf("an emptied list holds %d items of %d bytes", n, b)
	}
}

// TestPoolListBudget pins the byte budget: an item larger than the
// whole budget is dropped, an item the remaining room cannot hold is
// dropped, and a take makes room again.
func TestPoolListBudget(t *testing.T) {
	l := New(100, byteLen)
	if l.Put(make([]byte, 101)) {
		t.Fatal("an item over the whole budget was listed")
	}
	if !l.Put(make([]byte, 60)) || !l.Put(make([]byte, 40)) {
		t.Fatal("items filling the budget exactly were dropped")
	}
	if l.Put(make([]byte, 1)) {
		t.Fatal("an item beyond a full budget was listed")
	}
	if n, b := held(l); n != 2 || b != 100 {
		t.Fatalf("list holds %d items of %d bytes, want 2 of 100", n, b)
	}
	if x, _ := l.Take(); cap(x) != 40 {
		t.Fatalf("took %d bytes, want the 40 put last", cap(x))
	}
	if _, b := held(l); !l.Put(make([]byte, 30)) || b+30 != 90 {
		t.Fatalf("after a take, a 30-byte item: list holds %d bytes, want 90", b+30)
	}
}

// TestPoolListTakeBest pins the best-fit take: the lowest score among
// accepted items, the later item on a tie, and false when none fits.
func TestPoolListTakeBest(t *testing.T) {
	l := New(1<<10, byteLen)
	for _, n := range []int{50, 20, 80, 20, 30} {
		l.Put(make([]byte, n))
	}
	holds := func(n int) func([]byte) (int, bool) {
		return func(b []byte) (int, bool) { return cap(b), cap(b) >= n }
	}
	for _, c := range []struct{ need, want int }{{25, 30}, {25, 50}, {10, 20}, {10, 20}, {90, -1}, {60, 80}} {
		got, ok := l.TakeBest(holds(c.need))
		if c.want < 0 {
			if ok {
				t.Fatalf("need %d: took %d bytes, want none", c.need, cap(got))
			}
			continue
		}
		if !ok || cap(got) != c.want {
			t.Fatalf("need %d: took %d bytes (ok %v), want %d", c.need, cap(got), ok, c.want)
		}
	}
	if n, _ := held(l); n != 0 {
		t.Fatalf("%d items left, want none", n)
	}
}

// TestPoolListConcurrent takes and puts from several goroutines: the
// list never holds more than its budget, and no item is handed to two
// takers at once.
func TestPoolListConcurrent(t *testing.T) {
	const budget, workers, rounds = 64, 8, 500
	l := New(budget, func(p *int) int { return 8 })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p, ok := l.Take()
				if !ok {
					p = new(int)
				}
				*p = w // a shared item would race here
				if *p != w {
					t.Errorf("worker %d: item changed under it", w)
					return
				}
				l.Put(p)
				if _, b := held(l); b > budget {
					t.Errorf("list holds %d bytes, budget %d", b, budget)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var n int
	l.Drain(func(*int) { n++ })
	if left, _ := held(l); n > budget/8 || left != 0 {
		t.Fatalf("drained %d items (%d left), want at most %d and none left", n, left, budget/8)
	}
}
