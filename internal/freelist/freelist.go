// Package freelist is the one home of the program's reusable working
// memory: a process-wide list of items a request builds, uses and drops,
// kept for the next request instead of allocated again. The engine's fit
// arenas, unit working sets, factor-group elements, panels and
// selection scratch, the serve tier's study-series and digest buffers,
// the client's answer buffers and the world build's generators each
// live on one List.
//
// A List is a mutex-guarded LIFO with a constant byte budget. Put drops
// an item the budget has no room for, so one request at the API caps
// never pins its memory for the life of the process. It is deliberately
// not a sync.Pool: garbage collection empties a pool, so what a warm
// request allocates would depend on how often the heap is collected,
// and the race detector drops a quarter of a pool's Puts.
package freelist

import "sync"

// List is a free list of items of type T holding at most a constant
// number of bytes, each item weighed when it is put. The zero List is
// not usable; make one with New. A List is safe for concurrent use.
type List[T any] struct {
	mu     sync.Mutex
	items  []entry[T]
	bytes  int
	budget int
	size   func(T) int
}

type entry[T any] struct {
	item T
	size int
}

// New returns an empty list that holds at most budget bytes of items,
// weighing each with size when it is put.
func New[T any](budget int, size func(T) int) *List[T] {
	return &List[T]{budget: budget, size: size}
}

// Take returns the item put last, or false when the list is empty. The
// item holds whatever its last user left in it.
func (l *List[T]) Take() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		var zero T
		return zero, false
	}
	return l.remove(n - 1), true
}

// TakeBest returns the listed item that rank scores lowest, among the
// items it accepts (ok true), or false when it accepts none. Ties go to
// the item put last.
func (l *List[T]) TakeBest(rank func(T) (score int, ok bool)) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best, bestScore := -1, 0
	for i := len(l.items) - 1; i >= 0; i-- {
		if s, ok := rank(l.items[i].item); ok && (best < 0 || s < bestScore) {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		var zero T
		return zero, false
	}
	return l.remove(best), true
}

// remove takes item i off the list. Callers hold l.mu.
func (l *List[T]) remove(i int) T {
	e := l.items[i]
	copy(l.items[i:], l.items[i+1:])
	l.items[len(l.items)-1] = entry[T]{}
	l.items = l.items[:len(l.items)-1]
	l.bytes -= e.size
	return e.item
}

// Put lists x for a later Take, or drops it when the budget has no room
// for it, and reports whether it listed x. The caller must not use x
// afterwards either way.
func (l *List[T]) Put(x T) bool {
	size := l.size(x)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bytes+size > l.budget {
		return false
	}
	l.items = append(l.items, entry[T]{item: x, size: size})
	l.bytes += size
	return true
}

// Drain takes every item off the list and calls f on each, put last
// first. Tests use it to empty a list or to inspect and poison what it
// holds.
func (l *List[T]) Drain(f func(T)) {
	l.mu.Lock()
	items := l.items
	l.items, l.bytes = nil, 0
	l.mu.Unlock()
	for i := len(items) - 1; i >= 0; i-- {
		f(items[i].item)
	}
}
