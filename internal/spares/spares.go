// Package spares keeps what finished runs leave for later runs in the same
// process: state that is costly to grow again and that the next run resets.
package spares

import (
	"runtime"
	"slices"
	"sync"
)

// Stack holds spare values, the last one put on top. It keeps at most per ×
// GOMAXPROCS of them, GOMAXPROCS read at each Put, and drops the bottom ones
// past that: per is how many values one processor's share of the runs in
// flight may hold at once. A strong reference, so an idle process keeps its
// spares through collections. It is safe for use by several goroutines.
type Stack[T any] struct {
	per  int
	mu   sync.Mutex
	vals []T
}

// New returns an empty stack of at most per values a processor.
func New[T any](per int) *Stack[T] { return &Stack[T]{per: per} }

// Take pops the top value, or reports false if the stack is empty.
func (s *Stack[T]) Take() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remove(len(s.vals) - 1)
}

// TakeMax takes the greatest value by cmp, the lowest of equals, wherever it
// sits, or reports false if the stack is empty.
func (s *Stack[T]) TakeMax(cmp func(a, b T) int) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for j := range s.vals {
		if cmp(s.vals[j], s.vals[i]) > 0 {
			i = j
		}
	}
	return s.remove(i)
}

// Put pushes v, dropping the values at the bottom past the cap.
func (s *Stack[T]) Put(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals = append(s.vals, v)
	if extra := len(s.vals) - s.per*runtime.GOMAXPROCS(0); extra > 0 {
		s.vals = slices.Delete(s.vals, 0, extra)
	}
}

// remove deletes and returns the value at i, or reports false if there is
// none.
func (s *Stack[T]) remove(i int) (v T, ok bool) {
	if i < 0 || i >= len(s.vals) {
		return v, false
	}
	v = s.vals[i]
	s.vals = slices.Delete(s.vals, i, i+1)
	return v, true
}
