package spares

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestStack puts values at the given GOMAXPROCS, one put after another, and
// then takes until the stack is empty: the takes must return what is left in
// last-in-first-out order (TakeMax: greatest first), the bottom values past
// per × GOMAXPROCS at each put dropped.
func TestStack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type put struct{ v, procs int }
	for _, tc := range []struct {
		name string
		per  int
		max  bool // take with TakeMax, not Take
		puts []put
		want []int // the takes, in order
	}{
		{name: "empty", per: 1},
		{name: "one", per: 1, puts: []put{{1, 1}}, want: []int{1}},
		{name: "lifo", per: 1, puts: []put{{1, 4}, {2, 4}, {3, 4}}, want: []int{3, 2, 1}},
		{name: "bottom dropped past the cap", per: 2, puts: []put{{1, 1}, {2, 1}, {3, 1}}, want: []int{3, 2}},
		{name: "GOMAXPROCS falls between puts", per: 1, puts: []put{{1, 3}, {2, 3}, {3, 3}, {4, 1}}, want: []int{4}},
		{name: "GOMAXPROCS falls part way", per: 2, puts: []put{{1, 3}, {2, 3}, {3, 3}, {4, 3}, {5, 2}}, want: []int{5, 4, 3, 2}},
		{name: "GOMAXPROCS rises between puts", per: 1, puts: []put{{1, 1}, {2, 1}, {3, 2}}, want: []int{3, 2}},
		{name: "per scales the cap", per: 4, puts: []put{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}}, want: []int{5, 4, 3, 2}},
		{name: "max on empty", per: 1, max: true},
		{name: "max, greatest first", per: 1, max: true, puts: []put{{2, 4}, {7, 4}, {1, 4}, {5, 4}}, want: []int{7, 5, 2, 1}},
		{name: "max after the bottom dropped", per: 1, max: true, puts: []put{{9, 3}, {2, 3}, {4, 3}, {3, 2}}, want: []int{4, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New[int](tc.per)
			for _, p := range tc.puts {
				runtime.GOMAXPROCS(p.procs)
				s.Put(p.v)
			}
			take := s.Take
			if tc.max {
				take = func() (int, bool) { return s.TakeMax(cmp.Compare[int]) }
			}
			var got []int
			for v, ok := take(); ok; v, ok = take() {
				got = append(got, v)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("takes = %v, want %v", got, tc.want)
			}
			if v, ok := take(); ok || v != 0 {
				t.Fatalf("a take on an emptied stack = %d, %v; want 0, false", v, ok)
			}
		})
	}
}

// TestStackSharedByGoroutines: goroutines taking and putting at once lose no
// value they hold and leave no more than the cap.
func TestStackSharedByGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := New[*int](2)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				v, ok := s.Take()
				if !ok {
					v = new(int)
				}
				*v = g*1000 + i
				s.Put(v)
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, ok := s.Take(); ok; _, ok = s.Take() {
		n++
	}
	if n < 1 || n > 4 {
		t.Fatalf("the goroutines left %d values, want 1 to 4", n)
	}
}
