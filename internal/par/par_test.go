package par

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at each GOMAXPROCS value in turn.
func withProcs(t *testing.T, procs []int, f func(t *testing.T, procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(t, p)
	}
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	withProcs(t, []int{1, 2, 5}, func(t *testing.T, procs int) {
		for _, workers := range []int{1, 2, 4, 0, 100} {
			n := 37
			hits := make([]atomic.Int32, n)
			if err := Each(n, Options{Name: "t", Workers: workers}, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("procs=%d workers=%d: %v", procs, workers, err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("procs=%d workers=%d: index %d ran %d times", procs, workers, i, h)
				}
			}
		}
	})
	if err := Each(0, Options{}, func(int) error { t.Error("fn called for n=0"); return nil }); err != nil {
		t.Error(err)
	}
}

// The lowest-index error wins even when the dispatch order reaches a
// higher index first.
func TestEachLowestIndexError(t *testing.T) {
	e3, e9 := errors.New("three"), errors.New("nine")
	reversed := make([]int, 12)
	for k := range reversed {
		reversed[k] = len(reversed) - 1 - k
	}
	withProcs(t, []int{1, 2, 5}, func(t *testing.T, procs int) {
		for _, order := range [][]int{nil, reversed} {
			err := Each(12, Options{Workers: 4, Order: order}, func(i int) error {
				switch i {
				case 3:
					return e3
				case 9:
					return e9
				}
				return nil
			})
			if err != e3 {
				t.Errorf("procs=%d: got %v, want the lowest-index error %v", procs, err, e3)
			}
		}
	})
}

func TestEachRecoversPanics(t *testing.T) {
	withProcs(t, []int{1, 2}, func(t *testing.T, procs int) {
		for _, workers := range []int{1, 3} {
			err := Each(5, Options{Name: "boom", Workers: workers}, func(i int) error {
				if i == 2 {
					panic("kaput")
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "boom point 2") || !strings.Contains(err.Error(), "kaput") {
				t.Errorf("procs=%d workers=%d: panic not converted to a useful error: %v", procs, workers, err)
			}
		}
	})
}

// Parallel workers claim items in the caller's order: an item claimed
// at position k starts no earlier than the (k-workers+1)-th, because of
// the k items claimed before it at most workers-1 (one per other worker)
// can still be waiting to start. Index order would start item 0, claimed
// last, first.
func TestEachHonoursOrder(t *testing.T) {
	const n, workers = 40, 2
	order := make([]int, n)
	pos := make([]int, n)
	for k := range order {
		order[k] = n - 1 - k
		pos[order[k]] = k
	}
	withProcs(t, []int{2, 5}, func(t *testing.T, procs int) {
		var ticket atomic.Int64
		started := make([]int, n)
		if err := Each(n, Options{Workers: workers, Order: order}, func(i int) error {
			started[i] = int(ticket.Add(1)) - 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range started {
			if started[i] <= pos[i]-workers {
				t.Errorf("procs=%d: item %d started %dth, claimed %dth", procs, i, started[i], pos[i])
			}
		}
	})
	// One worker runs inline in index order.
	var got []int
	if err := Each(4, Options{Workers: 1, Order: []int{3, 2, 1, 0}}, func(i int) error {
		got = append(got, i)
		return nil
	}); err != nil || len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("inline run order %v (err %v), want index order", got, err)
	}
}

// Three levels of nested fan-outs never run more than GOMAXPROCS leaf
// items at once.
func TestNestedFanOutsStayWithinBudget(t *testing.T) {
	withProcs(t, []int{1, 2, 5}, func(t *testing.T, procs int) {
		var active, high, leaves atomic.Int64
		leaf := func(int) error {
			a := active.Add(1)
			for h := high.Load(); a > h && !high.CompareAndSwap(h, a); h = high.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			active.Add(-1)
			leaves.Add(1)
			return nil
		}
		err := Each(4, Options{}, func(int) error {
			return Each(3, Options{}, func(int) error {
				return Each(5, Options{Workers: 8}, leaf)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := leaves.Load(); got != 4*3*5 {
			t.Errorf("procs=%d: %d leaves ran, want %d", procs, got, 4*3*5)
		}
		if h := high.Load(); h > int64(procs) {
			t.Errorf("procs=%d: %d leaf items ran at once", procs, h)
		}
		checkBudgetFree(t)
	})
}

// checkBudgetFree fails if a finished fan-out left helper slots taken
// or lent.
func checkBudgetFree(t *testing.T) {
	t.Helper()
	budget.mu.Lock()
	defer budget.mu.Unlock()
	if budget.busy != 0 {
		t.Errorf("budget holds %d slots after every fan-out returned", budget.busy)
	}
}

// A caller whose own items are all claimed lends its slot while it
// waits: while the caller runs the outer fan-out's first item, the one
// helper takes the second, which nests a fan-out the budget gives no
// helper of its own. Once the caller finishes and waits, the nested
// fan-out starts a helper on the lent slot, so two goroutines end up
// working on it.
func TestWaitingCallerHelps(t *testing.T) {
	withProcs(t, []int{2}, func(t *testing.T, _ int) {
		var mu sync.Mutex
		workers := map[*int]bool{}
		err := Each(2, Options{}, func(i int) error {
			if i == 0 {
				time.Sleep(20 * time.Millisecond)
				return nil
			}
			return EachWorker(20, Options{}, func(w *int, _ int) error {
				mu.Lock()
				workers[w] = true
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(workers) != 2 {
			t.Errorf("nested fan-out ran on %d workers, want 2", len(workers))
		}
		checkBudgetFree(t)
	})
}
