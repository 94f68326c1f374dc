package expt

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"waferswitch/internal/obs"
)

// Pool bounds the goroutines an experiment fans its independent points
// across: the cells of a design-space grid, the fabrics of a topology
// comparison, the sizes of a scaling study. Load sweeps parallelize one
// level down, inside sim.Sweep; Pool is the harness-level analogue for
// point sets that are not load sweeps. The fan-out logic is deliberately
// duplicated from sim.Sweep rather than shared: expt imports sim, so sim
// cannot import a common pool from here without a cycle, and the loop is
// a dozen lines. One difference: sim.Sweep hands out its heaviest load
// points first, while Pool dispatches in index order, because its items
// carry no cost proxy.
type Pool struct {
	// Workers: 0 means one per CPU (GOMAXPROCS), 1 runs serially on the
	// calling goroutine.
	Workers int

	// ctx is the parent context for worker pprof labels (carrying the
	// experiment label when the pool comes from Options.pool()); nil
	// means context.Background().
	ctx context.Context

	// progress, when non-nil, receives the point total up front, a tick
	// per completed point, and each worker's current assignment (set by
	// Options.pool() from Options.Progress).
	progress *obs.Progress
}

func (p Pool) context() context.Context {
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

func (p Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Each runs fn(0) … fn(n-1) across the pool and returns the
// lowest-index error, if any. Work items must be independent and write
// only index-slot state (their own row of a results slice): Each
// guarantees nothing about execution order, so anything order-sensitive
// — AddRow, appends, float accumulation — belongs after the barrier,
// iterating results in index order. Workers carry runtime/pprof labels
// (expt, worker, point) so CPU profiles attribute samples to individual
// points; a panic in fn is recovered into an error naming the point.
func (p Pool) Each(name string, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("expt: %s point %d panicked: %v", name, i, r)
			}
		}()
		return fn(i)
	}
	// run wraps call with progress reporting: the worker's current
	// assignment is published before the point and cleared after, and
	// completion is ticked whether or not the point erred (the ledger
	// counts attempts against the announced total).
	run := func(worker string, i int) error {
		if p.progress != nil {
			p.progress.SetWorker(worker, fmt.Sprintf("%s/point=%d", name, i))
		}
		err := call(i)
		if p.progress != nil {
			p.progress.SetWorker(worker, "")
			p.progress.PointDone()
		}
		return err
	}
	if p.progress != nil {
		p.progress.AddTotal(n)
	}
	errs := make([]error, n)
	workers := p.size(n)
	if workers == 1 {
		// Serial fast path: run inline so single-worker execution has no
		// goroutine scheduling in stack traces or profiles.
		pprof.Do(p.context(), pprof.Labels("expt", name),
			func(context.Context) {
				for i := 0; i < n; i++ {
					errs[i] = run(name+"/w0", i)
				}
			})
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				pprof.Do(p.context(),
					pprof.Labels("expt", name, "worker", strconv.Itoa(worker)),
					func(ctx context.Context) {
						wname := name + "/w" + strconv.Itoa(worker)
						for {
							i := int(next.Add(1)) - 1
							if i >= n {
								return
							}
							pprof.Do(ctx, pprof.Labels("point", strconv.Itoa(i)),
								func(context.Context) { errs[i] = run(wname, i) })
						}
					})
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
