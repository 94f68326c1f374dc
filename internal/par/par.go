// Package par is the repository's one fan-out loop: it runs n
// independent items across goroutines and keeps each item's outcome in
// its own index slot, so a caller that reduces the slots in index order
// gets the same result for every worker count. sim.Sweep fans load
// points through it, expt.Pool the cells of an experiment grid, and
// core and mapping their placement restarts.
//
// Fan-outs nest (a Pool cell runs a sweep or a restart search), so the
// helper goroutines they start hold slots of one process-wide budget of
// GOMAXPROCS-1. The goroutine that calls Each always works on its own
// items and holds no slot. Before each item it claims, a worker starts
// another helper if the budget has a free slot and items are still
// queued behind the one it is about to run, so a fan-out grows as other
// fan-outs give slots back. A caller whose items are all claimed lends
// a slot to the budget while it waits for its helpers, and takes it back
// before it returns. With one top-level caller, no more than GOMAXPROCS
// goroutines therefore run items at once however deeply fan-outs nest.
package par

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

// Options configures one fan-out.
type Options struct {
	// Name names the fan-out in panic errors and progress assignments.
	Name string
	// Workers bounds the goroutines working on this fan-out: 0 means
	// GOMAXPROCS. With one worker, or on one schedulable core, every item
	// runs inline on the calling goroutine in index order.
	Workers int
	// Order, when non-nil, is the permutation of 0..n-1 in which
	// parallel workers claim items; nil means index order. It changes
	// only when an item runs, never which slot its result lands in.
	Order []int

	// Ctx is the parent context of the workers' pprof labels; nil means
	// context.Background(). Labels (key, value pairs) label the whole
	// fan-out, inline or not. WorkerLabel and ItemLabel, when set, are
	// the keys under which parallel workers carry their worker number
	// and current item index. With none of the three, Ctx is unused and
	// every item runs under the labels of the goroutine that called Each:
	// helpers are started by the fan-out's workers and inherit their
	// labels.
	// Otherwise the calling goroutine leaves with Ctx's labels set, as
	// pprof.Do does.
	Ctx                    context.Context
	Labels                 []string
	WorkerLabel, ItemLabel string

	// Progress, when non-nil, receives the item total up front, a tick
	// per finished item (erred or not), and each worker's current item,
	// published as "<Name>/w<worker>" -> "<Name>/point=<i>".
	Progress *obs.Progress
}

// Each runs fn(0) … fn(n-1) and returns the lowest-index error, if any.
// Items must be independent and write only their own index slot; a
// panic in fn is recovered into an error naming the item.
func Each(n int, opt Options, fn func(i int) error) error {
	return EachWorker(n, opt, func(_ *struct{}, i int) error { return fn(i) })
}

// EachWorker is Each with per-worker state: every goroutine that works
// on the fan-out gets its own zero W and passes it to each item it runs,
// so a worker can keep reusable scratch (a warm network) across items.
// Which items share a W depends on scheduling, so an item's result must
// not depend on what earlier items left in it.
func EachWorker[W any](n int, opt Options, fn func(w *W, i int) error) error {
	if n <= 0 {
		return nil
	}
	if opt.Progress != nil {
		opt.Progress.AddTotal(n)
	}
	errs := make([]error, n)
	workers := opt.Workers
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || procs == 1 {
		workers = procs
	}
	workers = min(workers, n)
	if workers == 1 {
		// Inline: no goroutine scheduling in stack traces or profiles.
		serial := func() {
			var w W
			for i := range n {
				errs[i] = call(&opt, &w, 0, i, fn)
			}
		}
		if len(opt.Labels) > 0 {
			pprof.Do(opt.context(), pprof.Labels(opt.Labels...), func(context.Context) { serial() })
		} else {
			serial()
		}
	} else {
		var (
			next, started atomic.Int64 // items claimed, workers started
			wg            sync.WaitGroup
			work          func(worker int)
		)
		started.Store(1) // the caller
		// grow starts helpers while the fan-out has room for them, items
		// are queued behind the one the calling worker is about to claim,
		// and the budget has a free slot.
		grow := func() {
			for {
				s := started.Load()
				if s >= int64(workers) || next.Load() >= int64(n-1) || !tryAcquire() {
					return
				}
				if !started.CompareAndSwap(s, s+1) {
					release()
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer release()
					work(int(s))
				}()
			}
		}
		work = func(worker int) {
			claim := func(ctx context.Context) {
				var w W
				for {
					grow()
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					i := k
					if opt.Order != nil {
						i = opt.Order[k]
					}
					if opt.ItemLabel != "" {
						pprof.Do(ctx, pprof.Labels(opt.ItemLabel, strconv.Itoa(i)),
							func(context.Context) { errs[i] = call(&opt, &w, worker, i, fn) })
					} else {
						errs[i] = call(&opt, &w, worker, i, fn)
					}
				}
			}
			labels := opt.workerLabels(worker)
			if len(labels) == 0 && opt.ItemLabel == "" {
				claim(nil)
				return
			}
			pprof.Do(opt.context(), pprof.Labels(labels...), claim)
		}
		work(0)
		if started.Load() > 1 {
			lend()
			wg.Wait()
			reclaim()
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// workerLabels returns the pprof labels of parallel worker w.
func (o *Options) workerLabels(w int) []string {
	labels := o.Labels
	if o.WorkerLabel != "" {
		labels = append(labels[:len(labels):len(labels)], o.WorkerLabel, strconv.Itoa(w))
	}
	return labels
}

// call runs item i on the given worker: it publishes the assignment,
// recovers a panic into an error and ticks progress.
func call[W any](o *Options, w *W, worker, i int, fn func(*W, int) error) (err error) {
	if o.Progress != nil {
		wname := o.Name + "/w" + strconv.Itoa(worker)
		o.Progress.SetWorker(wname, fmt.Sprintf("%s/point=%d", o.Name, i))
		defer func() {
			o.Progress.SetWorker(wname, "")
			o.Progress.PointDone()
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: %s point %d panicked: %v", o.Name, i, r)
		}
	}()
	return fn(w, i)
}

// budget is the process-wide helper budget: busy counts the slots held
// by running helpers, less those lent by callers waiting for theirs.
var budget struct {
	mu   sync.Mutex
	cond sync.Cond
	busy int
}

func init() { budget.cond.L = &budget.mu }

// limit is the number of helper slots: GOMAXPROCS-1, beside the
// top-level caller.
func limit() int { return runtime.GOMAXPROCS(0) - 1 }

// tryAcquire takes a helper slot if one is free.
func tryAcquire() bool {
	budget.mu.Lock()
	defer budget.mu.Unlock()
	if budget.busy >= limit() {
		return false
	}
	budget.busy++
	return true
}

// release gives a helper slot back.
func release() {
	budget.mu.Lock()
	budget.busy--
	budget.cond.Broadcast()
	budget.mu.Unlock()
}

// lend frees a slot for the time a caller waits for its helpers, so
// that another fan-out can run on the core the caller leaves idle.
func lend() { release() }

// reclaim takes the lent slot back, waiting until one is free, so that
// the caller does not resume beside a full budget of helpers.
func reclaim() {
	budget.mu.Lock()
	for budget.busy >= limit() {
		budget.cond.Wait()
	}
	budget.busy++
	budget.mu.Unlock()
}
