package expt

import (
	"context"

	"waferswitch/internal/obs"
	"waferswitch/internal/par"
)

// Pool bounds the goroutines an experiment fans its independent points
// across: the cells of a design-space grid, the fabrics of a topology
// comparison, the sizes of a scaling study. Load sweeps parallelize one
// level down, inside sim.Sweep; Pool is the harness-level analogue for
// point sets that are not load sweeps. Both run on par.Each, so a cell
// that runs a sweep or a restart search shares the one process-wide
// worker budget. Pool dispatches in index order, because its items carry
// no cost proxy.
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

// Each runs fn(0) … fn(n-1) across the pool and returns the
// lowest-index error, if any. Work items must be independent and write
// only index-slot state (their own row of a results slice): Each
// guarantees nothing about execution order, so anything order-sensitive
// — AddRow, appends, float accumulation — belongs after the barrier,
// iterating results in index order. Workers carry runtime/pprof labels
// (expt, worker, point) so CPU profiles attribute samples to individual
// points; a panic in fn is recovered into an error naming the point.
func (p Pool) Each(name string, n int, fn func(i int) error) error {
	return par.Each(n, par.Options{
		Name:        name,
		Workers:     p.Workers,
		Ctx:         p.ctx,
		Labels:      []string{"expt", name},
		WorkerLabel: "worker",
		ItemLabel:   "point",
		Progress:    p.progress,
	}, fn)
}
