package sim

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"waferswitch/internal/obs"
	"waferswitch/internal/traffic"
)

// Builder constructs a network for one run. A Run consumes the
// network's state; run it again only after Network.Reset (which the
// sweep engines do internally — each worker builds once and Resets
// between points), or wrap a build with ReusableBuilder for serial
// evaluation loops.
type Builder func() (*Network, error)

// workerNet is one sweep worker's reusable network: built on the
// worker's first point, Reset to pristine for every later point. base
// is the builder's configured seed, captured at build time — Reseed and
// Reset overwrite cfg.Seed, so per-point seeds must always derive from
// the original via PointSeed.
type workerNet struct {
	n    *Network
	base int64
}

// get returns the worker's network ready to run point i: seeded with
// PointSeed(base, i) and otherwise indistinguishable from a fresh
// build.
func (w *workerNet) get(build Builder, i int) (*Network, error) {
	if w.n == nil {
		n, err := build()
		if err != nil {
			return nil, err
		}
		w.n, w.base = n, n.BaseSeed()
		n.Reseed(PointSeed(w.base, i))
		return n, nil
	}
	w.n.Reset(PointSeed(w.base, i))
	return w.n, nil
}

// InjectorFactory builds an injector for a given offered load in
// flits/terminal/cycle.
type InjectorFactory func(load float64) (Injector, error)

// SyntheticInjector returns an InjectorFactory for a synthetic pattern at
// the given packet size.
func SyntheticInjector(p traffic.Pattern, packetFlits int) InjectorFactory {
	return func(load float64) (Injector, error) {
		if load <= 0 || load > 1 {
			return nil, fmt.Errorf("sim: load %v out of (0,1]", load)
		}
		return RateInjector{Load: load, Pattern: p, PacketFlits: packetFlits}, nil
	}
}

// TraceInjectorFactory returns an InjectorFactory replaying a trace.
func TraceInjectorFactory(tr *traffic.Trace) InjectorFactory {
	return func(load float64) (Injector, error) {
		return NewTraceInjector(tr, load)
	}
}

// PointSeed derives the RNG seed for sweep point i from the base seed
// the builder configured. The derivation is a plain offset so seeds stay
// human-predictable, point 0 reproduces a single standalone run at the
// base seed, and — because the seed depends only on (base, index), never
// on which worker runs the point — parallel sweeps are bit-identical to
// serial ones.
func PointSeed(base int64, i int) int64 { return base + int64(i) }

// SweepPoint couples one load point's stats with its probe snapshot and
// — with attribution enabled — the congestion diagnosis of a point that
// failed to drain.
type SweepPoint struct {
	Stats Stats         `json:"stats"`
	Probe *obs.Snapshot `json:"probe,omitempty"`
	// Backpressure is the root-cause walk captured at the final cycle of
	// a non-drained point; PostMortem is its human-readable rendering
	// plus the stage breakdown. Both are empty for drained points and
	// without SweepOptions.Attribution, so default JSON is unchanged.
	Backpressure *obs.BackpressureReport `json:"backpressure,omitempty"`
	PostMortem   string                  `json:"post_mortem,omitempty"`
}

// SweepOptions configures how every load point runs — the one set of
// execution and observer settings shared by Sweep, FindSaturation and
// the experiment harness (expt.Options embeds it).
type SweepOptions struct {
	// Workers bounds the goroutines running sweep points: 0 means
	// GOMAXPROCS, 1 runs serially on the calling goroutine in input
	// order. With more than one worker, points are handed out in
	// descending load order. Results are identical for every value —
	// each point's network is seeded by PointSeed and merged in point
	// order after the barrier.
	Workers int
	// Probe attaches a fresh collector to every point, filling
	// SweepPoint.Probe and SweepResult.Aggregate's counters.
	Probe bool
	// Ctx, when non-nil, is the parent context for the workers' pprof
	// labels — pass a context carrying an experiment label and profile
	// samples keep it alongside sweep_worker/sweep_point. It is used
	// only for labeling; cancellation is not observed.
	Ctx context.Context

	// TimelineInterval, when positive, attaches a time-resolved sampler
	// to every point (window length in cycles). Per-point series merge in
	// ascending point order into SweepResult.Timeline, so the merged
	// series is byte-identical for any worker count. TimelineSamples
	// bounds each sampler's memory (0 means the obs default).
	TimelineInterval int
	TimelineSamples  int
	// Live, when non-nil, registers each point's sampler under
	// "LiveName/load=<load>" before the point runs, so an introspection
	// server can stream the series of points still executing.
	Live     *obs.LiveTimelines
	LiveName string
	// Progress, when non-nil, receives this sweep's point total up front
	// and a tick per completed point.
	Progress *obs.Progress

	// Abort, when non-nil, arms the early-abort saturation detector on
	// every point (see AbortOptions). The measurement window always runs
	// to completion, so Offered, Accepted and SaturationThroughput match
	// a full sweep; saturated points skip the drain budget and report
	// Stats.Aborted alongside Drained=false. A point that would have
	// drained late in its budget can be aborted instead, which flips its
	// Drained and so can lower FirstSaturatedLoad.
	Abort *AbortOptions

	// Attribution attaches a congestion-attribution collector to every
	// point: per-point attributions merge in ascending point order into
	// SweepResult.Attribution (byte-identical for any worker count), and
	// points that fail to drain carry a backpressure root-cause report
	// and a saturation post-mortem.
	Attribution bool
	// LiveAttrib, when non-nil (and Attribution set), receives each
	// completed point's attribution and each saturated point's
	// backpressure report, for an introspection server to stream
	// mid-sweep.
	LiveAttrib *obs.LiveAttribution
}

// SweepResult is the outcome of a load sweep: per-point stats (and probe
// snapshots when probing), plus the aggregate observability across all
// points — per-worker histograms and collectors merged after the barrier
// via obs.Histogram.Merge / obs.Collector.Merge.
type SweepResult struct {
	Points []SweepPoint `json:"points"`
	// Aggregate holds the latency distribution over every measured
	// packet of every point, plus summed router/channel counters when
	// probing was enabled.
	Aggregate *obs.Snapshot `json:"aggregate,omitempty"`
	// Timeline is the per-point samplers merged in point order (only with
	// SweepOptions.TimelineInterval set).
	Timeline *obs.TimelineSnapshot `json:"timeline,omitempty"`
	// Attribution is the per-point attribution collectors merged in point
	// order (only with SweepOptions.Attribution set): stage breakdown,
	// per-router heatmap, and the most-blamed routers and channels.
	Attribution *obs.AttributionSnapshot `json:"attribution,omitempty"`
}

// Stats projects the per-point stats out of the result.
func (r *SweepResult) Stats() []Stats {
	out := make([]Stats, len(r.Points))
	for i := range r.Points {
		out[i] = r.Points[i].Stats
	}
	return out
}

// pointResult is one point's run: its SweepPoint plus the per-point
// observers the reduction merges.
type pointResult struct {
	point SweepPoint
	coll  *obs.Collector
	hist  obs.Histogram
	tl    *obs.Timeline
	at    *obs.Attribution
}

// runPoint runs point i at the given load on the worker's warm network
// (seeded PointSeed(base, i)) with every detector and observer opt asks
// for, and ticks opt.Progress when it completes. It is the one
// per-point body behind Sweep and FindSaturation.
func runPoint(w *workerNet, build Builder, injf InjectorFactory, i int, load float64, opt *SweepOptions) (pointResult, error) {
	var r pointResult
	n, err := w.get(build, i)
	if err != nil {
		return r, err
	}
	if opt.Abort != nil {
		n.SetAbort(opt.Abort)
	}
	inj, err := injf(load)
	if err != nil {
		return r, err
	}
	if opt.Probe {
		if err := n.AttachProbe(n.NewProbe()); err != nil {
			return r, err
		}
	}
	name := func() string { return fmt.Sprintf("%s/load=%g", opt.LiveName, load) }
	if opt.TimelineInterval > 0 {
		r.tl = obs.NewTimeline(opt.TimelineInterval, opt.TimelineSamples)
		n.AttachTimeline(r.tl)
		if opt.Live != nil {
			opt.Live.Attach(name(), r.tl)
		}
	}
	if opt.Attribution {
		r.at = n.NewAttribution()
		if err := n.AttachAttribution(r.at); err != nil {
			return r, err
		}
	}
	st := n.Run(inj, load)
	r.point = SweepPoint{Stats: st}
	if opt.Probe {
		r.point.Probe = n.Snapshot()
		r.coll = n.probe
	}
	if opt.Attribution {
		r.point.Backpressure = n.Backpressure()
		r.point.PostMortem = n.SaturationPostMortem(st)
		if opt.LiveAttrib != nil {
			if err := opt.LiveAttrib.Add(r.at); err != nil {
				return r, err
			}
			if r.point.Backpressure != nil {
				opt.LiveAttrib.Report(name(), r.point.Backpressure)
			}
		}
	}
	r.hist = n.LatencyHistogram()
	if opt.Progress != nil {
		opt.Progress.PointDone()
	}
	return r, nil
}

// reducePoints merges per-point results in slice order on the calling
// goroutine, so the merged result is independent of worker scheduling.
func reducePoints(rs []pointResult, opt *SweepOptions) (*SweepResult, error) {
	res := &SweepResult{Points: make([]SweepPoint, len(rs))}
	var aggHist obs.Histogram
	var agg *obs.Collector
	for i := range rs {
		res.Points[i] = rs[i].point
		aggHist.Merge(&rs[i].hist)
		c := rs[i].coll
		if c == nil {
			continue
		}
		if agg == nil {
			agg = obs.NewCollector(len(c.Routers), len(c.Channels))
			copy(agg.Meta, c.Meta)
		}
		if err := agg.Merge(c); err != nil {
			return nil, err
		}
	}
	if agg != nil {
		s := agg.Snapshot(8)
		s.Latency = aggHist.Snapshot()
		res.Aggregate = s
	} else if aggHist.Count() > 0 {
		res.Aggregate = &obs.Snapshot{Latency: aggHist.Snapshot()}
	}
	if opt.TimelineInterval > 0 {
		aggTL := obs.NewTimeline(opt.TimelineInterval, opt.TimelineSamples)
		for i := range rs {
			if err := aggTL.Merge(rs[i].tl); err != nil {
				return nil, err
			}
		}
		res.Timeline = aggTL.Snapshot()
	}
	if opt.Attribution && len(rs) > 0 {
		aggAt := obs.NewAttribution(len(rs[0].at.Routers), len(rs[0].at.ChanBlame))
		for i := range rs {
			if err := aggAt.Merge(rs[i].at); err != nil {
				return nil, err
			}
		}
		res.Attribution = aggAt.Snapshot(8)
	}
	return res, nil
}

// dispatchOrder returns the point indices in the order parallel sweep
// workers pull them: descending offered load, ties by ascending index.
// This is Graham's longest-processing-time rule, with load as the cost
// proxy. With Abort nil a point's cost never falls as load rises: a
// drained point's work scales with the flits it moves, which scale with
// load, and a point past the knee runs warmup, measure and the full
// drain budget at saturation throughput. Handed out in input order
// (ascending load in the experiments), the costliest point would start
// last and often run alone. With Abort set, an aborted point can cost
// less than a lighter drained one, so the order is still a valid
// schedule, only possibly less tight. Only when a point runs changes:
// its seed, result slot, labels and merge position stay keyed by its
// input index.
func dispatchOrder(loads []float64) []int {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(loads[b], loads[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Sweep runs the network at each offered load, fanning points across a
// bounded worker pool. Each worker builds one Network on its first
// point and Resets it between points (reseeding with PointSeed), and
// each point gets its own collector, so workers share nothing mutable;
// build and injf must therefore be safe for concurrent use, which the
// stock builders and injector factories are. Results are bit-identical
// to building fresh per point: Reset provably rewinds to the built
// state, and every point's traffic depends only on its PointSeed.
// Parallel workers pull points heaviest first (see dispatchOrder);
// results stay keyed by input index, so the order cannot change them.
// Parallel workers carry runtime/pprof labels (sweep_worker,
// sweep_point, plus whatever opt.Ctx contributes) so CPU profiles
// attribute samples to individual points; the one-worker path runs
// inline under the caller's labels.
func Sweep(build Builder, injf InjectorFactory, loads []float64, opt SweepOptions) (*SweepResult, error) {
	// Workers <= 0 means one per core. On one schedulable core the
	// fan-out buys no parallelism, and results are bit-identical for
	// every worker count (each point's seed depends only on its index),
	// so the goroutine pool would be pure scheduling overhead plus one
	// warm network per worker: run inline instead.
	workers := opt.Workers
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || procs == 1 {
		workers = procs
	}
	workers = max(1, min(workers, len(loads)))

	rs := make([]pointResult, len(loads))
	errs := make([]error, len(loads))
	if opt.Progress != nil {
		opt.Progress.AddTotal(len(loads))
	}
	run := func(w *workerNet, i int) { rs[i], errs[i] = runPoint(w, build, injf, i, loads[i], &opt) }

	if workers == 1 {
		// Serial fast path: run inline on the calling goroutine, with no
		// label scope of its own, so points inherit the caller's pprof
		// labels (e.g. the expt/worker/point labels of a Pool cell this
		// sweep nests inside) and profiles show no scheduling detour.
		var wn workerNet
		for i := range loads {
			run(&wn, i)
		}
	} else {
		parent := opt.Ctx
		if parent == nil {
			parent = context.Background()
		}
		order := dispatchOrder(loads)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				pprof.Do(parent,
					pprof.Labels("sweep_worker", strconv.Itoa(worker)),
					func(ctx context.Context) {
						var wn workerNet
						for {
							k := int(next.Add(1)) - 1
							if k >= len(order) {
								return
							}
							i := order[k]
							pprof.Do(ctx,
								pprof.Labels("sweep_point", strconv.Itoa(i)),
								func(context.Context) { run(&wn, i) })
						}
					})
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reducePoints(rs, &opt)
}

// LatencyVsLoad runs the network at each offered load and returns the
// stats per point — the raw data of the paper's load-latency figures
// (Figs 22-24). It is Sweep with one worker and no probe.
func LatencyVsLoad(build Builder, injf InjectorFactory, loads []float64) ([]Stats, error) {
	res, err := Sweep(build, injf, loads, SweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res.Stats(), nil
}

// SaturationThroughput extracts the saturation throughput from a load
// sweep: the highest accepted throughput observed (accepted throughput
// plateaus at saturation as offered load keeps rising).
func SaturationThroughput(stats []Stats) float64 {
	max := 0.0
	for _, s := range stats {
		if s.Accepted > max {
			max = s.Accepted
		}
	}
	return max
}

// FirstSaturatedLoad returns the offered load of the first sweep point
// that failed to drain — the knee of the load-latency curve — and
// whether any point saturated at all.
func FirstSaturatedLoad(stats []Stats) (float64, bool) {
	for _, s := range stats {
		if !s.Drained {
			return s.Offered, true
		}
	}
	return 0, false
}

// SweepSummary condenses a load sweep. Latency figures cover only
// Drained points: a saturated run's latency reflects the drain deadline
// (and the unbounded queue behind it), not a steady state, so mixing it
// into summaries poisons them.
type SweepSummary struct {
	// SaturationThroughput is the highest accepted throughput observed.
	SaturationThroughput float64 `json:"saturation_throughput"`
	// Saturated reports whether any point failed to drain;
	// FirstSaturatedLoad is the offered load of the first such point.
	Saturated          bool    `json:"saturated"`
	FirstSaturatedLoad float64 `json:"first_saturated_load,omitempty"`
	// MaxDrainedLatency and MaxDrainedP99 are the worst average and P99
	// latency among drained points (0 when no point drained).
	MaxDrainedLatency float64 `json:"max_drained_latency"`
	MaxDrainedP99     float64 `json:"max_drained_p99"`
	// DrainedPoints counts the sweep points that drained cleanly.
	DrainedPoints int `json:"drained_points"`
}

// Summarize reduces a load sweep to its headline numbers, skipping
// non-drained points' latency.
func Summarize(stats []Stats) SweepSummary {
	sum := SweepSummary{SaturationThroughput: SaturationThroughput(stats)}
	sum.FirstSaturatedLoad, sum.Saturated = FirstSaturatedLoad(stats)
	for _, s := range stats {
		if !s.Drained {
			continue
		}
		sum.DrainedPoints++
		if s.AvgLatency > sum.MaxDrainedLatency {
			sum.MaxDrainedLatency = s.AvgLatency
		}
		if s.P99Latency > sum.MaxDrainedP99 {
			sum.MaxDrainedP99 = s.P99Latency
		}
	}
	return sum
}

// ZeroLoadLatency runs the network at a near-zero load and returns the
// average packet latency.
func ZeroLoadLatency(build Builder, injf InjectorFactory) (float64, error) {
	n, err := build()
	if err != nil {
		return 0, err
	}
	inj, err := injf(0.01)
	if err != nil {
		return 0, err
	}
	st := n.Run(inj, 0.01)
	if st.Completed == 0 {
		return 0, fmt.Errorf("sim: no packets completed at zero load")
	}
	return st.AvgLatency, nil
}
