package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"waferswitch/internal/core"
	"waferswitch/internal/mapping"
	"waferswitch/internal/sim"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
)

// tracer collects per-layer measurements over the traced passes of a
// run, from the benchmark's side of each call into a layer. A nil
// *tracer is an untraced pass: every method is a no-op and the builders
// it hands out attach nothing.
type tracer struct {
	// mu guards nets, buildDur and builds, which sweep workers write
	// while building their networks.
	mu   sync.Mutex
	nets []*netLog

	buildDur time.Duration
	builds   int64

	sweepCap  float64 // sum over sweeps of workers x sweep wall seconds
	serialDur time.Duration

	flits, injected, saStalls, vaStalls, creditStalls int64

	coreSpan, optimize  time.Duration
	candidates, mapped  int64
	restarts, mapPasses int64
	pairVisits          int64
	maxCells            int
}

// builder returns the sim.Builder a pass hands to the sim layer. Traced,
// every network it builds gets its own log handler (so concurrent sweep
// points stay apart, and Reset keeps it) and the build is timed.
func (tr *tracer) builder(t *topo.Topology, lat int, cfg sim.Config, sweep bool) sim.Builder {
	if tr == nil {
		return func() (*sim.Network, error) { return sim.Build(t, sim.ConstantLatency(lat), cfg) }
	}
	return func() (*sim.Network, error) {
		nl := &netLog{sweep: sweep}
		c := cfg
		c.Logger = slog.New(nl)
		t0 := time.Now()
		n, err := sim.Build(t, sim.ConstantLatency(lat), c)
		d := time.Since(t0)
		tr.mu.Lock()
		tr.buildDur += d
		tr.builds++
		tr.nets = append(tr.nets, nl)
		tr.mu.Unlock()
		return n, err
	}
}

// sweepDone records one sim.Sweep call: its wall-clock against the
// worker count Sweep used, and the probe counters of its points.
func (tr *tracer) sweepDone(d time.Duration, points int, res *sim.SweepResult) {
	if tr == nil {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), points)
	tr.sweepCap += float64(workers) * d.Seconds()
	if res == nil {
		return
	}
	for _, p := range res.Points {
		if p.Probe == nil {
			continue
		}
		tr.injected += p.Probe.Injected
		for _, r := range p.Probe.Routers {
			tr.flits += r.Flits
			tr.saStalls += r.SAStalls
			tr.vaStalls += r.VAStalls
			tr.creditStalls += r.CreditStalls
		}
	}
}

// serialDone records one zero-load probe.
func (tr *tracer) serialDone(d time.Duration) {
	if tr != nil {
		tr.serialDur += d
	}
}

// coreDone records one call into core returning the given designs.
func (tr *tracer) coreDone(d time.Duration, designs int) {
	if tr != nil {
		tr.coreSpan += d
		tr.candidates += int64(designs)
	}
}

// replayMapping re-runs the placement restarts core ran for d — same
// topology, grid, seeds (Seed+i) and escape routing — timing each
// Optimize call, and checks that the best restart reproduces
// d.MaxChannelLoad, which proves the replay measured the same work.
func (tr *tracer) replayMapping(d *core.Design) error {
	p := d.Params
	restarts := p.MapRestarts
	if restarts <= 0 {
		restarts = 3
	}
	cells := d.GridRows * d.GridCols
	var best *mapping.Placement
	for i := 0; i < restarts; i++ {
		pl, err := mapping.New(d.Placement.Topo, d.GridRows, d.GridCols, rand.New(rand.NewSource(p.Seed+int64(i))))
		if err != nil {
			return fmt.Errorf("mapping replay: %w", err)
		}
		t0 := time.Now()
		passes := pl.Optimize(50)
		tr.optimize += time.Since(t0)
		tr.restarts++
		tr.mapPasses += int64(passes)
		tr.pairVisits += int64(passes) * int64(cells*(cells-1)/2)
		tr.maxCells = max(tr.maxCells, cells)
		if p.ExternalIO.Kind == tech.PeripheryIO {
			lanes := int(p.ExternalIO.MaxBandwidthGbps(p.Substrate.SideMM) / p.Chiplet.PortGbps)
			caps := mapping.SpreadEscape(lanes, len(pl.BoundaryCells()), d.EdgeCapacity)
			if err := pl.RouteExternal(caps); err != nil {
				best = pl // core stops at the first escape failure
				break
			}
		}
		if best == nil || pl.MaxLoad() < best.MaxLoad() {
			best = pl
		}
	}
	tr.mapped++
	if got := best.MaxLoad(); got != d.MaxChannelLoad {
		return fmt.Errorf("mapping replay: best max load %d, design reports %d", got, d.MaxChannelLoad)
	}
	return nil
}

// runSpan is one Network.Run as seen through its log events.
type runSpan struct {
	start, boundary, end time.Time
	routers              int64
	measEnd, cycles      int64
	drained              bool
}

// netLog is the slog.Handler of one traced network. A run's span opens
// at sim.run and closes at sim.drained or sim.saturated; its drain
// boundary is the sim.progress event whose cycle equals its "of".
type netLog struct {
	sweep bool
	mu    sync.Mutex
	runs  []runSpan
}

func (h *netLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *netLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *netLog) WithGroup(string) slog.Handler            { return h }

func (h *netLog) Handle(_ context.Context, r slog.Record) error {
	now := time.Now()
	attrs := map[string]int64{}
	r.Attrs(func(a slog.Attr) bool {
		if a.Value.Kind() == slog.KindInt64 {
			attrs[a.Key] = a.Value.Int64()
		}
		return true
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	if r.Message == "sim.run" {
		h.runs = append(h.runs, runSpan{start: now, routers: attrs["routers"]})
		return nil
	}
	if len(h.runs) == 0 {
		return nil
	}
	cur := &h.runs[len(h.runs)-1]
	switch r.Message {
	case "sim.progress":
		if attrs["cycle"] == attrs["of"] {
			cur.boundary, cur.measEnd = now, attrs["of"]
		}
	case "sim.drained":
		cur.end, cur.drained = now, true
		cur.cycles = cur.measEnd + attrs["drain_cycles"]
	case "sim.saturated":
		cur.end, cur.cycles = now, attrs["cycles"]
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// procSample is the process-level view of one untraced pass.
type procSample struct {
	wall, cpu, gcShare, maxRSSMB float64
}

// setupTimes are the layer timings taken while preparing a workload.
type setupTimes struct {
	topoBuild, trafficGen time.Duration
}

// layerMetrics reduces the traced passes to the per-layer metrics; every
// additive quantity is divided by the number of traced passes.
func (tr *tracer) layerMetrics(passes int, st setupTimes, proc procSample, tracedWall float64) map[string]metricValue {
	per := 1 / float64(passes)
	var runS, drainS, pointSum float64
	var cycles, routerCycles, drainCycles, undrained int64
	var points []float64
	for _, nl := range tr.nets {
		for _, r := range nl.runs {
			span := r.end.Sub(r.start).Seconds()
			boundary := r.boundary
			if boundary.IsZero() {
				boundary = r.end
			}
			runS += span
			drainS += r.end.Sub(boundary).Seconds()
			cycles += r.cycles
			routerCycles += r.cycles * r.routers
			drainCycles += r.cycles - r.measEnd
			if !r.drained {
				undrained++
			}
			if nl.sweep {
				points = append(points, span)
				pointSum += span
			}
		}
	}
	slices.Sort(points)
	var p50, pmax float64
	if len(points) > 0 {
		p50, pmax = points[(len(points)-1)/2], points[len(points)-1]
	}
	m := map[string]metricValue{}
	set := func(name string, v float64) {
		for _, d := range perLayerMetrics {
			if d.name == name {
				m[name] = metricValue{v, d.unit}
				return
			}
		}
		panic("perfbench: metric not in catalogue: " + name)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("topo.build_s", st.topoBuild.Seconds())
	set("traffic.gen_s", st.trafficGen.Seconds())
	set("sim.build_s", tr.buildDur.Seconds()*per)
	set("sim.builds", float64(tr.builds)*per)
	set("sim.run_s", runS*per)
	set("sim.cycles", float64(cycles)*per)
	set("sim.router_cycles", float64(routerCycles)*per)
	set("sim.ns_per_router_cycle", ratio(runS*1e9, float64(routerCycles)))
	set("sim.drain_cycle_share", ratio(float64(drainCycles), float64(cycles)))
	set("sim.drain_time_share", ratio(drainS, runS))
	set("sim.undrained_points", float64(undrained)*per)
	set("sim.flits_forwarded", float64(tr.flits)*per)
	set("sim.injected_flits", float64(tr.injected)*per)
	set("sim.ns_per_flit", ratio(runS*1e9, float64(tr.flits)))
	set("sim.sa_win_ratio", ratio(float64(tr.flits), float64(tr.flits+tr.saStalls)))
	set("sim.va_stalls", float64(tr.vaStalls)*per)
	set("sim.credit_stalls", float64(tr.creditStalls)*per)
	set("sweep.points", float64(len(points))*per)
	set("sweep.point_p50_s", p50)
	set("sweep.point_max_s", pmax)
	idle := 0.0
	if tr.sweepCap > 0 {
		idle = 1 - pointSum/tr.sweepCap
	}
	set("sweep.worker_idle_ratio", idle)
	set("sweep.serial_s", tr.serialDur.Seconds()*per)
	set("core.span_s", tr.coreSpan.Seconds()*per)
	set("core.self_s", (tr.coreSpan-tr.optimize).Seconds()*per)
	set("core.candidates", float64(tr.candidates)*per)
	set("core.mapped_candidates", float64(tr.mapped)*per)
	set("mapping.optimize_s", tr.optimize.Seconds()*per)
	set("mapping.restarts", float64(tr.restarts)*per)
	set("mapping.passes", float64(tr.mapPasses)*per)
	set("mapping.pair_visits", float64(tr.pairVisits)*per)
	set("mapping.ns_per_pair_visit", ratio(float64(tr.optimize.Nanoseconds()), float64(tr.pairVisits)))
	set("mapping.max_cells", float64(tr.maxCells))
	set("proc.cpu_s", proc.cpu)
	set("proc.cpu_util", ratio(proc.cpu, proc.wall*float64(runtime.GOMAXPROCS(0))))
	set("proc.gc_cpu_share", proc.gcShare)
	set("proc.max_rss_mb", proc.maxRSSMB)
	set("trace.overhead_ratio", ratio(tracedWall, proc.wall))
	return m
}
