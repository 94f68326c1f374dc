package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// metricDef is one catalogue entry: what a metric measures and which
// end-to-end metric, on which workload, a change to it should move.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  string
	moves  string
}

// endToEndMetrics are reported by untraced runs (--trace 0).
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower", "end-to-end", "median host wall-clock of one pass over the workload's operations"},
	{"setup_s", "s", "lower", "end-to-end", "median over fresh processes of process start to first operation: topologies, patterns, traces, params and one warm sim.Build per topology"},
	{"alloc_mb", "MB", "lower", "end-to-end", "median bytes allocated by one pass"},
}

// perLayerMetrics are reported by traced runs (--trace 1). Additive
// quantities are per traced pass.
var perLayerMetrics = []metricDef{
	{"topo.build_s", "s", "lower", "topo", "setup_s on every workload"},
	{"traffic.gen_s", "s", "lower", "traffic", "setup_s on synthetic-knee and nersc-trace, mostly nersc-trace"},
	{"sim.build_s", "s", "lower", "sim build", "setup_s and alloc_mb; wall_s on synthetic-knee (ZeroLoadLatency builds fresh)"},
	{"sim.builds", "count", "lower", "sim build", "setup_s and alloc_mb; wall_s on synthetic-knee"},
	{"sim.run_s", "s", "lower", "sim cycle loop", "wall_s on synthetic-knee and nersc-trace"},
	{"sim.cycles", "count", "lower", "sim cycle loop", "wall_s on synthetic-knee and nersc-trace"},
	{"sim.router_cycles", "count", "lower", "sim cycle loop", "wall_s on synthetic-knee and nersc-trace"},
	{"sim.ns_per_router_cycle", "ns", "lower", "sim cycle loop", "wall_s on synthetic-knee and nersc-trace"},
	{"sim.drain_cycle_share", "ratio", "lower", "sim cycle loop", "wall_s on synthetic-knee only"},
	{"sim.drain_time_share", "ratio", "lower", "sim cycle loop", "wall_s on synthetic-knee only"},
	{"sim.undrained_points", "count", "lower", "sim cycle loop", "wall_s on synthetic-knee only"},
	{"sim.flits_forwarded", "count", "lower", "sim cycle loop", "wall_s, mostly on synthetic-knee"},
	{"sim.injected_flits", "count", "lower", "sim cycle loop", "wall_s, mostly on synthetic-knee"},
	{"sim.ns_per_flit", "ns", "lower", "sim cycle loop", "wall_s, mostly on synthetic-knee"},
	{"sim.sa_win_ratio", "ratio", "higher", "sim cycle loop", "wall_s, mostly on synthetic-knee"},
	{"sim.va_stalls", "count", "lower", "sim cycle loop", "wall_s, mostly on synthetic-knee"},
	{"sim.credit_stalls", "count", "lower", "sim cycle loop", "wall_s, mostly on synthetic-knee"},
	{"sweep.points", "count", "lower", "sweep", "wall_s on synthetic-knee, more than on nersc-trace"},
	{"sweep.point_p50_s", "s", "lower", "sweep", "wall_s on synthetic-knee, more than on nersc-trace"},
	{"sweep.point_max_s", "s", "lower", "sweep", "wall_s on synthetic-knee, more than on nersc-trace"},
	{"sweep.worker_idle_ratio", "ratio", "lower", "sweep", "wall_s on synthetic-knee, more than on nersc-trace"},
	{"sweep.serial_s", "s", "lower", "sweep", "wall_s on synthetic-knee (zero-load probes)"},
	{"core.span_s", "s", "lower", "core", "wall_s on designspace"},
	{"core.self_s", "s", "lower", "core", "wall_s on designspace"},
	{"core.candidates", "count", "lower", "core", "wall_s on designspace"},
	{"core.mapped_candidates", "count", "lower", "core", "wall_s on designspace"},
	{"mapping.optimize_s", "s", "lower", "mapping", "wall_s on designspace; unchanged on the sim workloads"},
	{"mapping.restarts", "count", "lower", "mapping", "wall_s on designspace; unchanged on the sim workloads"},
	{"mapping.passes", "count", "lower", "mapping", "wall_s on designspace; unchanged on the sim workloads"},
	{"mapping.pair_visits", "count", "lower", "mapping", "wall_s on designspace; unchanged on the sim workloads"},
	{"mapping.ns_per_pair_visit", "ns", "lower", "mapping", "wall_s on designspace; unchanged on the sim workloads"},
	{"mapping.max_cells", "count", "lower", "mapping", "wall_s on designspace; unchanged on the sim workloads"},
	{"proc.cpu_s", "s", "lower", "proc", "wall_s on every workload"},
	{"proc.cpu_util", "ratio", "higher", "proc", "wall_s on every workload"},
	{"proc.gc_cpu_share", "ratio", "lower", "proc", "alloc_mb and wall_s on every workload"},
	{"proc.max_rss_mb", "MB", "lower", "proc", "informational only"},
	{"trace.overhead_ratio", "ratio", "lower", "trace", "none: traced over untraced pass wall-clock"},
}

// printCatalogue writes one row per metric.
func printCatalogue(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tlayer\tshould move")
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range set {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", m.name, m.unit, m.better, m.layer, m.moves)
		}
	}
	return tw.Flush()
}
