package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"waferswitch/internal/core"
	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
	"waferswitch/internal/wafer"
)

// opResult is the outcome of one operation: a sweep point, a zero-load
// probe or a design evaluation.
type opResult struct {
	name   string
	digest string
	err    error // the call failed, or its result broke an invariant
	// val carries the number a paper-reference line quotes: a zero-load
	// latency in cycles, or a design's port count.
	val float64
	// meets is the fig19 "meets 200G/port" verdict of a design op.
	meets bool
}

// bench is a prepared workload: one closed-loop pass over its operations,
// run back to back by the calling goroutine, and the paper-reference
// lines read off a pass's results. Pass i of a run runs input variant
// i mod variants; every variant derives from the seed.
type bench struct {
	variants int
	pass     func(tr *tracer, variant int) []opResult
	refs     func(res []opResult) []string
}

type workload struct {
	name string
	why  string
	// prepare builds every input from the seed; tiny selects the
	// reduced sizes the self-tests use.
	prepare func(seed int64, tiny bool, st *setupTimes) (*bench, error)
}

var workloads = []workload{
	{"designspace", "core.MaxPorts/Evaluate/EvaluateTopology in the shapes of fig9/19/25/28: pairwise-exchange mapping is ~99% of CPU, sim idle", prepareDesignspace},
	{"synthetic-knee", "512-port Clos, waferscale and discrete links, Bernoulli uniform and bit-complement traffic across the knee: SA, drain budget, sweep imbalance", prepareKnee},
	{"nersc-trace", "1024-port Clos replaying NERSC traces at loads that all drain: same cycle loop, no RNG coin, bursty skewed traffic, little drain", prepareNERSC},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- designspace -------------------------------------------------------

// designOp is one call into core. eval returns the call's answer and
// every candidate it evaluated (in search order for MaxPorts).
type designOp struct {
	name     string
	identity bool // identity-placed mesh: core runs no mapping restarts
	fig19    bool // report fig19's "meets 200G/port" verdict
	eval     func() (best *core.Design, candidates []*core.Design, err error)
}

// single adapts a one-design evaluation to designOp.eval.
func single(f func() (*core.Design, error)) func() (*core.Design, []*core.Design, error) {
	return func() (*core.Design, []*core.Design, error) {
		d, err := f()
		if err != nil {
			return nil, nil, err
		}
		return d, []*core.Design{d}, nil
	}
}

func prepareDesignspace(seed int64, tiny bool, st *setupTimes) (*bench, error) {
	maxPorts := func(p core.Params, cons core.Constraints) func() (*core.Design, []*core.Design, error) {
		return func() (*core.Design, []*core.Design, error) {
			r, err := core.MaxPorts(p, cons)
			if err != nil {
				return nil, nil, err
			}
			return r.Best, r.Evaluated, nil
		}
	}
	chip := ssc.MustTH5(200)
	sides := []float64{200, 300}
	// fig19's radix-256 and deradixed radix-128 points. Radix-128 at 8192
	// ports (a 13x15 grid) is left out: its three ~2 s restarts alone
	// made a pass's cost swing ~10% with the seed.
	type fig19Point struct{ deradix, ports int }
	fig19 := []fig19Point{{1, 2048}, {1, 4096}, {1, 8192}, {2, 2048}, {2, 4096}}
	directSide := 300.0
	// Passes rotate through four mapping seeds, so a run's median pass
	// averages the restarts' convergence luck over twelve restarts per
	// shape, and each variant still repeats within a run.
	const variants = 4
	if tiny {
		sides, directSide = []float64{100}, 100
		fig19 = []fig19Point{{1, 512}, {2, 512}}
	}

	// fig25 (b): a direct family and the identity-placed mesh at the
	// substrate's full chiplet budget.
	t0 := time.Now()
	sites := wafer.Substrate{SideMM: directSide}.MaxSites(chip.AreaMM2)
	rows, cols := inscribedGrid(sites)
	fbfly, err := topo.FlattenedButterfly(rows, cols, chip)
	if err != nil {
		return nil, err
	}
	mesh, err := topo.BalancedMesh(rows, cols, chip)
	if err != nil {
		return nil, err
	}
	st.topoBuild += time.Since(t0)

	opsByVariant := make([][]designOp, variants)
	for k := range opsByVariant {
		mapSeed := seed + int64(k)<<20
		var ops []designOp
		params := func(side float64, w tech.WSI, chip ssc.Chiplet) core.Params {
			return core.Params{
				Substrate:   wafer.Substrate{SideMM: side},
				WSI:         w,
				ExternalIO:  tech.OpticalIO,
				Chiplet:     chip,
				MapRestarts: 3,
				Seed:        mapSeed,
			}
		}
		name := func(format string, a ...any) string { return fmt.Sprintf(format, a...) + fmt.Sprintf("/v%d", k) }
		for _, side := range sides {
			ops = append(ops, designOp{
				name: name("fig9/maxports/%gmm", side),
				eval: maxPorts(params(side, tech.SiIF.Scaled(2), chip), core.NoPower),
			})
		}
		for _, f := range fig19 {
			c, err := chip.Deradix(f.deradix)
			if err != nil {
				return nil, err
			}
			p := params(300, tech.SiIF, c)
			ops = append(ops, designOp{
				name:  name("fig19/radix%d/%d", c.Radix, f.ports),
				fig19: true,
				eval: single(func() (*core.Design, error) {
					return core.Evaluate(p, f.ports, core.NoPower)
				}),
			})
		}
		for _, side := range sides {
			p := params(side, tech.SiIF.Scaled(2), chip)
			p.HeteroLeafRadix = 64
			p.Cooling = tech.WaterCooling
			ops = append(ops, designOp{
				name: name("fig28/hetero-water/%gmm", side),
				eval: maxPorts(p, core.AllConstraints),
			})
		}
		for _, f := range []struct {
			name     string
			t        *topo.Topology
			identity bool
		}{{"flatbutterfly", fbfly, false}, {"mesh", mesh, true}} {
			p := params(directSide, tech.SiIF, chip)
			p.Cooling = tech.WaterCooling
			ops = append(ops, designOp{
				name:     name("fig25/%s", f.name),
				identity: f.identity,
				eval: single(func() (*core.Design, error) {
					return core.EvaluateTopology(p, f.t, f.t, f.identity, core.AllConstraints)
				}),
			})
		}
		opsByVariant[k] = ops
	}

	pass := func(tr *tracer, variant int) []opResult {
		ops := opsByVariant[variant]
		out := make([]opResult, 0, len(ops))
		for _, op := range ops {
			t0 := time.Now()
			best, ds, err := op.eval()
			tr.coreDone(time.Since(t0), len(ds))
			res := opResult{name: op.name, err: err}
			if err == nil {
				res.digest = designsDigest(append([]*core.Design{best}, ds...))
				res.err = checkDesigns(append([]*core.Design{best}, ds...))
				res.val = float64(best.Ports)
				if op.fig19 && best.MaxChannelLoad > 0 {
					avail := float64(best.EdgeCapacity) / float64(best.MaxChannelLoad) * 200
					res.meets = avail >= 200 && best.Feasible
				}
			}
			if tr != nil && res.err == nil && !op.identity {
				for _, d := range ds {
					if d.Placement == nil {
						continue
					}
					if err := tr.replayMapping(d); err != nil {
						res.err = fmt.Errorf("%s: %w", op.name, err)
						break
					}
				}
			}
			out = append(out, res)
		}
		return out
	}
	refs := func(res []opResult) []string {
		var lines []string
		for _, r := range res {
			switch {
			case r.err != nil:
			case r.name == "fig9/maxports/300mm/v0":
				lines = append(lines, fmt.Sprintf("fig9 max 200G ports, 300 mm Si-IF @6400 Gbps/mm, Optical I/O: %.0f (paper: 8192)", r.val))
			case r.name == "fig19/radix128/4096/v0":
				lines = append(lines, fmt.Sprintf("fig19 radix-128 SSCs at 4096 ports meet 200G/port: %v (paper: yes)", r.meets))
			case r.name == "fig19/radix256/4096/v0":
				lines = append(lines, fmt.Sprintf("fig19 radix-256 SSCs at 4096 ports meet 200G/port: %v (paper: no, radix-256 meets it only at 2048)", r.meets))
			}
		}
		return lines
	}
	return &bench{variants: variants, pass: pass, refs: refs}, nil
}

// inscribedGrid returns the largest near-square rows x cols grid with
// rows*cols <= n, the shape fig25 gives its direct topologies.
func inscribedGrid(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		rows = r
	}
	return rows, n / rows
}

// checkDesigns holds the invariants every evaluated design must satisfy.
func checkDesigns(ds []*core.Design) error {
	if len(ds) == 0 {
		return fmt.Errorf("no designs returned")
	}
	for _, d := range ds {
		switch {
		case d.Ports <= 0:
			return fmt.Errorf("design with %d ports", d.Ports)
		case d.Feasible != (len(d.Reasons) == 0):
			return fmt.Errorf("%d ports: feasible=%v with %d reasons", d.Ports, d.Feasible, len(d.Reasons))
		case d.MaxChannelLoad < 0 || math.IsNaN(d.PowerDensity) || d.PowerDensity < 0:
			return fmt.Errorf("%d ports: max load %d, power density %v", d.Ports, d.MaxChannelLoad, d.PowerDensity)
		}
	}
	return nil
}

// --- simulator workloads -----------------------------------------------

// series is one (traffic, link config) load sweep, optionally preceded
// by a zero-load probe.
type series struct {
	name     string
	t        *topo.Topology
	lat      int
	cfg      sim.Config
	injf     sim.InjectorFactory
	loads    []float64
	zeroLoad bool
	// mustDrain marks sweeps chosen so that every point drains.
	mustDrain bool
}

// simSizes are a sim workload's dimensions.
type simSizes struct {
	ports, warm, measure int
	loads                []float64
}

// Waferscale configuration (fig23/fig24): 11-cycle SSCs, 1-cycle links.
func waferscaleConfig(z simSizes, buf int, seed int64) sim.Config {
	return sim.Config{
		NumVCs: 16, BufPerPort: buf, PacketFlits: 4,
		RCIngress: 2, RCOther: 2, PipeDelay: 9, TermDelay: 8,
		WarmupCycles: z.warm, MeasureCycles: z.measure, DrainCycles: 3 * z.measure,
		Seed: seed,
	}
}

// Discrete switch network: 15-cycle switch boxes, 8-cycle links.
func discreteConfig(z simSizes, buf int, seed int64) sim.Config {
	c := waferscaleConfig(z, buf, seed)
	c.RCIngress, c.RCOther, c.PipeDelay = 4, 4, 11
	return c
}

// simClos is the radix-64 Clos every simulator figure runs on.
func simClos(ports int, st *setupTimes) (*topo.Topology, error) {
	t0 := time.Now()
	defer func() { st.topoBuild += time.Since(t0) }()
	chip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		return nil, err
	}
	return topo.HomogeneousClos(ports, chip)
}

// warmRoutes builds one network per distinct topology so the process-wide
// route cache is filled before the first operation.
func warmRoutes(t *topo.Topology, cfg sim.Config) error {
	_, err := sim.Build(t, sim.ConstantLatency(1), cfg)
	return err
}

func prepareKnee(seed int64, tiny bool, st *setupTimes) (*bench, error) {
	z := simSizes{ports: 512, warm: 500, measure: 1000, loads: []float64{0.5, 0.7, 0.85, 0.95}}
	if tiny {
		z = simSizes{ports: 128, warm: 100, measure: 200, loads: []float64{0.5, 0.95}}
	}
	cl, err := simClos(z.ports, st)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	bitcomp, err := traffic.BitComplement(z.ports)
	if err != nil {
		return nil, err
	}
	pats := []traffic.Pattern{traffic.Uniform(z.ports), bitcomp}
	st.trafficGen += time.Since(t0)
	ws, net := waferscaleConfig(z, 32, seed), discreteConfig(z, 32, seed)
	if err := warmRoutes(cl, ws); err != nil {
		return nil, err
	}
	var ss []series
	for _, p := range pats {
		injf := sim.SyntheticInjector(p, 4)
		ss = append(ss,
			series{name: "waferscale/" + p.Name, t: cl, lat: 1, cfg: ws, injf: injf, loads: z.loads, zeroLoad: true},
			series{name: "discrete/" + p.Name, t: cl, lat: 8, cfg: net, injf: injf, loads: z.loads, zeroLoad: true})
	}
	refs := func(res []opResult) []string {
		var wsZL, netZL float64
		for _, r := range res {
			switch r.name {
			case "waferscale/uniform/zero-load":
				wsZL = r.val
			case "discrete/uniform/zero-load":
				netZL = r.val
			}
		}
		return []string{fmt.Sprintf("zero-load latency, uniform, %d ports: waferscale %.1f vs discrete %.1f cycles (paper: 37 vs 60)", z.ports, wsZL, netZL)}
	}
	return &bench{variants: 1, pass: func(tr *tracer, _ int) []opResult { return simPass(ss, tr) }, refs: refs}, nil
}

func prepareNERSC(seed int64, tiny bool, st *setupTimes) (*bench, error) {
	z := simSizes{ports: 1024, warm: 500, measure: 1000, loads: []float64{0.1, 0.3, 0.5}}
	if tiny {
		z = simSizes{ports: 128, warm: 100, measure: 200, loads: []float64{0.1}}
	}
	cl, err := simClos(z.ports, st)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	traces, err := traffic.NERSCTraces(z.ports)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i, tr := range traces {
		traces[i] = rotateTrace(tr, rng)
	}
	st.trafficGen += time.Since(t0)
	// 24-flit shared buffers, as in fig24.
	ws, net := waferscaleConfig(z, 24, seed), discreteConfig(z, 24, seed)
	if err := warmRoutes(cl, ws); err != nil {
		return nil, err
	}
	var ss []series
	for _, trc := range traces {
		injf := sim.TraceInjectorFactory(trc)
		ss = append(ss,
			series{name: "waferscale/" + trc.Name, t: cl, lat: 1, cfg: ws, injf: injf, loads: z.loads, mustDrain: true},
			series{name: "discrete/" + trc.Name, t: cl, lat: 8, cfg: net, injf: injf, loads: z.loads, mustDrain: true})
	}
	return &bench{variants: 1, pass: func(tr *tracer, _ int) []opResult { return simPass(ss, tr) }, refs: func([]opResult) []string { return nil }}, nil
}

// rotateTrace starts every source's cyclic message sequence at a
// seed-chosen offset: the same messages, in the same order, at another
// phase.
func rotateTrace(tr *traffic.Trace, rng *rand.Rand) *traffic.Trace {
	out := &traffic.Trace{Name: tr.Name, N: tr.N, PerSource: make([][]traffic.TraceMsg, tr.N)}
	for s, msgs := range tr.PerSource {
		if len(msgs) == 0 {
			continue
		}
		k := rng.Intn(len(msgs))
		out.PerSource[s] = append(append(make([]traffic.TraceMsg, 0, len(msgs)), msgs[k:]...), msgs[:k]...)
	}
	return out
}

// simPass runs every series: the zero-load probe serially, then the load
// sweep through sim.Sweep with its default worker pool.
func simPass(ss []series, tr *tracer) []opResult {
	var out []opResult
	for _, s := range ss {
		if s.zeroLoad {
			t0 := time.Now()
			zl, err := sim.ZeroLoadLatency(tr.builder(s.t, s.lat, s.cfg, false), s.injf)
			tr.serialDone(time.Since(t0))
			r := opResult{name: s.name + "/zero-load", err: err, val: zl}
			if err == nil {
				r.digest = latencyDigest(zl)
				if zl <= 0 || math.IsInf(zl, 0) || math.IsNaN(zl) {
					r.err = fmt.Errorf("zero-load latency %v", zl)
				}
			}
			out = append(out, r)
		}
		t0 := time.Now()
		// Traced passes attach the per-point probe counters.
		res, err := sim.Sweep(tr.builder(s.t, s.lat, s.cfg, true), s.injf, s.loads, sim.SweepOptions{Probe: tr != nil})
		tr.sweepDone(time.Since(t0), len(s.loads), res)
		for i, load := range s.loads {
			r := opResult{name: fmt.Sprintf("%s/load=%g", s.name, load), err: err}
			if err == nil {
				st := res.Points[i].Stats
				r.digest = statsDigest(st)
				r.err = checkStats(st, load, s.cfg, s.mustDrain)
			}
			out = append(out, r)
		}
	}
	return out
}

// checkStats holds the invariants every sweep point must satisfy.
func checkStats(st sim.Stats, load float64, cfg sim.Config, mustDrain bool) error {
	minCycles := int64(cfg.WarmupCycles + cfg.MeasureCycles)
	switch {
	case st.Offered != load:
		return fmt.Errorf("offered %v, want %v", st.Offered, load)
	case st.Completed <= 0 || st.Accepted <= 0:
		return fmt.Errorf("completed %d packets, accepted %v", st.Completed, st.Accepted)
	case st.Cycles < minCycles || st.Cycles > minCycles+int64(cfg.DrainCycles):
		return fmt.Errorf("%d cycles outside [%d, %d]", st.Cycles, minCycles, minCycles+int64(cfg.DrainCycles))
	case math.IsNaN(st.AvgLatency) || st.AvgLatency <= 0 || st.P50Latency > st.P99Latency || st.P99Latency > st.P999Latency:
		return fmt.Errorf("latency avg %v p50 %v p99 %v p999 %v", st.AvgLatency, st.P50Latency, st.P99Latency, st.P999Latency)
	case st.Accepted > 1.25*load:
		return fmt.Errorf("accepted %v exceeds offered %v", st.Accepted, load)
	case mustDrain && !st.Drained:
		return fmt.Errorf("load %v did not drain", load)
	}
	return nil
}
