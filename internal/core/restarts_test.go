package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"waferswitch/internal/mapping"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
)

// placeAndEscapeRef is the serial restart loop placeAndEscape ran before
// its restarts moved onto par.Each, kept verbatim as the reference the
// parallel one must match.
func (d *Design) placeAndEscapeRef(p Params, equiv *topo.Topology, identityPlacement bool) (*mapping.Placement, error) {
	escape := func(pl *mapping.Placement) error {
		if p.ExternalIO.Kind != tech.PeripheryIO {
			return nil
		}
		escapeLanes := int(p.ExternalIO.MaxBandwidthGbps(p.Substrate.SideMM) / p.Chiplet.PortGbps)
		caps := mapping.SpreadEscape(escapeLanes, len(pl.BoundaryCells()), d.EdgeCapacity)
		return pl.RouteExternal(caps)
	}
	if identityPlacement {
		positions := make([]int, len(equiv.Nodes))
		for i := range positions {
			positions[i] = i
		}
		pl, err := mapping.NewWithPositions(equiv, d.GridRows, d.GridCols, positions)
		if err != nil {
			return nil, err
		}
		if err := escape(pl); err != nil {
			d.fail("external: " + err.Error())
		}
		return pl, nil
	}
	var best *mapping.Placement
	for i := 0; i < p.restarts(); i++ {
		rng := rand.New(rand.NewSource(p.Seed + int64(i)))
		pl, err := mapping.New(equiv, d.GridRows, d.GridCols, rng)
		if err != nil {
			return nil, err
		}
		pl.Optimize(50)
		if err := escape(pl); err != nil {
			// Escape capacity is placement-independent (totals only), so
			// one failure fails them all.
			d.fail("external: " + err.Error())
			return pl, nil
		}
		if best == nil || pl.MaxLoad() < best.MaxLoad() {
			best = pl
		}
	}
	return best, nil
}

// serialReference runs f with EvaluateTopology placing through the
// serial reference loop.
func serialReference(f func()) {
	placer = (*Design).placeAndEscapeRef
	defer func() { placer = (*Design).placeAndEscape }()
	f()
}

// Evaluate and MaxPorts must be deep-equal to the serial restart loop at
// every GOMAXPROCS, including a MaxLoad tie between restarts (the lowest
// index wins) and a periphery escape failure (restart 0's placement and
// reason are kept).
func TestRestartsMatchSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	restarts := func(p Params, n int) Params { p.MapRestarts = n; return p }
	cases := []struct {
		name  string
		p     Params
		ports int // 0 runs MaxPorts
		cons  Constraints
	}{
		// Restarts 1 and 2 tie at the best MaxLoad with different
		// placements; restarts 0 and 3 are worse.
		{"tie", restarts(params(150, tech.SiIF, tech.OpticalIO), 4), 1024, NoPower},
		// Four distinct loads, the best last, and a tie between 1 and 2.
		{"serdes-feasible", restarts(params(200, tech.SiIF, tech.SerDes), 4), 512, NoPower},
		// 512 external lanes cannot escape a 100 mm substrate's SerDes.
		{"escape-failure", restarts(params(100, tech.SiIF, tech.SerDes), 3), 512, NoPower},
		{"maxports", params(200, tech.SiIF, tech.OpticalIO), 0, NoPower},
		{"maxports-hetero-water", func() Params {
			p := params(150, tech.SiIF, tech.OpticalIO)
			p.HeteroLeafRadix, p.Cooling = 64, tech.WaterCooling
			return p
		}(), 0, AllConstraints},
	}
	eval := func(t *testing.T, name string, p Params, ports int, cons Constraints) any {
		t.Helper()
		if ports == 0 {
			r, err := MaxPorts(p, cons)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return r
		}
		d, err := Evaluate(p, ports, cons)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return d
	}
	for _, c := range cases {
		var want any
		serialReference(func() { want = eval(t, c.name, c.p, c.ports, c.cons) })
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			if got := eval(t, c.name, c.p, c.ports, c.cons); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at GOMAXPROCS %d differs from the serial restart loop", c.name, procs)
			}
		}
	}

	// The cases above must really exercise a tie and an escape failure.
	tie := cases[0]
	loads := make([]int, tie.p.MapRestarts)
	cells := make([][2]int, len(loads))
	for i := range loads {
		p := tie.p
		p.MapRestarts, p.Seed = 1, tie.p.Seed+int64(i)
		d := eval(t, "tie restart", p, tie.ports, tie.cons).(*Design)
		loads[i] = d.MaxChannelLoad
		cells[i][0], cells[i][1] = d.Placement.NodeCell(0)
	}
	if loads[1] != loads[2] || loads[0] <= loads[1] || loads[3] <= loads[1] || cells[1] == cells[2] {
		t.Errorf("tie case lost its tie: per-restart loads %v, node 0 cells %v", loads, cells)
	}
	d := eval(t, "escape-failure", cases[2].p, cases[2].ports, cases[2].cons).(*Design)
	if len(d.Reasons) == 0 || !strings.HasPrefix(d.Reasons[0], "external: mapping:") {
		t.Errorf("escape-failure case reasons %q, want an escape failure first", d.Reasons)
	}
}
