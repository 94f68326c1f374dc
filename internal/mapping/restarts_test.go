package mapping

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
)

// bestRef is the serial restart loop Best ran before its optimizations
// moved onto par.Each, kept verbatim as the reference Best must match.
func bestRef(t *topo.Topology, rows, cols, restarts int, seed int64) (*Placement, error) {
	if restarts < 1 {
		restarts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var best *Placement
	var bestCost Cost
	for i := 0; i < restarts; i++ {
		p, err := New(t, rows, cols, rng)
		if err != nil {
			return nil, err
		}
		p.Optimize(50)
		if c := p.Cost(); best == nil || c.Less(bestCost) {
			best, bestCost = p, c
		}
	}
	return best, nil
}

// Best must be deep-equal to the serial restart loop at every
// GOMAXPROCS, including when restarts tie on cost (the lowest index
// wins).
func TestBestMatchesSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Every placement of a 2x2 flattened butterfly on a 2x2 grid costs
	// the same, so all restarts tie.
	fb, err := topo.FlattenedButterfly(2, 2, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	c1024 := closTopo(t, 1024, 1)
	c2048 := closTopo(t, 2048, 1)
	r1024, k1024 := topo.NearSquare(len(c1024.Nodes))
	r2048, k2048 := topo.NearSquare(len(c2048.Nodes))
	cases := []struct {
		name             string
		tp               *topo.Topology
		rows, cols, runs int
		seed             int64
	}{
		{"tie", fb, 2, 2, 4, 3},
		{"clos1024", c1024, r1024, k1024, 5, 1},
		{"clos1024-empty", c1024, r1024 + 1, k1024, 3, 7},
		{"clos2048", c2048, r2048, k2048, 3, 2},
		{"one-restart", c1024, r1024, k1024, 0, 4},
	}
	for _, c := range cases {
		want, err := bestRef(c.tp, c.rows, c.cols, c.runs, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			got, err := Best(c.tp, c.rows, c.cols, c.runs, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at GOMAXPROCS %d differs from the serial restart loop", c.name, procs)
			}
		}
	}

	// The tie case must really tie: all restarts cost the same and not
	// all of them end at restart 0's positions.
	rng := rand.New(rand.NewSource(3))
	var first *Placement
	moved := false
	for i := 0; i < 4; i++ {
		p, err := New(fb, 2, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		p.Optimize(50)
		if first == nil {
			first = p
			continue
		}
		if p.Cost() != first.Cost() {
			t.Fatalf("tie case restart %d costs %v, restart 0 %v", i, p.Cost(), first.Cost())
		}
		moved = moved || !reflect.DeepEqual(p.pos, first.pos)
	}
	if !moved {
		t.Error("tie case restarts all end at the same positions")
	}
	if _, err := Best(fb, 1, 1, 3, 1); err == nil {
		t.Error("Best accepted a grid too small for the topology")
	}
}
