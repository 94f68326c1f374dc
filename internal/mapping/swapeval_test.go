package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
)

// unrouteNode removes the paths of all links incident to the node, and
// routeNode re-adds them, walking each path hop by hop with route.
func (p *Placement) unrouteNode(n int, skipPeer int) {
	for _, li := range p.incident[n] {
		l := p.Topo.Links[li]
		if (l.A == n && l.B == skipPeer) || (l.B == n && l.A == skipPeer) {
			continue // handled once by the caller for links between the pair
		}
		p.route(p.pos[l.A], p.pos[l.B], -l.Lanes)
	}
}

func (p *Placement) routeNode(n int, skipPeer int) {
	for _, li := range p.incident[n] {
		l := p.Topo.Links[li]
		if (l.A == n && l.B == skipPeer) || (l.B == n && l.A == skipPeer) {
			continue
		}
		p.route(p.pos[l.A], p.pos[l.B], l.Lanes)
	}
}

// swapCells exchanges the contents of two cells (either may be empty),
// keeping the channel loads consistent. Links between the two nodes are
// unrouted/rerouted exactly once. It is the apply/revert move of the
// reference optimizers, independent of swapEval.
func (p *Placement) swapCells(ca, cb int) {
	na, nb := p.cell[ca], p.cell[cb]
	if na == nb { // both empty
		return
	}
	if na != -1 {
		p.unrouteNode(na, nb)
	}
	if nb != -1 {
		p.unrouteNode(nb, -2) // -2 never matches, so pair links removed here
	}
	p.cell[ca], p.cell[cb] = nb, na
	if na != -1 {
		p.pos[na] = cb
	}
	if nb != -1 {
		p.pos[nb] = ca
	}
	if na != -1 {
		p.routeNode(na, nb)
	}
	if nb != -1 {
		p.routeNode(nb, -2)
	}
}

// optimizeRef is Algorithm 1 as Optimize ran before swaps were priced by
// a swapEval: apply each candidate swap, compare Cost(), revert. It is
// the oracle Optimize must match exactly.
func (p *Placement) optimizeRef(maxPasses int) int {
	if p.externalRouted {
		panic("mapping: Optimize called after RouteExternal")
	}
	cells := p.Rows * p.Cols
	best := p.Cost()
	passes := 0
	for passes < maxPasses {
		passes++
		improved := false
		for ca := 0; ca < cells; ca++ {
			for cb := ca + 1; cb < cells; cb++ {
				if p.cell[ca] == -1 && p.cell[cb] == -1 {
					continue
				}
				p.swapCells(ca, cb)
				if c := p.Cost(); c.Less(best) {
					best = c
					improved = true
				} else {
					p.swapCells(ca, cb) // revert
				}
			}
		}
		if !improved {
			break
		}
	}
	return passes
}

// annealRef is Anneal as it ran before moves were priced by a swapEval:
// every move is applied, its energy read from Cost(), and a rejected
// move reverted. It is the oracle Anneal must match exactly, down to the
// rng draws.
func (p *Placement) annealRef(sweeps int, rng *rand.Rand) {
	if p.externalRouted {
		panic("mapping: Anneal called after RouteExternal")
	}
	cells := p.Rows * p.Cols
	if cells < 2 || sweeps < 1 {
		return
	}
	energy := func() float64 {
		c := p.Cost()
		return float64(c.MaxLoad) + float64(c.LaneHops)*1e-7
	}
	cur := energy()
	bestPos := append([]int(nil), p.pos...)
	best := cur

	var deltaSum float64
	const probes = 20
	for i := 0; i < probes; i++ {
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb {
			continue
		}
		p.swapCells(ca, cb)
		e := energy()
		if d := e - cur; d > 0 {
			deltaSum += d
		}
		p.swapCells(ca, cb)
	}
	t0 := deltaSum/probes + 1
	moves := sweeps * cells

	for m := 0; m < moves; m++ {
		temp := t0 * math.Pow(0.01/t0, float64(m)/float64(moves))
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb || (p.cell[ca] == -1 && p.cell[cb] == -1) {
			continue
		}
		p.swapCells(ca, cb)
		e := energy()
		d := e - cur
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			cur = e
			if cur < best {
				best = cur
				copy(bestPos, p.pos)
			}
		} else {
			p.swapCells(ca, cb)
		}
	}
	p.restorePositions(bestPos)
}

// samePlacement reports the first difference between two placements'
// positions, cells, loads and lane-hops, or "".
func samePlacement(p, q *Placement) string {
	switch {
	case !slices.Equal(p.pos, q.pos):
		return fmt.Sprintf("pos %v vs %v", p.pos, q.pos)
	case !slices.Equal(p.cell, q.cell):
		return fmt.Sprintf("cell %v vs %v", p.cell, q.cell)
	case !slices.Equal(p.hLoad, q.hLoad):
		return fmt.Sprintf("hLoad %v vs %v", p.hLoad, q.hLoad)
	case !slices.Equal(p.vLoad, q.vLoad):
		return fmt.Sprintf("vLoad %v vs %v", p.vLoad, q.vLoad)
	case p.TotalLaneHops() != q.TotalLaneHops():
		return fmt.Sprintf("TotalLaneHops %d vs %d", p.TotalLaneHops(), q.TotalLaneHops())
	}
	return ""
}

// twinPlacements returns two identical random placements of tp.
func twinPlacements(t testing.TB, tp *topo.Topology, rows, cols int, seed int64) (p, q *Placement) {
	t.Helper()
	p, err := New(tp, rows, cols, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	q, err = New(tp, rows, cols, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return p, q
}

func closTopo(t testing.TB, ports, deradix int) *topo.Topology {
	t.Helper()
	chip, err := ssc.MustTH5(200).Deradix(deradix)
	if err != nil {
		t.Fatal(err)
	}
	c, err := topo.HomogeneousClos(ports, chip)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOptimizeMatchesReference(t *testing.T) {
	fb, err := topo.FlattenedButterfly(3, 4, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		name       string
		tp         *topo.Topology
		rows, cols int
		long       bool // one seed, and skipped under -short
	}
	var shapes []shape
	for _, c := range []struct{ ports, deradix int }{
		{1024, 1}, {2048, 1}, {4096, 1}, {8192, 1}, {1024, 2}, {4096, 2}, {8192, 2},
	} {
		tp := closTopo(t, c.ports, c.deradix)
		rows, cols := topo.NearSquare(len(tp.Nodes))
		long := len(tp.Nodes) > 48
		name := fmt.Sprintf("clos%d-r%d", c.ports, 256/c.deradix)
		shapes = append(shapes, shape{name, tp, rows, cols, long})
		if !long {
			shapes = append(shapes, shape{name + "-empty", tp, rows + 1, cols, long})
		}
	}
	c12 := closTopo(t, 1024, 1)
	shapes = append(shapes,
		shape{"flatbutterfly3x4", fb, 3, 4, false},
		shape{"flatbutterfly3x4-empty", fb, 4, 4, false},
		shape{"clos1024-1xN", c12, 1, 12, false},
		shape{"clos1024-1xN-empty", c12, 1, 14, false},
		shape{"clos1024-Nx1", c12, 12, 1, false},
		shape{"clos1024-Nx1-empty", c12, 13, 1, false})
	for _, s := range shapes {
		if s.long && testing.Short() {
			continue
		}
		seeds := []int64{1, 2, 7}
		if s.long {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			p, q := twinPlacements(t, s.tp, s.rows, s.cols, seed)
			got, want := p.Optimize(50), q.optimizeRef(50)
			if got != want {
				t.Errorf("%s seed %d: %d passes, reference %d", s.name, seed, got, want)
			}
			if d := samePlacement(p, q); d != "" {
				t.Errorf("%s seed %d: placements differ: %s", s.name, seed, d)
			}
		}
	}
}

// Property: on random placements, including empty cells, the
// evaluator's verdict and exact cost for any swap equal applying the
// swap and reading Cost(), and pricing never writes to the loads.
// Accepted swaps are committed and must leave the loads equal to a
// rebuild from scratch and the cached maxima equal to the loads, so
// later pricings run against state the evaluator wrote itself.
func TestSwapEvalVerdictProperty(t *testing.T) {
	fb, err := topo.FlattenedButterfly(3, 3, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	tops := []*topo.Topology{closTopo(t, 1024, 1), closTopo(t, 2048, 2), fb}
	f := func(seed int64, ti, extra uint8, pairs [16][2]uint16) bool {
		tp := tops[int(ti)%len(tops)]
		rows, cols := topo.NearSquare(len(tp.Nodes))
		rows += int(extra) % 3
		p, err := New(tp, rows, cols, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		e := newSwapEval(p)
		cells := rows * cols
		for _, pr := range pairs {
			ca, cb := int(pr[0])%cells, int(pr[1])%cells
			if ca == cb {
				continue
			}
			cur := p.Cost()
			h0, v0 := p.Loads()
			better := e.improves(ca, cb, cur)
			priced := e.cost(ca, cb)
			if !slices.Equal(p.hLoad, h0) || !slices.Equal(p.vLoad, v0) || p.Cost() != cur {
				t.Logf("pricing (%d,%d) wrote to the loads", ca, cb)
				return false
			}
			p.swapCells(ca, cb)
			want := p.Cost()
			p.swapCells(ca, cb)
			if priced != want || better != want.Less(cur) {
				t.Logf("swap (%d,%d): evaluator %+v better=%v, applied %+v better=%v",
					ca, cb, priced, better, want, want.Less(cur))
				return false
			}
			if better {
				e.commit(ca, cb)
				rebuilt, err := NewWithPositions(tp, rows, cols, p.pos)
				if err != nil {
					t.Fatal(err)
				}
				if d := samePlacement(p, rebuilt); d != "" {
					t.Logf("commit (%d,%d) leaked: %s", ca, cb, d)
					return false
				}
				if p.Cost() != want {
					t.Logf("commit (%d,%d): cost %+v, priced %+v", ca, cb, p.Cost(), want)
					return false
				}
				for l, m := range e.lineMax {
					if m != e.lineLoadMax(l) {
						t.Logf("commit (%d,%d): line %d cached max %d, loads %d", ca, cb, l, m, e.lineLoadMax(l))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Anneal prices moves with a swapEval; its trajectory, rng draws and
// BestAnnealed's pick must equal the swap/Cost/revert reference.
func TestAnnealMatchesReference(t *testing.T) {
	for _, c := range []struct{ ports, deradix, extraRows, sweeps int }{
		{1024, 1, 0, 30}, {2048, 1, 1, 20}, {2048, 2, 0, 10}, {4096, 1, 0, 5},
	} {
		tp := closTopo(t, c.ports, c.deradix)
		rows, cols := topo.NearSquare(len(tp.Nodes))
		rows += c.extraRows
		for _, seed := range []int64{1, 5} {
			p, q := twinPlacements(t, tp, rows, cols, seed)
			rp, rq := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			p.Anneal(c.sweeps, rp)
			q.annealRef(c.sweeps, rq)
			if d := samePlacement(p, q); d != "" {
				t.Errorf("clos%d/%d seed %d: placements differ: %s", c.ports, c.deradix, seed, d)
			}
			if a, b := rp.Int63(), rq.Int63(); a != b {
				t.Errorf("clos%d/%d seed %d: rng streams diverged", c.ports, c.deradix, seed)
			}
		}
		// BestAnnealed against the same loop over annealRef.
		got, err := BestAnnealed(tp, rows, cols, 2, c.sweeps, 9)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		var want *Placement
		for i := 0; i < 2; i++ {
			q, err := New(tp, rows, cols, rng)
			if err != nil {
				t.Fatal(err)
			}
			q.annealRef(c.sweeps, rng)
			if want == nil || q.Cost().Less(want.Cost()) {
				want = q
			}
		}
		if d := samePlacement(got, want); d != "" {
			t.Errorf("clos%d/%d BestAnnealed differs: %s", c.ports, c.deradix, d)
		}
	}
}

// fuzzTopo returns topology i%5 of the small set FuzzOptimizeEquivalence
// draws from: Clos nodes are only A or only B link ends,
// flattened-butterfly nodes are both.
func fuzzTopo(t testing.TB, i uint8) *topo.Topology {
	switch i % 5 {
	case 0:
		return closTopo(t, 1024, 1)
	case 1:
		return closTopo(t, 2048, 1)
	case 2:
		return closTopo(t, 1024, 2)
	}
	rows, cols := 3, 3
	if i%5 == 4 {
		rows, cols = 2, 5
	}
	fb, err := topo.FlattenedButterfly(rows, cols, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// FuzzOptimizeEquivalence diffs Optimize against optimizeRef on a fuzzed
// topology, grid shape and seed. The grid has 1 + rows%n rows (n nodes)
// and just enough columns to hold the nodes plus extraCols%3 more, so
// 1-row and 1-column grids and grids with empty cells are all reachable.
func FuzzOptimizeEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, ti, rows, extraCols uint8, seed int64) {
		tp := fuzzTopo(t, ti)
		n := len(tp.Nodes)
		r := 1 + int(rows)%n
		c := (n+r-1)/r + int(extraCols)%3
		p, q := twinPlacements(t, tp, r, c, seed)
		got, want := p.Optimize(50), q.optimizeRef(50)
		if got != want {
			t.Fatalf("%s on %dx%d seed %d: %d passes, reference %d", tp.Name, r, c, seed, got, want)
		}
		if d := samePlacement(p, q); d != "" {
			t.Fatalf("%s on %dx%d seed %d: placements differ: %s", tp.Name, r, c, seed, d)
		}
	})
}
