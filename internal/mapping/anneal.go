package mapping

import (
	"math"
	"math/rand"

	"waferswitch/internal/topo"
)

// Anneal optimizes a placement by simulated annealing over random cell
// swaps, as an alternative to the paper's greedy pairwise-exchange
// heuristic (Algorithm 1). The paper argues pairwise exchange explores
// local optima well with restarts; annealing explores a single longer
// trajectory that can cross cost barriers. BenchmarkAnnealVsPairwise
// compares the two at equal time budgets.
//
// The energy is the same lexicographic cost as Optimize: bottleneck
// channel load first, total lane-hops as a dense tie-breaker (scaled so
// it never outweighs one unit of bottleneck load). Moves are priced
// exactly by a swapEval, as in Optimize, so a rejected move never writes
// to the channel loads.
func (p *Placement) Anneal(sweeps int, rng *rand.Rand) {
	if p.externalRouted {
		panic("mapping: Anneal called after RouteExternal")
	}
	cells := p.Rows * p.Cols
	if cells < 2 || sweeps < 1 {
		return
	}
	ev := newSwapEval(p)
	cur := energy(p.Cost())
	bestPos := append([]int(nil), p.pos...)
	best := cur

	// Initial temperature from the typical uphill move size: sample a
	// few random swaps.
	var deltaSum float64
	const probes = 20
	for i := 0; i < probes; i++ {
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb {
			continue
		}
		if d := energy(ev.cost(ca, cb)) - cur; d > 0 {
			deltaSum += d
		}
	}
	t0 := deltaSum/probes + 1
	moves := sweeps * cells

	for m := 0; m < moves; m++ {
		temp := t0 * math.Pow(0.01/t0, float64(m)/float64(moves))
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb || (p.cell[ca] == -1 && p.cell[cb] == -1) {
			continue
		}
		e := energy(ev.cost(ca, cb))
		d := e - cur
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			ev.commit(ca, cb)
			cur = e
			if cur < best {
				best = cur
				copy(bestPos, p.pos)
			}
		}
	}
	// Restore the best placement seen.
	p.restorePositions(bestPos)
}

// energy is Anneal's scalar form of the lexicographic cost.
func energy(c Cost) float64 {
	return float64(c.MaxLoad) + float64(c.LaneHops)*1e-7
}

// restorePositions rebuilds the placement at the given node positions.
func (p *Placement) restorePositions(positions []int) {
	for _, l := range p.Topo.Links {
		p.route(p.pos[l.A], p.pos[l.B], -l.Lanes)
	}
	for i := range p.cell {
		p.cell[i] = -1
	}
	copy(p.pos, positions)
	for n, c := range p.pos {
		p.cell[c] = n
	}
	for _, l := range p.Topo.Links {
		p.route(p.pos[l.A], p.pos[l.B], l.Lanes)
	}
}

// BestAnnealed runs annealing from `restarts` random initial placements
// and returns the best result, mirroring Best for the greedy optimizer.
// Unlike Best, its restarts run serially: Anneal draws its moves from
// the same rng stream that draws the next restart's initial placement,
// so restart i's start depends on every draw of the restarts before it.
func BestAnnealed(t *topo.Topology, rows, cols, restarts, sweeps int, seed int64) (*Placement, error) {
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
		p.Anneal(sweeps, rng)
		if c := p.Cost(); best == nil || c.Less(bestCost) {
			best, bestCost = p, c
		}
	}
	return best, nil
}
