// Package mapping places a logical switch topology onto the wafer's
// physical chiplet mesh and evaluates the resulting channel loads. Every
// logical link is routed dimension-order (X then Y) through intermediate
// chiplets acting as feedthrough repeaters, as in Section III-C of the
// paper. The quality of a mapping is the maximum number of logical lanes
// crossing any adjacent chiplet pair — the quantity C(M) that the paper's
// Algorithm 1 (pairwise exchange) minimizes.
package mapping

import (
	"fmt"
	"math/rand"

	"waferswitch/internal/par"
	"waferswitch/internal/topo"
)

// Placement maps topology nodes onto a Rows x Cols grid of chiplet sites
// and maintains the per-edge channel loads of the dimension-order-routed
// logical links.
type Placement struct {
	Topo *topo.Topology
	Rows int
	Cols int

	pos  []int // node -> cell index (r*Cols + c)
	cell []int // cell -> node index, or -1 if empty

	// hLoad[r*(Cols-1)+c] is the lane load on the horizontal edge between
	// (r,c) and (r,c+1); vLoad[r*Cols+c] is the load between (r,c) and
	// (r+1,c). Loads count bidirectional lanes.
	hLoad []int
	vLoad []int

	// totalLaneHops is the sum over logical links of lanes x path length;
	// it drives internal-I/O power and is the tie-breaker cost.
	totalLaneHops int

	// incident[n] lists the indices of links touching node n.
	incident [][]int

	// externalLaneHops accumulates the lane-hops of periphery escape
	// paths added by RouteExternal.
	externalLaneHops int
	externalRouted   bool
}

// New places the topology's nodes uniformly at random onto a rows x cols
// grid (one node per cell) and routes all logical links. It fails if the
// grid cannot hold the topology.
func New(t *topo.Topology, rows, cols int, rng *rand.Rand) (*Placement, error) {
	n := len(t.Nodes)
	if rows < 1 || cols < 1 || rows*cols < n {
		return nil, fmt.Errorf("mapping: %dx%d grid cannot hold %d chiplets", rows, cols, n)
	}
	p := &Placement{
		Topo:  t,
		Rows:  rows,
		Cols:  cols,
		pos:   make([]int, n),
		cell:  make([]int, rows*cols),
		hLoad: make([]int, rows*(cols-1)),
		vLoad: make([]int, (rows-1)*cols),
	}
	for i := range p.cell {
		p.cell[i] = -1
	}
	perm := rng.Perm(rows * cols)
	for i := 0; i < n; i++ {
		p.pos[i] = perm[i]
		p.cell[perm[i]] = i
	}
	p.incident = make([][]int, n)
	for li, l := range t.Links {
		p.incident[l.A] = append(p.incident[l.A], li)
		p.incident[l.B] = append(p.incident[l.B], li)
	}
	for _, l := range t.Links {
		p.route(p.pos[l.A], p.pos[l.B], l.Lanes)
	}
	return p, nil
}

// NewWithPositions places node i at positions[i]. Used for identity
// layouts of native mesh topologies and for tests.
func NewWithPositions(t *topo.Topology, rows, cols int, positions []int) (*Placement, error) {
	n := len(t.Nodes)
	if len(positions) != n {
		return nil, fmt.Errorf("mapping: %d positions for %d nodes", len(positions), n)
	}
	if rows*cols < n {
		return nil, fmt.Errorf("mapping: %dx%d grid cannot hold %d chiplets", rows, cols, n)
	}
	p := &Placement{
		Topo:  t,
		Rows:  rows,
		Cols:  cols,
		pos:   make([]int, n),
		cell:  make([]int, rows*cols),
		hLoad: make([]int, rows*(cols-1)),
		vLoad: make([]int, (rows-1)*cols),
	}
	for i := range p.cell {
		p.cell[i] = -1
	}
	for i, c := range positions {
		if c < 0 || c >= rows*cols {
			return nil, fmt.Errorf("mapping: position %d out of range", c)
		}
		if p.cell[c] != -1 {
			return nil, fmt.Errorf("mapping: cell %d assigned twice", c)
		}
		p.pos[i] = c
		p.cell[c] = i
	}
	p.incident = make([][]int, n)
	for li, l := range t.Links {
		p.incident[l.A] = append(p.incident[l.A], li)
		p.incident[l.B] = append(p.incident[l.B], li)
	}
	for _, l := range t.Links {
		p.route(p.pos[l.A], p.pos[l.B], l.Lanes)
	}
	return p, nil
}

// route adds (or with negative lanes, removes) a dimension-order path
// between two cells to the channel loads.
func (p *Placement) route(ca, cb, lanes int) {
	ra, colA := ca/p.Cols, ca%p.Cols
	rb, colB := cb/p.Cols, cb%p.Cols
	hops := 0
	// X first: walk row ra from colA to colB.
	lo, hi := colA, colB
	if lo > hi {
		lo, hi = hi, lo
	}
	for c := lo; c < hi; c++ {
		p.hLoad[ra*(p.Cols-1)+c] += lanes
		hops++
	}
	// Then Y: walk column colB from ra to rb.
	rlo, rhi := ra, rb
	if rlo > rhi {
		rlo, rhi = rhi, rlo
	}
	for r := rlo; r < rhi; r++ {
		p.vLoad[r*p.Cols+colB] += lanes
		hops++
	}
	p.totalLaneHops += hops * lanes
}

// MaxLoad returns C(M): the maximum lane load on any mesh edge.
func (p *Placement) MaxLoad() int {
	m := 0
	for _, l := range p.hLoad {
		if l > m {
			m = l
		}
	}
	for _, l := range p.vLoad {
		if l > m {
			m = l
		}
	}
	return m
}

// TotalLaneHops returns the sum over logical links of lanes x physical
// path length, including any routed external escape paths.
func (p *Placement) TotalLaneHops() int { return p.totalLaneHops }

// ExternalLaneHops returns the lane-hops contributed by periphery escape
// routing (zero until RouteExternal is called).
func (p *Placement) ExternalLaneHops() int { return p.externalLaneHops }

// InternalLaneHops returns the lane-hops of logical topology links only.
func (p *Placement) InternalLaneHops() int { return p.totalLaneHops - p.externalLaneHops }

// Loads returns copies of the horizontal and vertical edge load arrays
// (for utilization maps such as Fig 8).
func (p *Placement) Loads() (h, v []int) {
	h = append([]int(nil), p.hLoad...)
	v = append([]int(nil), p.vLoad...)
	return h, v
}

// NodeCell returns the grid coordinates of a node.
func (p *Placement) NodeCell(node int) (row, col int) {
	c := p.pos[node]
	return c / p.Cols, c % p.Cols
}

// AvgLinkHops returns the average physical path length of a logical lane.
func (p *Placement) AvgLinkHops() float64 {
	lanes := 0
	for _, l := range p.Topo.Links {
		lanes += l.Lanes
	}
	if lanes == 0 {
		return 0
	}
	return float64(p.InternalLaneHops()) / float64(lanes)
}

// Cost is the lexicographic optimization objective: the bottleneck
// channel load first (the paper's C(M)), total lane-hops second.
type Cost struct {
	MaxLoad  int
	LaneHops int
}

// Less reports whether c is strictly better than d.
func (c Cost) Less(d Cost) bool {
	if c.MaxLoad != d.MaxLoad {
		return c.MaxLoad < d.MaxLoad
	}
	return c.LaneHops < d.LaneHops
}

// Cost returns the placement's current cost.
func (p *Placement) Cost() Cost {
	return Cost{MaxLoad: p.MaxLoad(), LaneHops: p.totalLaneHops}
}

// Optimize runs the paper's Algorithm 1: repeated sweeps over all cell
// pairs, keeping any swap that improves the cost, until a full sweep
// makes no improvement or maxPasses is reached. It returns the number of
// passes executed. Swaps are priced by a swapEval, so only accepted swaps
// write to the channel loads. Optimize must be called before
// RouteExternal.
func (p *Placement) Optimize(maxPasses int) int {
	if p.externalRouted {
		panic("mapping: Optimize called after RouteExternal")
	}
	cells := p.Rows * p.Cols
	e := newSwapEval(p)
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
				if e.improves(ca, cb, best) {
					e.commit(ca, cb)
					best = Cost{MaxLoad: e.maxLoad(), LaneHops: p.totalLaneHops}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return passes
}

// Best runs the optimizer from `restarts` random initial placements and
// returns the placement with the lowest cost. The paper uses 1000
// restarts but reports <1% spread; we default to fewer for speed (the
// caller chooses). Every initial placement is drawn first, in order,
// from the one stream seeded by seed; the optimizations then run in
// parallel, and the winner is the lowest (Cost, restart index), so the
// result does not depend on the worker count.
func Best(t *topo.Topology, rows, cols, restarts int, seed int64) (*Placement, error) {
	if restarts < 1 {
		restarts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	ps := make([]*Placement, restarts)
	for i := range ps {
		p, err := New(t, rows, cols, rng)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	if err := par.Each(restarts, par.Options{Name: "mapping.Best"}, func(i int) error {
		ps[i].Optimize(50)
		return nil
	}); err != nil {
		return nil, err
	}
	best, bestCost := ps[0], ps[0].Cost()
	for _, p := range ps[1:] {
		if c := p.Cost(); c.Less(bestCost) {
			best, bestCost = p, c
		}
	}
	return best, nil
}
