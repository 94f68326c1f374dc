package mapping

import (
	"fmt"
	"sort"

	"waferswitch/internal/topo"
)

// SpreadEscape distributes a total external escape budget (in lanes)
// across n boundary cells, capping each cell at perCellCap (the lane
// capacity of the internal link between a boundary I/O chiplet and its
// adjacent SSC). The remainder of an uneven division is spread one lane
// at a time so no capacity is lost to rounding.
func SpreadEscape(totalLanes, n, perCellCap int) []int {
	if n <= 0 {
		return nil
	}
	caps := make([]int, n)
	if totalLanes <= 0 {
		return caps
	}
	base, rem := totalLanes/n, totalLanes%n
	for i := range caps {
		c := base
		if i < rem {
			c++
		}
		if c > perCellCap {
			c = perCellCap
		}
		caps[i] = c
	}
	return caps
}

// RouteExternal routes every node's external (terminal-facing) ports to
// the grid boundary, modeling periphery external I/O: traffic enters and
// leaves the wafer through I/O chiplets abutting the boundary cells of
// the chiplet array and must traverse the chiplet mesh between the
// boundary and the chiplet hosting the port (Section III-B). capacities
// gives the escape budget in lanes of each boundary cell, in the order
// returned by BoundaryCells (use SpreadEscape to build it). Lanes are
// assigned greedily to the nearest boundary cells with remaining
// capacity, and their paths are added to the channel loads.
//
// Area I/O escapes through through-wafer vias underneath each chiplet and
// adds no mesh load; callers simply skip RouteExternal for it.
func (p *Placement) RouteExternal(capacities []int) error {
	if p.externalRouted {
		return fmt.Errorf("mapping: external ports already routed")
	}
	boundary := p.BoundaryCells()
	if len(capacities) != len(boundary) {
		return fmt.Errorf("mapping: %d capacities for %d boundary cells", len(capacities), len(boundary))
	}
	if err := CheckEscape(p.Topo, capacities); err != nil {
		return err
	}
	remaining := make(map[int]int, len(boundary))
	for i, b := range boundary {
		remaining[b] = capacities[i]
	}
	hopsBefore := p.totalLaneHops
	for id, n := range p.Topo.Nodes {
		need := n.ExternalPorts
		if need == 0 {
			continue
		}
		cell := p.pos[id]
		order := p.boundaryByDistance(cell, boundary)
		for _, b := range order {
			if need == 0 {
				break
			}
			avail := remaining[b]
			if avail == 0 {
				continue
			}
			take := need
			if take > avail {
				take = avail
			}
			remaining[b] -= take
			need -= take
			if b != cell {
				p.route(b, cell, take)
			}
		}
		if need > 0 {
			return fmt.Errorf("mapping: node %d could not escape %d external lanes", id, need)
		}
	}
	p.externalLaneHops = p.totalLaneHops - hopsBefore
	p.externalRouted = true
	return nil
}

// CheckEscape returns the error RouteExternal gives every placement of
// t whatever its positions: a negative capacity, or more external lanes
// than the capacities total. When it returns nil, RouteExternal with
// capacities for every boundary cell succeeds, because a node's lanes
// may escape through any boundary cell with capacity left.
func CheckEscape(t *topo.Topology, capacities []int) error {
	totalNeed := 0
	for _, n := range t.Nodes {
		totalNeed += n.ExternalPorts
	}
	totalCap := 0
	for _, c := range capacities {
		if c < 0 {
			return fmt.Errorf("mapping: negative escape capacity %d", c)
		}
		totalCap += c
	}
	if totalNeed > totalCap {
		return fmt.Errorf("mapping: %d external lanes exceed boundary escape capacity %d", totalNeed, totalCap)
	}
	return nil
}

// BoundaryCount is the number of perimeter cells of a rows x cols grid,
// len(BoundaryCells()) of any placement on it.
func BoundaryCount(rows, cols int) int {
	if rows <= 0 || cols <= 0 {
		return 0
	}
	if rows <= 2 || cols <= 2 {
		return rows * cols
	}
	return 2*(rows+cols) - 4
}

// BoundaryCells returns the cells on the grid perimeter in row-major
// order.
func (p *Placement) BoundaryCells() []int {
	var cells []int
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if r == 0 || r == p.Rows-1 || c == 0 || c == p.Cols-1 {
				cells = append(cells, r*p.Cols+c)
			}
		}
	}
	return cells
}

// boundaryByDistance orders boundary cells by Manhattan distance from the
// given cell (ties broken by cell index, keeping the routing
// deterministic).
func (p *Placement) boundaryByDistance(cell int, boundary []int) []int {
	r0, c0 := cell/p.Cols, cell%p.Cols
	order := append([]int(nil), boundary...)
	dist := func(b int) int {
		r, c := b/p.Cols, b%p.Cols
		dr, dc := r-r0, c-c0
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		return dr + dc
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := dist(order[i]), dist(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}
