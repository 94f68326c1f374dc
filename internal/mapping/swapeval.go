package mapping

import "math"

// swapEval prices candidate cell swaps against a placement's committed
// channel loads without writing to them. A swap re-routes only the links
// incident to the two swapped nodes, and every XY path is one horizontal
// segment in a row plus one vertical segment in a column, so the swap's
// load change is a sum of segment additions and removals. Each is two
// O(1) updates of a per-row (horizontal edges) or per-column (vertical
// edges) difference array; a prefix sum over only the touched rows and
// columns then recovers the new loads there, and the cached per-line
// maxima of the committed loads stand in for every untouched line.
//
// Lines are numbered rows first (0..Rows-1), then columns
// (Rows..Rows+Cols-1). The evaluator is valid only while the placement
// changes through commit.
type swapEval struct {
	p *Placement

	// hDiff[r*Cols+c] is row r's difference array over its horizontal
	// edges; vDiff[c*Rows+r] is column c's over its vertical edges. The
	// next stage clears what the last one set, so each starts from zero.
	hDiff []int32
	vDiff []int32

	rowOf   []int32 // cell -> grid row, sparing path a division
	colOf   []int32 // cell -> grid column
	lineMax []int   // committed max load of each line
	touched []int   // lines the staged swap's old or new paths cross
	marked  []bool  // marked[l] reports whether line l is in touched

	dHops int // LaneHops change of the staged swap
}

// newSwapEval allocates an evaluator for p's current loads.
func newSwapEval(p *Placement) swapEval {
	cells, lines := p.Rows*p.Cols, p.Rows+p.Cols
	cellBuf := make([]int32, 4*cells)
	lineBuf := make([]int, 2*lines)
	e := swapEval{
		p:       p,
		hDiff:   cellBuf[:cells:cells],
		vDiff:   cellBuf[cells : 2*cells : 2*cells],
		rowOf:   cellBuf[2*cells : 3*cells : 3*cells],
		colOf:   cellBuf[3*cells:],
		lineMax: lineBuf[:lines:lines],
		touched: lineBuf[lines:lines],
		marked:  make([]bool, lines),
	}
	for c := range cells {
		e.rowOf[c], e.colOf[c] = int32(c/p.Cols), int32(c%p.Cols)
	}
	for l := range e.lineMax {
		e.lineMax[l] = e.lineLoadMax(l)
	}
	return e
}

// lineLoadMax returns the maximum committed load on line l.
func (e *swapEval) lineLoadMax(l int) int {
	p, m := e.p, 0
	if l < p.Rows {
		w := p.Cols - 1
		for _, v := range p.hLoad[l*w : (l+1)*w] {
			m = max(m, v)
		}
		return m
	}
	for i := l - p.Rows; i < len(p.vLoad); i += p.Cols {
		m = max(m, p.vLoad[i])
	}
	return m
}

// maxLoad returns the committed placement's MaxLoad from the cached
// per-line maxima.
func (e *swapEval) maxLoad() int {
	m := 0
	for _, v := range e.lineMax {
		m = max(m, v)
	}
	return m
}

// stage loads the difference arrays, touched lines and dHops with the
// swap of cells ca and cb, after clearing the previous swap's entries.
// A link between the two nodes is staged once.
func (e *swapEval) stage(ca, cb int) {
	p := e.p
	for _, l := range e.touched {
		if l < p.Rows {
			clear(e.hDiff[l*p.Cols : (l+1)*p.Cols])
		} else {
			c := l - p.Rows
			clear(e.vDiff[c*p.Rows : (c+1)*p.Rows])
		}
		e.marked[l] = false
	}
	e.touched = e.touched[:0]
	e.dHops = 0
	na, nb := p.cell[ca], p.cell[cb]
	if na != -1 {
		e.stageLinks(na, nb, ca, cb)
	}
	if nb != -1 {
		e.stageLinks(nb, -2, ca, cb)
	}
}

// stageLinks stages the re-routing of node n's links, skipping those to
// skipPeer (staged with the peer).
func (e *swapEval) stageLinks(n, skipPeer, ca, cb int) {
	p := e.p
	for _, li := range p.incident[n] {
		l := &p.Topo.Links[li]
		if (l.A == n && l.B == skipPeer) || (l.B == n && l.A == skipPeer) {
			continue
		}
		a, b := p.pos[l.A], p.pos[l.B]
		lanes := int32(l.Lanes)
		oldHops := e.path(a, b, -lanes)
		newHops := e.path(swapped(a, ca, cb), swapped(b, ca, cb), lanes)
		e.dHops += (newHops - oldHops) * l.Lanes
	}
}

// swapped returns where the content of cell c sits after swapping ca and
// cb.
func swapped(c, ca, cb int) int {
	switch c {
	case ca:
		return cb
	case cb:
		return ca
	}
	return c
}

// path adds lanes along the dimension-order path from cell a to cell b
// to the difference arrays (the staged twin of Placement.route) and
// returns its hop count.
func (e *swapEval) path(a, b int, lanes int32) int {
	p := e.p
	ra, colA := int(e.rowOf[a]), int(e.colOf[a])
	rb, colB := int(e.rowOf[b]), int(e.colOf[b])
	lo, hi := min(colA, colB), max(colA, colB)
	if lo < hi {
		e.hDiff[ra*p.Cols+lo] += lanes
		e.hDiff[ra*p.Cols+hi] -= lanes
		e.touch(ra)
	}
	rlo, rhi := min(ra, rb), max(ra, rb)
	if rlo < rhi {
		e.vDiff[colB*p.Rows+rlo] += lanes
		e.vDiff[colB*p.Rows+rhi] -= lanes
		e.touch(p.Rows + colB)
	}
	return hi - lo + rhi - rlo
}

func (e *swapEval) touch(l int) {
	if !e.marked[l] {
		e.marked[l] = true
		e.touched = append(e.touched, l)
	}
}

// scan returns the maximum staged load over the touched lines, or the
// first one over limit.
func (e *swapEval) scan(limit int) int {
	m := 0
	for _, l := range e.touched {
		if m = max(m, e.stagedLine(l, false)); m > limit {
			return m
		}
	}
	return m
}

// stagedLine returns the maximum load on line l with the staged changes
// added, and writes those loads to the placement if apply is set.
func (e *swapEval) stagedLine(l int, apply bool) int {
	p, m := e.p, 0
	var run int32
	if l < p.Rows {
		d := e.hDiff[l*p.Cols : (l+1)*p.Cols]
		loads := p.hLoad[l*(p.Cols-1) : (l+1)*(p.Cols-1)]
		for c, v := range loads {
			run += d[c]
			v += int(run)
			if apply {
				loads[c] = v
			}
			m = max(m, v)
		}
		return m
	}
	c := l - p.Rows
	d := e.vDiff[c*p.Rows : (c+1)*p.Rows]
	for r := 0; r < p.Rows-1; r++ {
		run += d[r]
		v := p.vLoad[r*p.Cols+c] + int(run)
		if apply {
			p.vLoad[r*p.Cols+c] = v
		}
		m = max(m, v)
	}
	return m
}

// improves reports whether swapping cells ca and cb gives a cost Less
// than best, which must be the placement's current cost.
func (e *swapEval) improves(ca, cb int, best Cost) bool {
	e.stage(ca, cb)
	// The swap is Less iff the new MaxLoad stays at or under limit.
	limit := best.MaxLoad - 1
	if e.dHops < 0 {
		limit = best.MaxLoad
	}
	for l, v := range e.lineMax {
		if !e.marked[l] && v > limit {
			return false
		}
	}
	return e.scan(limit) <= limit
}

// cost returns the exact cost the placement would have after swapping
// cells ca and cb.
func (e *swapEval) cost(ca, cb int) Cost {
	e.stage(ca, cb)
	m := e.scan(math.MaxInt)
	for l, v := range e.lineMax {
		if !e.marked[l] {
			m = max(m, v)
		}
	}
	return Cost{MaxLoad: m, LaneHops: e.p.totalLaneHops + e.dHops}
}

// commit applies the swap just priced by improves or cost, which must be
// of cells ca and cb: it adds the staged load changes of the touched
// lines to the channel loads, refreshes their cached maxima and moves
// the two nodes.
func (e *swapEval) commit(ca, cb int) {
	p := e.p
	for _, l := range e.touched {
		e.lineMax[l] = e.stagedLine(l, true)
	}
	p.totalLaneHops += e.dHops
	na, nb := p.cell[ca], p.cell[cb]
	p.cell[ca], p.cell[cb] = nb, na
	if na != -1 {
		p.pos[na] = cb
	}
	if nb != -1 {
		p.pos[nb] = ca
	}
}
