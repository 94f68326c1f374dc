package sim

// AbortOptions configures the early-abort saturation detector: an
// online divergence test that stops a run as soon as saturation is
// certain instead of burning the full drain budget to report the same
// Drained=false. The zero value selects the defaults, so
// &AbortOptions{} arms the detector with its stock tuning.
//
// The detector runs on a fixed cycle cadence (Every) from state that is
// a pure function of the seed, so an aborted run is deterministic and
// bit-identical up to the abort point for any worker count. It watches
// two signals during the measurement window — the gap between accepted
// and offered flits, and monotone growth of the terminal source-queue
// backlog — and, during the drain phase, whether the measured-packet
// completion rate can still retire the stranded backlog before the
// deadline. The measurement window always runs to completion, so
// Offered and Accepted (and therefore SaturationThroughput) are exactly
// those of a full run; only the drain budget — 3-10x the measurement
// window in the stock configurations, and the most expensive cycles of
// all since every buffer is full — is cut short. Drained is not
// guaranteed: the completion-rate extrapolation can abort a point that
// would have drained late in its budget, which flips Drained and so
// FirstSaturatedLoad (and a bisection's knee). Full-scale fig22 shows
// it: its proprietary-routing knee reads 0.60 in a full run and 0.50
// with the detector armed.
type AbortOptions struct {
	// Every is the detector cadence in cycles (default 128). Checks are
	// O(terminals), so the amortized cost is negligible; the cadence is
	// fixed per run, which keeps aborted runs deterministic per seed.
	Every int
	// Windows is the number of consecutive diverging windows required
	// before the run is declared saturated (default 3). Higher values
	// trade later aborts for more certainty.
	Windows int
	// GapFactor classifies a measurement window as diverging when its
	// accepted flits fall below GapFactor times the offered flits
	// (default 0.85). Below saturation the per-window acceptance tracks
	// the offered load to within a few percent, so the default leaves a
	// wide noise margin.
	GapFactor float64
}

const (
	defaultAbortEvery     = 128
	defaultAbortWindows   = 3
	defaultAbortGapFactor = 0.85
)

// abortState is the detector's runtime state, attached to a Network by
// SetAbort and consulted by Run on the check cadence. All fields are
// owned by the simulating goroutine.
type abortState struct {
	every     int64
	windows   int
	gapFactor float64

	streak        int
	armed         bool
	lastEjected   int64
	lastCompleted int
	lastBacklog   int64
}

// SetAbort arms the early-abort saturation detector for the next Run
// (nil detaches). Like the probe and the timeline, the detector hides
// behind one nil check per cycle, so a run without it pays only a
// predicted branch and the steady-state loop stays at 0 allocs/op.
// Call before Run.
func (n *Network) SetAbort(o *AbortOptions) {
	if o == nil {
		n.ab = nil
		return
	}
	a := &abortState{
		every:     defaultAbortEvery,
		windows:   defaultAbortWindows,
		gapFactor: defaultAbortGapFactor,
	}
	if o.Every > 0 {
		a.every = int64(o.Every)
	}
	if o.Windows > 0 {
		a.windows = o.Windows
	}
	if o.GapFactor > 0 {
		a.gapFactor = o.GapFactor
	}
	n.ab = a
}

// sourceBacklog counts the packets waiting in terminal source queues —
// the unbounded queue that grows without limit past saturation. One
// O(terminals) walk per check beats maintaining a counter on the
// per-flit hot path.
func (n *Network) sourceBacklog() int64 {
	var b int64
	for t := 0; t < n.T; t++ {
		b += int64(len(n.srcQ[t]) - int(n.srcQHead[t]))
	}
	return b
}

// measureCheck evaluates one divergence window during measurement: the
// window counts as diverging when accepted flits fall short of the
// offered volume by more than the gap factor while the source backlog
// grew. Enough consecutive diverging windows arm the detector — the
// drain budget is then skipped entirely when measurement ends.
func (a *abortState) measureCheck(n *Network, offered float64) {
	ejected := n.ejectedFlits
	window := ejected - a.lastEjected
	a.lastEjected = ejected
	backlog := n.sourceBacklog()
	expect := offered * float64(n.T) * float64(a.every)
	if float64(window) < a.gapFactor*expect && backlog > a.lastBacklog {
		a.streak++
		if a.streak >= a.windows {
			a.armed = true
		}
	} else {
		a.streak = 0
	}
	a.lastBacklog = backlog
}

// startDrain resets the per-phase state when the drain loop begins.
func (a *abortState) startDrain(completed int) {
	a.streak = 0
	a.lastCompleted = completed
}

// drainCheck evaluates one window of the drain phase and reports
// whether the run should abort: either the stranded backlog provably
// exceeds the remaining ejection capacity (at most one packet tail per
// terminal per cycle), or the completion rate has extrapolated short of
// the deadline for enough consecutive windows.
func (a *abortState) drainCheck(n *Network, deadline int64) bool {
	remaining := int64(n.measuredBorn - n.completed)
	if remaining <= 0 {
		return false
	}
	left := deadline - n.now
	if remaining > left*int64(n.T) {
		return true // provably cannot drain in the budget left
	}
	window := int64(n.completed - a.lastCompleted)
	a.lastCompleted = n.completed
	checksLeft := (left + a.every - 1) / a.every
	if window*checksLeft < remaining {
		a.streak++
	} else {
		a.streak = 0
	}
	return a.streak >= a.windows
}
