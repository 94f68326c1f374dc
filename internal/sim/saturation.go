package sim

import (
	"fmt"
	"sort"
)

// SaturationSearchOptions configures FindSaturation.
type SaturationSearchOptions struct {
	// Lo and Hi bracket the search in offered load. Lo defaults to 0
	// (zero load trivially drains and is never simulated); Hi defaults
	// to 0.95 and must stay in (Lo, 1].
	Lo, Hi float64
	// Tol is the absolute load tolerance the knee is located to
	// (default 0.02): the returned bracket satisfies
	// FirstSaturatedLoad - LastDrainedLoad <= Tol.
	Tol float64
	// MaxEvals caps the simulated points as a safety net (default 32 —
	// far above the log2((Hi-Lo)/Tol)+2 a normal search needs).
	MaxEvals int
}

// SaturationResult is the outcome of a bisection saturation search. The
// embedded SweepResult holds every probed point in ascending load order
// and their observers merged in that order, exactly as Sweep would over
// the same loads.
type SaturationResult struct {
	// Saturated reports whether any probed load failed to drain. When
	// false the network never saturated within the bracket and
	// FirstSaturatedLoad is 0.
	Saturated bool `json:"saturated"`
	// FirstSaturatedLoad is the lowest probed load that failed to
	// drain; the true knee lies in
	// (LastDrainedLoad, FirstSaturatedLoad], a bracket at most Tol
	// wide (except when the knee sits at or below Lo, reported as
	// FirstSaturatedLoad == Lo).
	FirstSaturatedLoad float64 `json:"first_saturated_load,omitempty"`
	// LastDrainedLoad is the highest probed load that drained (0 when
	// even Lo saturated).
	LastDrainedLoad float64 `json:"last_drained_load,omitempty"`
	// SaturationThroughput is the highest accepted throughput across
	// all probed points — accepted throughput plateaus past the knee,
	// so this matches an exhaustive grid to within the plateau's
	// flatness.
	SaturationThroughput float64 `json:"saturation_throughput"`
	// Evaluations counts the simulated points.
	Evaluations int `json:"evaluations"`
	SweepResult
}

// FindSaturation locates the saturation knee — the lowest offered load
// that fails to drain — by bisection over (Lo, Hi], in
// O(log((Hi-Lo)/Tol)) simulated points instead of a full grid. Each
// evaluation runs through Sweep's per-point runner with every detector
// and observer opt selects (opt.Workers is ignored: the search is
// strictly sequential, so one warm network serves every evaluation). It
// reuses the PointSeed derivation (seed = base + evaluation index);
// since the bisection path is itself a deterministic function of
// per-point outcomes, which are deterministic per seed, the whole search
// reproduces bit-identically no matter how the caller parallelizes
// around it.
//
// Edge bounds: a network that drains at Hi returns Saturated=false
// after one evaluation; a network already saturated at Lo returns
// FirstSaturatedLoad=Lo (the knee is at or below the bracket floor).
func FindSaturation(build Builder, injf InjectorFactory, search SaturationSearchOptions, opt SweepOptions) (*SaturationResult, error) {
	lo, hi := search.Lo, search.Hi
	if hi <= 0 {
		hi = 0.95
	}
	tol := search.Tol
	if tol <= 0 {
		tol = 0.02
	}
	maxEvals := search.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 32
	}
	if lo < 0 || hi > 1 || lo >= hi {
		return nil, fmt.Errorf("sim: FindSaturation bracket [%v, %v] invalid", lo, hi)
	}

	res := &SaturationResult{}
	var wn workerNet
	var rs []pointResult
	eval := func(load float64) (Stats, error) {
		if opt.Progress != nil {
			opt.Progress.AddTotal(1)
		}
		r, err := runPoint(&wn, build, injf, len(rs), load, &opt)
		if err != nil {
			return Stats{}, err
		}
		rs = append(rs, r)
		return r.point.Stats, nil
	}
	finalize := func() (*SaturationResult, error) {
		sort.Slice(rs, func(i, j int) bool { return rs[i].point.Stats.Offered < rs[j].point.Stats.Offered })
		sr, err := reducePoints(rs, &opt)
		if err != nil {
			return nil, err
		}
		res.SweepResult = *sr
		res.Evaluations = len(rs)
		res.SaturationThroughput = SaturationThroughput(res.Stats())
		return res, nil
	}

	st, err := eval(hi)
	if err != nil {
		return nil, err
	}
	if st.Drained {
		res.LastDrainedLoad = hi
		return finalize() // never saturates within the bracket
	}
	res.Saturated = true
	if lo > 0 {
		st, err := eval(lo)
		if err != nil {
			return nil, err
		}
		if !st.Drained {
			res.FirstSaturatedLoad = lo // knee at or below the floor
			return finalize()
		}
		res.LastDrainedLoad = lo
	}
	for hi-lo > tol && len(rs) < maxEvals {
		mid := (lo + hi) / 2
		st, err := eval(mid)
		if err != nil {
			return nil, err
		}
		if st.Drained {
			lo = mid
			res.LastDrainedLoad = mid
		} else {
			hi = mid
		}
	}
	res.FirstSaturatedLoad = hi
	return finalize()
}
