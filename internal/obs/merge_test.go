package obs

import (
	"math/rand"
	"sort"
	"testing"
)

// Merging K histograms that together saw a sample set must be
// bucket-for-bucket identical to one histogram fed the union, so every
// percentile agrees exactly (and both stay within the documented ≤3.1%
// quantization bound of the exact order statistic).
func TestHistogramMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const parts = 4
	var union Histogram
	pieces := make([]Histogram, parts)
	var all []float64
	for i := 0; i < 8000; i++ {
		v := float64(10 + rng.Intn(50000))
		union.Observe(v)
		pieces[i%parts].Observe(v)
		all = append(all, v)
	}
	var merged Histogram
	for i := range pieces {
		merged.Merge(&pieces[i])
	}
	if merged != union {
		t.Fatal("merged histogram differs from union-fed histogram")
	}
	if merged.Count() != union.Count() || merged.Sum() != union.Sum() ||
		merged.Min() != union.Min() || merged.Max() != union.Max() {
		t.Errorf("merged summary stats disagree: count %d/%d sum %v/%v min %d/%d max %d/%d",
			merged.Count(), union.Count(), merged.Sum(), union.Sum(),
			merged.Min(), union.Min(), merged.Max(), union.Max())
	}
	sort.Float64s(all)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := merged.Percentile(p), union.Percentile(p)
		if got != want {
			t.Errorf("P%v: merged %v != union %v", p*100, got, want)
		}
		// Against the exact order statistic: within one bucket below.
		rank := int(p * float64(len(all)))
		if float64(rank) < p*float64(len(all)) {
			rank++
		}
		exact := all[rank-1]
		if got > exact || got < exact/(1+1.0/32)-1 {
			t.Errorf("P%v: merged %v vs exact %v — outside the 3.1%% bound", p*100, got, exact)
		}
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	var h Histogram
	h.Observe(100)
	before := h
	h.Merge(nil)
	h.Merge(&Histogram{})
	if h != before {
		t.Error("merging nil/empty histograms changed the receiver")
	}
	// Merging into an empty histogram adopts the source's extremes.
	var empty Histogram
	empty.Merge(&before)
	if empty.Min() != 100 || empty.Max() != 100 || empty.Count() != 1 {
		t.Errorf("merge into empty: min=%d max=%d count=%d, want 100/100/1",
			empty.Min(), empty.Max(), empty.Count())
	}
}

func TestCollectorMerge(t *testing.T) {
	a := NewCollector(2, 3)
	b := NewCollector(2, 3)
	a.Cycles, b.Cycles = 100, 50
	a.Injected, b.Injected = 10, 20
	a.Ejected, b.Ejected = 8, 19
	a.Routers[0] = RouterCounters{Flits: 5, VAStalls: 1, SAStalls: 2, CreditStalls: 3, OccSum: 40, OccPeak: 7}
	b.Routers[0] = RouterCounters{Flits: 6, VAStalls: 4, SAStalls: 5, CreditStalls: 6, OccSum: 10, OccPeak: 3}
	b.Routers[1] = RouterCounters{OccPeak: 11}
	a.Channels[2].Flits = 9
	b.Channels[2].Flits = 1
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Cycles != 150 || a.Injected != 30 || a.Ejected != 27 {
		t.Errorf("totals wrong after merge: %+v", a)
	}
	r0 := a.Routers[0]
	if r0.Flits != 11 || r0.VAStalls != 5 || r0.SAStalls != 7 || r0.CreditStalls != 9 || r0.OccSum != 50 {
		t.Errorf("router 0 additive counters wrong: %+v", r0)
	}
	if r0.OccPeak != 7 || a.Routers[1].OccPeak != 11 {
		t.Errorf("OccPeak must take the max: %d / %d", r0.OccPeak, a.Routers[1].OccPeak)
	}
	if a.Channels[2].Flits != 10 {
		t.Errorf("channel flits = %d, want 10", a.Channels[2].Flits)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestCollectorMergeSizeMismatch(t *testing.T) {
	a := NewCollector(2, 3)
	if err := a.Merge(NewCollector(1, 3)); err == nil {
		t.Error("router-count mismatch accepted")
	}
	if err := a.Merge(NewCollector(2, 4)); err == nil {
		t.Error("channel-count mismatch accepted")
	}
}
