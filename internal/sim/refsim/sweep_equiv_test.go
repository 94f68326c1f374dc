package refsim

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"waferswitch/internal/sim"
)

// The parallelism the simulator keeps is point-level: sim.Sweep shards
// a sweep's points across a pool of warm worker networks, each Reset
// between the points it takes. The tests below hold that sharding to
// the same standard as the serial engine — a sweep split across any
// number of workers is bit-identical to the one-worker sweep, with the
// time-resolved and attribution observers on, and every point agrees
// with the dense reference simulator.

// Observer settings for the sharded sweeps: a short timeline window so
// every point closes several windows, and a sample cap small enough
// that the longer runs compact.
const (
	shardTimelineInterval = 16
	shardTimelineSamples  = 32
)

// shardPoints is the number of points in each sharded sweep: more than
// the largest count in shardCounts, so every worker gets a point and
// most Reset their network at least once.
const shardPoints = 8

// shardCounts is the worker dimension of the equivalence matrix: the
// smallest non-trivial split, two primes that never divide the point
// count evenly, a power of two, and whatever this machine would
// actually use. Counts above the point count clamp, so the same list
// also covers the degenerate splits.
func shardCounts() []int {
	counts := []int{2, 3, 4, 7}
	gmp := runtime.GOMAXPROCS(0)
	for _, c := range counts {
		if c == gmp {
			return counts
		}
	}
	return append(counts, gmp)
}

// sweepSpec runs points copies of the spec's load point as one sweep
// split across the given number of workers, with probe, timeline and
// attribution observers on every point. Point i runs at
// sim.PointSeed(s.Seed, i).
func sweepSpec(t *testing.T, s Spec, points, workers int) *sim.SweepResult {
	t.Helper()
	top, err := s.Build()
	if err != nil {
		t.Fatalf("build %s: %v", s, err)
	}
	cfg := s.Config()
	build := func() (*sim.Network, error) {
		return sim.Build(top, sim.ConstantLatency(s.LinkLat), cfg)
	}
	injf := func(load float64) (sim.Injector, error) {
		ls := s
		ls.Load = load
		return ls.Injector(top.ExternalPorts())
	}
	loads := make([]float64, points)
	for i := range loads {
		loads[i] = s.Load
	}
	res, err := sim.Sweep(build, injf, loads, sim.SweepOptions{
		Workers:          workers,
		Probe:            true,
		TimelineInterval: shardTimelineInterval,
		TimelineSamples:  shardTimelineSamples,
		Attribution:      true,
	})
	if err != nil {
		t.Fatalf("sweep of %s across %d workers: %v", s, workers, err)
	}
	return res
}

// compareSweeps fails the test on any observable difference between the
// one-worker sweep and the sharded one: per-point Stats (struct
// equality, so every float bit matches), and the JSON rendering of the
// whole result — per-point probe snapshots, backpressure reports and
// post-mortems, the aggregate, and the merged timeline and attribution.
func compareSweeps(t *testing.T, s Spec, shards int, serial, sharded *sim.SweepResult) {
	t.Helper()
	ss, hs := serial.Stats(), sharded.Stats()
	if len(ss) != len(hs) {
		t.Fatalf("point counts diverge at shards=%d: serial %d, sharded %d", shards, len(ss), len(hs))
	}
	for i := range ss {
		if ss[i] != hs[i] {
			t.Errorf("point %d stats diverge at shards=%d:\n  serial  %+v\n  sharded %+v\nspec: %s", i, shards, ss[i], hs[i], s)
		}
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("sweep results diverge at shards=%d:\n  serial  %s\n  sharded %s\nspec: %s", shards, want, got, s)
	}
}

// checkAgainstReference runs every point of a sweep of s through the
// dense reference simulator, at the point's own seed, and requires the
// sweep's Stats to match bit for bit.
func checkAgainstReference(t *testing.T, s Spec, res *sim.SweepResult) {
	t.Helper()
	top, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res.Stats() {
		ps := s
		ps.Seed = sim.PointSeed(s.Seed, i)
		inj, err := ps.Injector(top.ExternalPorts())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(top, sim.ConstantLatency(ps.LinkLat), ps.Config(), inj, ps.Load)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref.Stats {
			t.Errorf("sweep point %d diverges from reference:\n  reference %+v\n  sweep     %+v\nspec: %s", i, ref.Stats, got, ps)
		}
	}
}

// TestShardEquivalence is the sharded-sweep matrix: every topology
// family at loads below the knee, at the knee, and past saturation,
// split across every worker count in shardCounts. The one-worker sweep
// is the specification, itself checked point by point against the
// reference simulator; every sharded sweep must be bit-identical to it.
func TestShardEquivalence(t *testing.T) {
	base := Spec{
		Pattern: "uniform",
		LinkLat: 2, VCs: 2, Buf: 8, Pkt: 2,
		RCI: 1, RCO: 1, Pipe: 1, Term: 1,
		Warmup: 40, Measure: 120, Seed: 42,
	}
	families := []string{"clos", "mesh", "fbfly", "dfly"}
	loads := []float64{0.15, 0.45, 0.9}
	for _, fam := range families {
		for _, load := range loads {
			s := base
			s.Family = fam
			s.Size = 1
			s.Load = load
			// The serial sweep is shared by the family/load's subtests
			// and built by whichever of them runs first.
			var serial *sim.SweepResult
			for _, sc := range shardCounts() {
				t.Run(fmt.Sprintf("%s/load=%g/shards=%d", fam, load, sc), func(t *testing.T) {
					if serial == nil {
						serial = sweepSpec(t, s, shardPoints, 1)
						checkAgainstReference(t, s, serial)
					}
					if serial.Points[0].Stats.Completed == 0 {
						t.Fatalf("spec %s completed no packets; test is vacuous", s)
					}
					compareSweeps(t, s, sc, serial, sweepSpec(t, s, shardPoints, sc))
				})
			}
		}
	}
}

// TestShardEquivalenceOracle closes the triangle: for each family the
// spec's own Diff runs the reference and the standalone optimized
// simulator, and point 0 of a three-way sharded sweep — which runs at
// the spec's own seed — must reproduce the reference's Stats too.
func TestShardEquivalenceOracle(t *testing.T) {
	for _, fam := range []string{"clos", "mesh", "fbfly", "dfly"} {
		s := Spec{
			Family: fam, Size: 1, Pattern: "tornado",
			LinkLat: 2, VCs: 4, Buf: 8, Pkt: 2,
			RCI: 1, RCO: 1, Pipe: 1, Term: 1,
			Warmup: 40, Measure: 120, Seed: 7, Load: 0.6,
		}
		t.Run(fam, func(t *testing.T) {
			rep, err := s.Diff()
			if err != nil {
				t.Fatalf("diff %s: %v", s, err)
			}
			if !rep.OK() {
				t.Fatalf("simulators diverge:\n%s", rep.Summary())
			}
			res := sweepSpec(t, s, 3, 3)
			if got := res.Points[0].Stats; got != rep.Ref {
				t.Fatalf("sharded sweep point 0 diverges from reference:\n  reference %+v\n  sweep     %+v\nspec: %s", rep.Ref, got, s)
			}
		})
	}
}

// TestShardEquivalenceSaturated holds a saturated clos under load for a
// long window with a short drain budget, split four ways: every point
// must end saturated (not drained) with identical stranded counts, and
// the attribution observer must produce the same backpressure reports
// and post-mortems whichever worker's recycled network ran the point.
func TestShardEquivalenceSaturated(t *testing.T) {
	s := Spec{Family: "clos", Size: 0, Pattern: "uniform", LinkLat: 2,
		VCs: 4, Buf: 8, Pkt: 2, RCI: 2, RCO: 1, Pipe: 1, Term: 2,
		Warmup: 100, Measure: 4000, Drain: 300, Seed: 4242, Load: 0.95}
	serial := sweepSpec(t, s, 4, 1)
	for i, p := range serial.Points {
		if p.Stats.Drained || p.Backpressure == nil {
			t.Fatalf("saturation point %d drained or has no backpressure report; test is vacuous: %+v", i, p.Stats)
		}
	}
	compareSweeps(t, s, 4, serial, sweepSpec(t, s, 4, 4))
}

// TestShardEquivalenceDegenerate pins the clamping and delegation
// edges: more workers than points clamps to one point per worker, one
// worker runs inline, and zero means GOMAXPROCS.
func TestShardEquivalenceDegenerate(t *testing.T) {
	s := Spec{Family: "mesh", Size: 0, Pattern: "uniform", LinkLat: 1,
		VCs: 2, Buf: 6, Pkt: 2, RCI: 1, RCO: 1, Pipe: 1, Term: 1,
		Warmup: 30, Measure: 100, Seed: 9, Load: 0.3}
	serial := sweepSpec(t, s, 4, 1)
	checkAgainstReference(t, s, serial)
	for _, workers := range []int{11, 1, 0} {
		compareSweeps(t, s, workers, serial, sweepSpec(t, s, 4, workers))
	}
}
