package sim

import (
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// benchCycleAtLoad measures per-cycle cost of the steady-state loop at a
// fixed offered load: the network is warmed well past the transient (at
// and beyond saturation the buffers are full and every router is busy
// every cycle), then b.N single cycles are stepped. ns/op is therefore
// ns/cycle in the regime the load names.
func benchCycleAtLoad(b *testing.B, top *topo.Topology, load float64) {
	b.Helper()
	ports := top.ExternalPorts()
	cfg := Config{
		NumVCs: 4, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 10, MeasureCycles: 10, Seed: 7,
	}
	n, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := SyntheticInjector(traffic.Uniform(ports), cfg.PacketFlits)(load)
	if err != nil {
		b.Fatal(err)
	}
	for ; n.now < 4000; n.now++ {
		n.step(inj)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.step(inj)
		n.now++
	}
}

func benchClos(b *testing.B) *topo.Topology {
	b.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

func benchFbfly(b *testing.B) *topo.Topology {
	b.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := topo.FlattenedButterfly(3, 3, chip)
	if err != nil {
		b.Fatal(err)
	}
	return fb
}

// BenchmarkSimCycleSaturated pins per-cycle cost past the saturation
// knee (offered 0.9; the 128-port Clos saturates near 0.73 accepted,
// the 3x3 flattened butterfly near 0.83), where the Section VI sweeps
// spend their wall-clock: every input port holds flits, most VCs are
// active, and switch allocation runs every router every cycle. This is
// the regime the low-load BenchmarkSimCycle guard does not cover.
func BenchmarkSimCycleSaturated(b *testing.B) {
	b.Run("clos", func(b *testing.B) { benchCycleAtLoad(b, benchClos(b), 0.9) })
	b.Run("fbfly", func(b *testing.B) { benchCycleAtLoad(b, benchFbfly(b), 0.9) })
}

// BenchmarkSimCycleKnee pins per-cycle cost at the saturation knee
// (offered 0.75 on the Clos: latency has turned up but the network
// still drains) — the operating point bisection knee searches evaluate
// most often.
func BenchmarkSimCycleKnee(b *testing.B) {
	benchCycleAtLoad(b, benchClos(b), 0.75)
}
