package sim

import (
	"runtime"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
)

// buildBytes returns the bytes one Build of t under cfg allocates. The
// route tables are cached per topology, so after the first call it
// measures the network alone.
func buildBytes(t *testing.T, tp *topo.Topology, cfg Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := Build(tp, ConstantLatency(1), cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(n)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildFootprint pins that input-buffer storage scales with ports ×
// BufPerPort, not VCs × BufPerPort, on the largest simulated network
// shape: a 1024-port Clos of radix-64 chips with 16 VCs and 24-flit
// buffers (fig24). Going from 1 VC to 16 VCs may only add per-VC
// pipeline state (about 15 bytes a VC); a per-VC flit ring would add
// another BufPerPort × 4 = 96 bytes a VC. The whole network must also
// stay below what the per-VC flit rings alone used to take.
func TestBuildFootprint(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(1024, chip)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		NumVCs: 16, BufPerPort: 24, PacketFlits: 4,
		RCIngress: 2, RCOther: 2, PipeDelay: 9, TermDelay: 8,
		WarmupCycles: 500, MeasureCycles: 1000, Seed: 1,
	}
	n, err := Build(cl, ConstantLatency(1), cfg) // warms the route cache
	if err != nil {
		t.Fatal(err)
	}
	ports := uint64(n.R * n.maxP)
	extraVCs := uint64(cfg.NumVCs - 1)

	one := cfg
	one.NumVCs = 1
	b1 := buildBytes(t, cl, one)
	b16 := buildBytes(t, cl, cfg)
	const perVCStateMax = 32
	if grow := b16 - b1; grow > ports*extraVCs*perVCStateMax {
		t.Errorf("16 VCs allocate %d bytes more than 1 VC (%d ports): over %d bytes per extra VC per port, so flit storage scales with VCs",
			grow, ports, grow/(ports*extraVCs))
	}
	perVCRings := ports * uint64(cfg.NumVCs*cfg.BufPerPort) * 4
	if b16 >= perVCRings {
		t.Errorf("Build allocates %d bytes, not below the %d bytes of per-VC flit rings", b16, perVCRings)
	}
	t.Logf("%d ports: Build allocates %d bytes at 1 VC, %d at 16 VCs", ports, b1, b16)
}
