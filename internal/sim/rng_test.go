package sim

import "testing"

// TestSplitmix64Seed pins the rand.Source contract of Seed: reseeding a
// used stream restarts it exactly where a fresh stream with that state
// starts, whatever it drew before.
func TestSplitmix64Seed(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 62} {
		var s splitmix64
		for i := 0; i < 17; i++ {
			s.Uint64() // dirty the state first
		}
		s.Seed(seed)
		fresh := splitmix64{x: uint64(seed)}
		for i := 0; i < 64; i++ {
			if got, want := s.Int63(), fresh.Int63(); got != want {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, got, want)
			}
		}
	}
}
