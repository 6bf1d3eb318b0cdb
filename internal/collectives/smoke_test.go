package collectives_test

import (
	"fmt"
	"testing"

	"photon/internal/collectives"
)

// TestManyRankSmoke runs the full collective set at job sizes well past
// anything the unit tests use — 16 and 24 simulated ranks — so the
// schedule compiler, RID space, and credit flow see real fan-out. CI
// runs this under -race.
func TestManyRankSmoke(t *testing.T) {
	for _, n := range []int{16, 24} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			comms := newCommsWait(t, n, 0)
			runAll(t, comms, func(c *collectives.Comm) error {
				for iter := 0; iter < 3; iter++ {
					if err := c.Barrier(); err != nil {
						return fmt.Errorf("barrier: %w", err)
					}
					sum, err := c.AllreduceScalar(1, collectives.OpSum)
					if err != nil {
						return fmt.Errorf("allreduce: %w", err)
					}
					if sum != float64(n) {
						return fmt.Errorf("allreduce sum = %v, want %d", sum, n)
					}
					// Large vector (8 KiB and up, past the arena slot):
					// ring reduce-scatter + allgather.
					vec := make([]float64, 64*n)
					for i := range vec {
						vec[i] = float64(c.Rank())
					}
					if err := c.AllreduceInPlace(vec, collectives.OpSum); err != nil {
						return fmt.Errorf("ring allreduce: %w", err)
					}
					want := float64(n*(n-1)) / 2
					if vec[0] != want || vec[len(vec)-1] != want {
						return fmt.Errorf("ring allreduce = %v, want %v", vec[0], want)
					}
					blobs := make([][]byte, n)
					for dst := range blobs {
						blobs[dst] = []byte{byte(c.Rank()), byte(dst), byte(iter)}
					}
					out, err := c.Alltoall(blobs)
					if err != nil {
						return fmt.Errorf("alltoall: %w", err)
					}
					for src := range out {
						if out[src][0] != byte(src) || out[src][1] != byte(c.Rank()) {
							return fmt.Errorf("alltoall[%d] = %v", src, out[src])
						}
					}
				}
				return nil
			})
		})
	}
}
