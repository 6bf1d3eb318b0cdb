package collectives_test

import (
	"sync"
	"testing"

	"photon/internal/backend/shm"
	"photon/internal/backend/vsim"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// TestCollectiveSteadyStateAllocGuard pins the steady-state allocation
// count of a barrier plus in-place allreduces, per backend and vector
// sizes. Both backends have allocation-free data paths — shm's rings,
// and on vsim the simulated NIC's pooled frames, WQEs and recycled
// memory regions — so any allocation measured here is the collectives
// layer's own or the engine's on its behalf. Every case reads zero:
//
//   - doubles=8: recursive doubling over the registered arena.
//   - doubles=8192: the ring with rendezvous chunks. Every ring read
//     lands in a posted receive. A ring call that succeeds posts the
//     next call's first steps, so the step-0 RTSs the barrier polls
//     before the next ring call starts land in place too instead of
//     being staged in a slab block and handed over as a
//     middleware-owned copy. On vsim every rendezvous send also
//     registers its chunk with the NIC, which costs nothing once the
//     NIC's free list of deregistered regions is warm.
//   - solver_step: the allreduce_step benchmark's step (16 doubles over
//     the arena, 8192 over the ring, then the barrier), so the RD call
//     and the barrier both sit between two ring calls.
//
// testing.AllocsPerRun counts process-global allocations and runs with
// GOMAXPROCS=1, so the peer ranks iterate in lockstep with the measured
// rank (collectives synchronize them) and their allocations count too —
// the guard covers the whole job, not just rank 0.
func TestCollectiveSteadyStateAllocGuard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		vecLens []int // allreduces per op, in order, before the barrier
	}{
		{"doubles=8", []int{8}},
		{"doubles=8192", []int{8192}},
		{"solver_step", []int{16, 8192}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, backend := range []string{"shm", "vsim"} {
				t.Run(backend, func(t *testing.T) {
					if backend == "vsim" && raceEnabled {
						t.Skip("under -race, sync.Pool drops nicsim's pooled WQEs at random; CI pins this count in its non-race run")
					}
					avg := steadyStateAllocs(t, backend, tc.vecLens)
					t.Logf("%.1f allocs per op", avg)
					if avg > 0 {
						t.Errorf("steady-state allreduces of %v doubles plus a barrier over %s allocate %.1f times per op, want 0", tc.vecLens, backend, avg)
					}
				})
			}
		})
	}
}

// allocCluster boots an n-rank cluster of the named backend and returns
// its per-rank backends and its teardown.
func allocCluster(t *testing.T, backend string, n int) ([]core.Backend, func()) {
	t.Helper()
	bes := make([]core.Backend, n)
	switch backend {
	case "shm":
		cl, err := shm.NewCluster(n, shm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for r := range bes {
			bes[r] = cl.Backend(r)
		}
		return bes, cl.Close
	case "vsim":
		cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for r := range bes {
			bes[r] = cl.Backend(r)
		}
		return bes, cl.Close
	}
	t.Fatalf("unknown backend %q", backend)
	return nil, nil
}

// steadyStateAllocs boots a 4-rank job over the named backend and
// returns the average allocations of one op after warmup: an in-place
// allreduce of each length in vecLens, then a barrier.
func steadyStateAllocs(t *testing.T, backend string, vecLens []int) float64 {
	const (
		n     = 4
		warm  = 50
		runs  = 100
		total = warm + runs + 1 // AllocsPerRun calls f runs+1 times
	)
	bes, closeCluster := allocCluster(t, backend, n)
	defer closeCluster()
	comms := make([]*collectives.Comm, n)
	var boot sync.WaitGroup
	for r := 0; r < n; r++ {
		boot.Add(1)
		go func(r int) {
			defer boot.Done()
			ph, err := core.Init(bes[r], core.Config{})
			if err != nil {
				t.Error(err)
				return
			}
			comms[r] = collectives.New(ph, waitT)
		}(r)
	}
	boot.Wait()
	for r := 0; r < n; r++ {
		if comms[r] == nil {
			t.Fatal("boot failed")
		}
	}

	iter := func(c *collectives.Comm, vecs [][]float64) error {
		for _, vec := range vecs {
			if err := c.AllreduceInPlace(vec, collectives.OpSum); err != nil {
				return err
			}
		}
		return c.Barrier()
	}
	newVecs := func() [][]float64 {
		vecs := make([][]float64, len(vecLens))
		for i, n := range vecLens {
			vecs[i] = make([]float64, n)
		}
		return vecs
	}

	// Peer ranks run exactly `total` lockstep iterations; the
	// collectives themselves pace them against the measured rank.
	var wg sync.WaitGroup
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func(c *collectives.Comm) {
			defer wg.Done()
			vecs := newVecs()
			for i := 0; i < total; i++ {
				if err := iter(c, vecs); err != nil {
					t.Errorf("rank %d iter %d: %v", c.Rank(), i, err)
					return
				}
			}
		}(comms[r])
	}

	vecs := newVecs()
	for _, vec := range vecs {
		for i := range vec {
			vec[i] = float64(i)
		}
	}
	for i := 0; i < warm; i++ {
		if err := iter(comms[0], vecs); err != nil {
			t.Fatalf("warmup iter %d: %v", i, err)
		}
	}
	avg := testing.AllocsPerRun(runs, func() {
		if err := iter(comms[0], vecs); err != nil {
			t.Fatal(err)
		}
	})
	wg.Wait()
	return avg
}
