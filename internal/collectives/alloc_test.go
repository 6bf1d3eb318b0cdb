package collectives_test

import (
	"fmt"
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
// count of a barrier plus an in-place allreduce, per backend and vector
// size. Both backends have allocation-free data paths — shm's rings,
// and on vsim the simulated NIC's pooled frames, WQEs and recycled
// memory regions — so any allocation measured here is the collectives
// layer's own or the engine's on its behalf:
//
//   - 8 doubles (recursive doubling over the registered arena): zero.
//   - 8192 doubles (64 KiB, ring with rendezvous chunks): five on shm,
//     three on vsim. Every ring read that finds its posting lands in
//     place; the rest are step-0 RTSs the preceding barrier polls
//     before the ring has posted its window. Such a read lands in a
//     slab block (whose header the slab recycles) and is handed over
//     as a middleware-owned copy: one allocation each. shm delivers an
//     RTS sooner than vsim, so more of them beat the window. On vsim
//     every rendezvous send also registers its chunk with the NIC,
//     which costs nothing once the NIC's free list of deregistered
//     regions is warm.
//
// testing.AllocsPerRun counts process-global allocations and runs with
// GOMAXPROCS=1, so the peer ranks iterate in lockstep with the measured
// rank (collectives synchronize them) and their allocations count too —
// the guard covers the whole job, not just rank 0.
func TestCollectiveSteadyStateAllocGuard(t *testing.T) {
	for _, tc := range []struct {
		vecLen int
		max    map[string]float64 // by backend
	}{
		{8, map[string]float64{"shm": 0, "vsim": 0}},
		{8192, map[string]float64{"shm": 5, "vsim": 3}},
	} {
		t.Run(fmt.Sprintf("doubles=%d", tc.vecLen), func(t *testing.T) {
			for _, backend := range []string{"shm", "vsim"} {
				t.Run(backend, func(t *testing.T) {
					if backend == "vsim" && raceEnabled {
						t.Skip("under -race, sync.Pool drops nicsim's pooled WQEs at random; CI pins this count in its non-race run")
					}
					avg := steadyStateAllocs(t, backend, tc.vecLen)
					t.Logf("%.1f allocs per barrier+allreduce", avg)
					if avg > tc.max[backend] {
						t.Errorf("steady-state barrier+allreduce of %d doubles over %s allocates %.1f times per op, want <= %v", tc.vecLen, backend, avg, tc.max[backend])
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
// returns the average allocations of one barrier+allreduce of vecLen
// doubles after warmup.
func steadyStateAllocs(t *testing.T, backend string, vecLen int) float64 {
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

	iter := func(c *collectives.Comm, vec []float64) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.AllreduceInPlace(vec, collectives.OpSum)
	}

	// Peer ranks run exactly `total` lockstep iterations; the
	// collectives themselves pace them against the measured rank.
	var wg sync.WaitGroup
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func(c *collectives.Comm) {
			defer wg.Done()
			vec := make([]float64, vecLen)
			for i := 0; i < total; i++ {
				if err := iter(c, vec); err != nil {
					t.Errorf("rank %d iter %d: %v", c.Rank(), i, err)
					return
				}
			}
		}(comms[r])
	}

	vec := make([]float64, vecLen)
	for i := range vec {
		vec[i] = float64(i)
	}
	for i := 0; i < warm; i++ {
		if err := iter(comms[0], vec); err != nil {
			t.Fatalf("warmup iter %d: %v", i, err)
		}
	}
	avg := testing.AllocsPerRun(runs, func() {
		if err := iter(comms[0], vec); err != nil {
			t.Fatal(err)
		}
	})
	wg.Wait()
	return avg
}
