package collectives_test

import (
	"fmt"
	"sync"
	"testing"

	"photon/internal/backend/shm"
	"photon/internal/collectives"
	"photon/internal/core"
)

// TestCollectiveSteadyStateAllocGuard pins the steady-state allocation
// count of a barrier plus an in-place allreduce, per vector size. The
// job runs over the shared-memory backend, whose data path is
// allocation-free, so any allocation measured here is the collectives
// layer's own or the engine's on its behalf:
//
//   - 8 doubles (recursive doubling over the registered arena): zero.
//   - 8192 doubles (64 KiB, ring with rendezvous chunks): six. Every
//     ring read that finds its posting lands in place; the six all come
//     from step-0 RTSs the preceding barrier polls before the ring has
//     posted its window — such a read lands in a staged block and is
//     handed over as a middleware-owned copy.
//
// testing.AllocsPerRun counts process-global allocations and runs with
// GOMAXPROCS=1, so the peer ranks iterate in lockstep with the measured
// rank (collectives synchronize them) and their allocations count too —
// the guard covers the whole job, not just rank 0.
func TestCollectiveSteadyStateAllocGuard(t *testing.T) {
	for _, tc := range []struct {
		vecLen int
		max    float64
	}{
		{8, 0},
		{8192, 6},
	} {
		t.Run(fmt.Sprintf("doubles=%d", tc.vecLen), func(t *testing.T) {
			avg := steadyStateAllocs(t, tc.vecLen)
			t.Logf("%.1f allocs per barrier+allreduce", avg)
			if avg > tc.max {
				t.Errorf("steady-state barrier+allreduce of %d doubles allocates %.1f times per op, want <= %v", tc.vecLen, avg, tc.max)
			}
		})
	}
}

// steadyStateAllocs boots a 4-rank shm job and returns the average
// allocations of one barrier+allreduce of vecLen doubles after warmup.
func steadyStateAllocs(t *testing.T, vecLen int) float64 {
	const (
		n     = 4
		warm  = 50
		runs  = 100
		total = warm + runs + 1 // AllocsPerRun calls f runs+1 times
	)
	cl, err := shm.NewCluster(n, shm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	comms := make([]*collectives.Comm, n)
	var boot sync.WaitGroup
	for r := 0; r < n; r++ {
		boot.Add(1)
		go func(r int) {
			defer boot.Done()
			ph, err := core.Init(cl.Backend(r), core.Config{})
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
