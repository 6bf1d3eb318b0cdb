package collectives

import (
	"errors"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// TestRingAbortWithdrawsPostings kills a rank mid-ring with rendezvous
// chunks and checks every survivor's posted-receive window afterwards:
// no receive of the aborted call may still be posted, so the engine
// holds no delivery rights into the Comm's scratch once the call has
// returned (CancelRecv reports false for every step's RID).
func TestRingAbortWithdrawsPostings(t *testing.T) {
	const n, victim, chunk = 6, 2, 512 // 4 KiB chunks: rendezvous
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	group := chaos.NewGroup(3 * time.Millisecond)
	bes := make([]*chaos.Backend, n)
	comms := make([]*Comm, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		bes[r] = chaos.WrapGroup(cl.Backend(r), chaos.Plan{Seed: int64(r)}, group)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ph, err := core.Init(bes[r], core.Config{HeartbeatInterval: 2 * time.Millisecond, SuspectAfter: 6 * time.Millisecond})
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = NewWithConfig(ph, Config{Timeout: 30 * time.Second, ForceAllreduce: "ring"})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: init: %v", r, err)
		}
	}
	if comms[0].ph.EagerThreshold() >= 8*chunk {
		t.Fatalf("chunks of %d bytes would go eager (threshold %d)", 8*chunk, comms[0].ph.EagerThreshold())
	}

	run := func() []error {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				vec := make([]float64, n*chunk)
				for i := range vec {
					vec[i] = float64(r + i)
				}
				errs[r] = comms[r].AllreduceInPlace(vec, OpSum)
			}(r)
		}
		wg.Wait()
		return errs
	}
	for r, err := range run() {
		if err != nil {
			t.Fatalf("warmup rank %d: %v", r, err)
		}
	}
	bes[victim].CrashAfterOps(2)
	for r, err := range run() {
		if r == victim {
			continue
		}
		if !errors.Is(err, ErrCommRevoked) {
			t.Fatalf("rank %d: want a revocation, got %v", r, err)
		}
		c := comms[r]
		gen := c.cgen(c.gen.Load())
		left := (r - 1 + n) % n
		for s := 0; s < 2*(n-1); s++ {
			if c.ph.CancelRecv(rid(gen, kindAllreduce, 0, s, left)) {
				t.Errorf("rank %d: ring step %d receive still posted after the abort", r, s)
			}
		}
	}
}
