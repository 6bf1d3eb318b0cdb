package collectives

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// ringWorld boots n ranks over vsim behind a chaos group, with an armed
// failure detector. Tests force the ring with AllreduceForced.
func ringWorld(t *testing.T, n int) ([]*Comm, []*chaos.Backend, *chaos.Group) {
	t.Helper()
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
			comms[r] = New(ph, 30*time.Second)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: init: %v", r, err)
		}
	}
	return comms, bes, group
}

// runRanks runs fn on every comm concurrently and returns the errors.
func runRanks(comms []*Comm, fn func(r int, c *Comm) error) []error {
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for r, c := range comms {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(r int, c *Comm) {
			defer wg.Done()
			errs[r] = fn(r, c)
		}(r, c)
	}
	wg.Wait()
	return errs
}

// ringSum runs one ring allreduce of vecLen doubles on every rank (rank
// r contributes r+i at index i) and checks each result exactly.
func ringSum(comms []*Comm, vecLen int) []error {
	n := len(comms)
	return runRanks(comms, func(r int, c *Comm) error {
		vec := make([]float64, vecLen)
		for i := range vec {
			vec[i] = float64(r + i)
		}
		if err := c.AllreduceForced("ring", vec, OpSum); err != nil {
			return err
		}
		for i, v := range vec {
			if want := float64(n*i + n*(n-1)/2); v != want {
				return fmt.Errorf("length %d element %d: got %v want %v", vecLen, i, v, want)
			}
		}
		return nil
	})
}

// ringRID is the RID of c's ring receive from its left neighbor for
// step s of generation gen.
func ringRID(c *Comm, gen uint64, s int) uint64 {
	return rid(gen, kindAllreduce, 0, s, (c.rank-1+c.size)%c.size)
}

// stillPosted withdraws the receives c's ring posted under gen for
// steps [0, steps) and returns the steps that were still posted.
func stillPosted(c *Comm, gen uint64, steps int) []int {
	var live []int
	for s := 0; s < steps; s++ {
		if c.ph.CancelRecv(ringRID(c, gen, s)) {
			live = append(live, s)
		}
	}
	return live
}

// TestRingAbortWithdrawsPostings kills a rank mid-ring with rendezvous
// chunks and checks every survivor's posted-receive window afterwards:
// no receive of the aborted call may still be posted, nor one carried
// for the call after it, so the engine holds no delivery rights into
// the Comm's ring banks once the call has returned (CancelRecv reports
// false for every step's RID).
func TestRingAbortWithdrawsPostings(t *testing.T) {
	const n, victim, chunk = 6, 2, 512 // 4 KiB chunks: rendezvous
	comms, bes, _ := ringWorld(t, n)
	if comms[0].ph.EagerThreshold() >= 8*chunk {
		t.Fatalf("chunks of %d bytes would go eager (threshold %d)", 8*chunk, comms[0].ph.EagerThreshold())
	}
	for r, err := range ringSum(comms, n*chunk) {
		if err != nil {
			t.Fatalf("warmup rank %d: %v", r, err)
		}
	}
	bes[victim].CrashAfterOps(2)
	for r, err := range ringSum(comms, n*chunk) {
		if r == victim {
			continue
		}
		if !errors.Is(err, ErrCommRevoked) {
			t.Fatalf("rank %d: want a revocation, got %v", r, err)
		}
		c := comms[r]
		if live := stillPosted(c, c.cgen(c.ringGen.Load()), 2*(n-1)); live != nil {
			t.Errorf("rank %d: ring steps %v still posted after the abort", r, live)
		}
		if live := stillPosted(c, c.cgen(c.ringGen.Load()+1), ringBanks); live != nil {
			t.Errorf("rank %d: next call's steps %v still posted after the abort", r, live)
		}
		if c.carry.steps != 0 {
			t.Errorf("rank %d: %d carried steps recorded after the abort", r, c.carry.steps)
		}
	}
}

// TestRingRevokeBetweenCalls kills a rank after a successful ring call,
// while every rank holds the receives it carried for the next one. The
// revocation lands in a barrier. It must withdraw the carried receives
// on every survivor, none of them may resolve, and the next ring call
// must fail with ErrCommRevoked.
func TestRingRevokeBetweenCalls(t *testing.T) {
	const n, victim, vecLen = 4, 1, 4 * 1024 // 8 KiB chunks: rendezvous
	comms, _, group := ringWorld(t, n)
	for r, err := range ringSum(comms, vecLen) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, c := range comms {
		if c.carry.steps != ringBanks {
			t.Fatalf("rank %d: %d steps carried after a successful call, want %d", r, c.carry.steps, ringBanks)
		}
	}
	group.Kill(victim)
	for r, err := range runRanks(comms, func(r int, c *Comm) error { return c.Barrier() }) {
		if r != victim && !errors.Is(err, ErrCommRevoked) {
			t.Fatalf("rank %d: barrier after the kill: want a revocation, got %v", r, err)
		}
	}
	for r, c := range comms {
		if r == victim {
			continue
		}
		next := c.cgen(c.ringGen.Load() + 1)
		if live := stillPosted(c, next, ringBanks); live != nil {
			t.Errorf("rank %d: carried steps %v still posted after the revoke", r, live)
		}
		// A deadline already passed: WaitAll makes exactly one take
		// pass over the carried steps' RIDs and times out.
		rids := make([]uint64, ringBanks)
		for s := range rids {
			rids[s] = ringRID(c, next, s)
		}
		out := make([]core.Completion, ringBanks)
		spec := core.WaitSpec{Deadline: time.Now().Add(-time.Second)}
		if err := c.ph.WaitAll(c.w, rids, out, &spec, false); !errors.Is(err, core.ErrTimeout) {
			t.Errorf("rank %d: probe of the carried steps: want ErrTimeout, got %v", r, err)
		}
		for s := range out {
			if out[s].RID != 0 {
				t.Errorf("rank %d: carried step %d resolved a delivery after the revoke", r, s)
			}
		}
		vec := make([]float64, vecLen)
		if err := c.AllreduceInPlace(vec, OpSum); !errors.Is(err, ErrCommRevoked) {
			t.Errorf("rank %d: ring call on the revoked comm: want ErrCommRevoked, got %v", r, err)
		}
	}
}

// TestShrinkWithdrawsCarry shrinks a healthy communicator right after a
// ring call: the parent's carried receives must be withdrawn, and the
// successor's ring (its own epoch, its own banks) must reduce exactly.
func TestShrinkWithdrawsCarry(t *testing.T) {
	const n, vecLen = 4, 4 * 1024
	comms, _, _ := ringWorld(t, n)
	for r, err := range ringSum(comms, vecLen) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	next := make([]*Comm, n)
	for r, err := range runRanks(comms, func(r int, c *Comm) (err error) {
		next[r], err = c.Shrink()
		return err
	}) {
		if err != nil {
			t.Fatalf("rank %d: Shrink: %v", r, err)
		}
	}
	for r, c := range comms {
		if live := stillPosted(c, c.cgen(c.ringGen.Load()+1), ringBanks); live != nil {
			t.Errorf("rank %d: parent's carried steps %v still posted after Shrink", r, live)
		}
	}
	for i := 0; i < 3; i++ {
		for r, err := range ringSum(next, vecLen) {
			if err != nil {
				t.Fatalf("shrunken rank %d, call %d: %v", r, i, err)
			}
		}
	}
}

// TestRingMixedLengthsStayExact alternates ring calls of different
// lengths (eager and rendezvous chunks, even and uneven splits) with a
// tree reduce, which reuses the Comm's receive scratch, and a gather in
// between. Rank 1 dawdles before the reduce on odd calls, so its left
// neighbor, which runs the reduce and gather as a leaf, starts the next
// ring call early and its first RTSs meet the postings carried for the
// previous length. Every result must be exact, and the ring surfaces a
// failed PostRecv, so a carried posting left in place (a duplicate)
// fails the call.
func TestRingMixedLengthsStayExact(t *testing.T) {
	const n, calls = 4, 120
	lens := []int{8192, 4096, 8192, 6002, 64, 2048, 2048, 8192}
	comms, _, _ := ringWorld(t, n)
	errs := runRanks(comms, func(r int, c *Comm) error {
		red := make([]float64, 16)
		for i := 0; i < calls; i++ {
			L := lens[i%len(lens)]
			vec := make([]float64, L)
			for j := range vec {
				vec[j] = float64(r + j)
			}
			if err := c.AllreduceForced("ring", vec, OpSum); err != nil {
				return fmt.Errorf("call %d (length %d): %w", i, L, err)
			}
			for j, v := range vec {
				if want := float64(n*j + n*(n-1)/2); v != want {
					return fmt.Errorf("call %d (length %d) element %d: got %v want %v", i, L, j, v, want)
				}
			}
			if r == 1 && i%2 == 1 {
				time.Sleep(2 * time.Millisecond)
			}
			for j := range red {
				red[j] = float64(r * j)
			}
			got, err := c.Reduce(1, red, OpSum)
			if err != nil {
				return fmt.Errorf("call %d: reduce: %w", i, err)
			}
			if r == 1 {
				for j, v := range got {
					if want := float64(j * n * (n - 1) / 2); v != want {
						return fmt.Errorf("call %d: reduce element %d: got %v want %v", i, j, v, want)
					}
				}
			}
			blobs, err := c.Gather(1, []byte{byte(r), byte(i)})
			if err != nil {
				return fmt.Errorf("call %d: gather: %w", i, err)
			}
			for src, b := range blobs {
				if len(b) != 2 || b[0] != byte(src) || b[1] != byte(i) {
					return fmt.Errorf("call %d: gather from %d: got %v", i, src, b)
				}
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}
