package vsim_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

func newCluster(t *testing.T, n int) *vsim.Cluster {
	t.Helper()
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestBackendIdentity(t *testing.T) {
	cl := newCluster(t, 3)
	for r, b := range cl.Backends() {
		if b.Rank() != r || b.Size() != 3 {
			t.Fatalf("backend %d: rank=%d size=%d", r, b.Rank(), b.Size())
		}
		if b.Device() == nil {
			t.Fatal("nil device")
		}
	}
	if cl.Fabric().NumNodes() != 3 {
		t.Fatal("fabric size wrong")
	}
}

func TestRegisterDeregister(t *testing.T) {
	cl := newCluster(t, 2)
	b := cl.Backend(0)
	buf := make([]byte, 128)
	rb, lk, err := b.Register(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Len != 128 || rb.Addr == 0 || lk == nil {
		t.Fatalf("descriptor = %+v", rb)
	}
	if fn, ok := b.WriteActivity(rb); !ok || fn == nil {
		t.Fatal("WriteActivity missing for live registration")
	}
	if err := b.Deregister(rb); err != nil {
		t.Fatal(err)
	}
	if err := b.Deregister(rb); err == nil {
		t.Fatal("double deregister accepted")
	}
	if _, ok := b.WriteActivity(rb); ok {
		t.Fatal("WriteActivity should fail after deregister")
	}
}

func TestApplyLocalValidates(t *testing.T) {
	cl := newCluster(t, 1)
	b := cl.Backend(0)
	buf := make([]byte, 64)
	rb, _, _ := b.Register(buf)
	if err := b.ApplyLocal(rb.Addr, rb.RKey, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatal("ApplyLocal did not place data")
	}
	if err := b.ApplyLocal(rb.Addr, 9999, []byte{1}); err == nil {
		t.Fatal("bad rkey accepted")
	}
	if err := b.ApplyLocal(rb.Addr+100, rb.RKey, []byte{1}); err == nil {
		t.Fatal("out-of-bounds accepted")
	}
}

func TestWriteActivityCounts(t *testing.T) {
	cl := newCluster(t, 2)
	target := make([]byte, 64)
	rb, _, _ := cl.Backend(1).Register(target)
	act, ok := cl.Backend(1).WriteActivity(rb)
	if !ok {
		t.Fatal("no activity counter")
	}
	before := act()
	if err := cl.Backend(0).PostWrite(1, []byte{7}, rb.Addr, rb.RKey, 1, true); err != nil {
		t.Fatal(err)
	}
	var comps [4]core.BackendCompletion
	for {
		if n := cl.Backend(0).Poll(comps[:]); n > 0 {
			if !comps[0].OK {
				t.Fatalf("write failed: %v", comps[0].Err)
			}
			break
		}
	}
	if act() != before+1 {
		t.Fatalf("activity = %d, want %d", act(), before+1)
	}
}

func TestExchangeRepeatedGenerations(t *testing.T) {
	cl := newCluster(t, 3)
	for gen := 0; gen < 5; gen++ {
		var wg sync.WaitGroup
		outs := make([][][]byte, 3)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				outs[r], _ = cl.Backend(r).Exchange([]byte{byte(gen), byte(r)})
			}(r)
		}
		wg.Wait()
		for r := 0; r < 3; r++ {
			for src := 0; src < 3; src++ {
				if outs[r][src][0] != byte(gen) || outs[r][src][1] != byte(src) {
					t.Fatalf("gen %d rank %d blob[%d] = %v", gen, r, src, outs[r][src])
				}
			}
		}
	}
}

func TestPostToBadRank(t *testing.T) {
	cl := newCluster(t, 2)
	b := cl.Backend(0)
	if err := b.PostWrite(5, []byte{1}, 0x1000, 1, 0, false); err != core.ErrBadRank {
		t.Fatalf("PostWrite bad rank: %v", err)
	}
	if err := b.PostRead(-1, []byte{1}, 0x1000, 1, 0); err != core.ErrBadRank {
		t.Fatalf("PostRead bad rank: %v", err)
	}
	if err := b.PostFetchAdd(9, make([]byte, 8), 0x1000, 1, 1, 0); err != core.ErrBadRank {
		t.Fatalf("PostFetchAdd bad rank: %v", err)
	}
	if err := b.PostCompSwap(9, make([]byte, 8), 0x1000, 1, 0, 1, 0); err != core.ErrBadRank {
		t.Fatalf("PostCompSwap bad rank: %v", err)
	}
}

// TestSQFullTranslatesToWouldBlock: with one outstanding request
// allowed and a 2 ms wire, a second write posted inside the first
// one's round trip is refused with ErrWouldBlock, and a retry succeeds
// once the ACK is back, no earlier than one round trip after the first.
func TestSQFullTranslatesToWouldBlock(t *testing.T) {
	const lat = 2 * time.Millisecond
	cl, err := vsim.NewCluster(2, fabric.Model{Latency: lat}, nicsim.Config{SQDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	target := make([]byte, 64)
	rb, _, _ := cl.Backend(1).Register(target)
	write := func() error { return cl.Backend(0).PostWrite(1, []byte{1}, rb.Addr, rb.RKey, 0, false) }
	start := time.Now()
	if err := write(); err != nil {
		t.Fatal(err)
	}
	if err := write(); err != core.ErrWouldBlock {
		if err != nil || time.Since(start) < 2*lat {
			t.Fatalf("second write inside the first one's round trip: %v, want ErrWouldBlock", err)
		}
		t.Skipf("poster descheduled past the round trip (%v): nothing to assert", time.Since(start))
	}
	deadline := start.Add(5 * time.Second)
	for {
		err := write()
		if err == nil {
			break
		}
		if err != core.ErrWouldBlock || time.Now().After(deadline) {
			t.Fatalf("retry: %v", err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if rtt := time.Since(start); rtt < 2*lat {
		t.Fatalf("retry accepted after %v, inside the %v round trip", rtt, 2*lat)
	}
}

// TestIdleClusterRunsNoGoroutine: a zero-delay vsim job runs no
// fabric goroutine while idle. At N = 2, 4 and 8, building the cluster
// starts none, and after every rank has written to every rank (self
// included), with one write per target parked behind its held DMA lock
// so that delivery goroutines must start, the goroutine count returns
// to its baseline.
func TestIdleClusterRunsNoGoroutine(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			base := settledGoroutines()
			cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if got := runtime.NumGoroutine(); got > base {
				t.Fatalf("NewCluster(%d) started %d goroutines", n, got-base)
			}
			rbs := make([]mem.RemoteBuffer, n)
			dmas := make([]sync.Locker, n)
			for r := range rbs {
				if rbs[r], dmas[r], err = cl.Backend(r).Register(make([]byte, 8*n)); err != nil {
					t.Fatal(err)
				}
			}
			post := func(src, dst int) {
				if err := cl.Backend(src).PostWrite(dst, []byte{byte(src)}, rbs[dst].Addr+uint64(8*src), rbs[dst].RKey, uint64(src*n+dst), true); err != nil {
					t.Fatal(err)
				}
			}
			for dst := 0; dst < n; dst++ {
				dmas[dst].Lock()
				post((dst+1)%n, dst) // refused on the poster, left to a delivery goroutine
				dmas[dst].Unlock()
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					post(src, dst)
				}
			}
			var comps [64]core.BackendCompletion
			for r := 0; r < n; r++ {
				want := n + 1 // one write to each rank, and the parked one
				for got, deadline := 0, time.Now().Add(5*time.Second); got < want; {
					if time.Now().After(deadline) {
						t.Fatalf("rank %d: %d/%d completions", r, got, want)
					}
					k := cl.Backend(r).Poll(comps[:])
					for _, c := range comps[:k] {
						if !c.OK {
							t.Fatalf("rank %d: completion %d: %v", r, c.Token, c.Err)
						}
					}
					got += k
				}
			}
			if got := settledGoroutines(); got > base {
				t.Fatalf("%d goroutines still running on an idle %d-rank job", got-base, n)
			}
		})
	}
}

// settledGoroutines waits for the goroutine count to hold still (other
// tests' goroutines may still be exiting) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
