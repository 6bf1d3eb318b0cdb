package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"photon/internal/core"
)

// loopJob boots one rank over a fresh loopback backend.
func loopJob(t *testing.T) (*core.Photon, *loopBackend) {
	t.Helper()
	lb := newLoopBackend()
	p, err := core.Init(lb, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, lb
}

// TestParkedWritesFailOnHardRejection parks a signaled write behind
// transport pushback, then has the transport reject writes for good:
// the next progress round must fail the parked write with that error
// instead of keeping it parked forever.
func TestParkedWritesFailOnHardRejection(t *testing.T) {
	p, lb := loopJob(t)
	buf := make([]byte, 4096)
	rb, _, err := p.RegisterBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	lb.writeErr = core.ErrWouldBlock
	if err := p.PutWithCompletion(0, make([]byte, 2048), rb, 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().DeferredWrites; got != 1 {
		t.Fatalf("deferred writes = %d, want the put parked", got)
	}
	down := errors.New("link down")
	lb.writeErr = down
	c, err := p.WaitLocal(5, waitT)
	if err != nil {
		t.Fatalf("parked write never completed: %v", err)
	}
	if !errors.Is(c.Err, down) {
		t.Fatalf("completion error = %v, want the transport's rejection", c.Err)
	}
	if n := p.Metrics().Gauges["deferred_parked"]; n != 0 {
		t.Fatalf("%d writes still parked after the rejection", n)
	}
}

// TestPostedRecvSurvivesBusyRead delivers a rendezvous send into a
// posted receive while the transport rejects the first staging read:
// the posting must be put back, so the retried read still lands in the
// caller's buffer rather than in middleware staging.
func TestPostedRecvSurvivesBusyRead(t *testing.T) {
	p, lb := loopJob(t)
	payload := bytes.Repeat([]byte{0xC3}, 8192) // far above the eager size
	posted := make([]byte, len(payload))
	if err := p.PostRecv(77, posted); err != nil {
		t.Fatal(err)
	}
	lb.readBusy = 1
	if err := p.Send(0, payload, 0, 77); err != nil {
		t.Fatal(err)
	}
	c, err := p.WaitRemote(77, waitT)
	if err != nil {
		t.Fatal(err)
	}
	if lb.readBusy != 0 {
		t.Fatal("the staging read was never attempted")
	}
	if len(c.Data) != len(payload) || &c.Data[0] != &posted[0] {
		t.Fatal("delivery did not land in the posted buffer")
	}
	if !bytes.Equal(posted, payload) {
		t.Fatal("posted buffer does not hold the payload")
	}
}

// TestDeferredWriteAllocGuard pins the deferred-write FIFO's park/drain
// cycle at zero allocations. Each round the transport pushes back,
// depth eager puts park on the peer's queue, and the next progress
// round drains them. A FIFO that pops by reslicing (x = x[n:]) loses a
// slot of capacity per pop, so the first park after a drain
// reallocated every round.
func TestDeferredWriteAllocGuard(t *testing.T) {
	for _, depth := range []int{1, 3} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			p, lb := loopJob(t)
			rb, _, err := p.RegisterBuffer(make([]byte, 64))
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 8)
			rounds := 0
			round := func() {
				lb.writeErr = core.ErrWouldBlock
				for i := 0; i < depth; i++ {
					if err := p.PutWithCompletion(0, payload, rb, uint64(8*i), 1, 2); err != nil {
						t.Fatal(err)
					}
				}
				lb.writeErr = nil
				for got := 0; got < 2*depth; {
					c, ok := p.Probe(core.ProbeAny)
					if !ok {
						continue
					}
					if c.Err != nil {
						t.Fatal(c.Err)
					}
					got++
				}
				rounds++
			}
			for i := 0; i < 100; i++ {
				round()
			}
			allocs := testing.AllocsPerRun(200, round)
			t.Logf("park %d + drain: %.2f allocs/round", depth, allocs)
			if got, want := p.Stats().DeferredWrites, int64(depth*rounds); got != want {
				t.Fatalf("deferred writes = %d, want %d (every put parked)", got, want)
			}
			if allocs > 0 {
				t.Fatalf("park/drain cycle allocates %.2f times per round, want 0", allocs)
			}
		})
	}
}
