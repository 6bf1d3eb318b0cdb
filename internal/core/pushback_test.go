package core_test

import (
	"bytes"
	"errors"
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
