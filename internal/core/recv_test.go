package core_test

import (
	"bytes"
	"testing"
	"time"

	"photon/internal/core"
)

// TestPostRecvPackedDelivery: a posted receive makes a packed send land
// directly in the caller's buffer (Completion.Data aliases it).
func TestPostRecvPackedDelivery(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	buf := make([]byte, 64)
	if err := phs[1].PostRecv(777, buf); err != nil {
		t.Fatal(err)
	}
	payload := []byte("posted-receive payload")
	if err := phs[0].SendBlocking(1, payload, 0, 777); err != nil {
		t.Fatal(err)
	}
	c, err := phs[1].WaitRemote(777, waitT)
	if err != nil || c.Err != nil {
		t.Fatalf("remote completion: %v %v", err, c.Err)
	}
	if phs[1].CancelRecv(777) {
		t.Fatal("posting went unused: message did not land in the posted buffer")
	}
	if !bytes.Equal(c.Data, payload) {
		t.Fatalf("Data = %q", c.Data)
	}
	if &c.Data[0] != &buf[0] {
		t.Fatal("Data does not alias the posted buffer")
	}
}

// TestPostRecvRendezvousDelivery: large sends RDMA-read straight into
// the posted buffer, skipping the staging slab.
func TestPostRecvRendezvousDelivery(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	const size = 48 << 10 // beyond the eager threshold
	buf := make([]byte, size)
	if err := phs[1].PostRecv(778, buf); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	done := make(chan error, 1)
	go func() { done <- phs[0].SendBlocking(1, payload, 42, 778) }()
	c, err := phs[1].WaitRemote(778, waitT)
	if err != nil || c.Err != nil {
		t.Fatalf("remote completion: %v %v", err, c.Err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if &c.Data[0] != &buf[0] {
		t.Fatal("rendezvous did not land in the posted buffer")
	}
	if !bytes.Equal(c.Data, payload) {
		t.Fatal("payload mismatch")
	}
	if _, err := phs[0].WaitLocal(42, waitT); err != nil {
		t.Fatalf("sender FIN: %v", err)
	}
}

// TestPostRecvLateFallback: a message that arrives before the receive
// is posted is delivered middleware-owned; CancelRecv then reports the
// posting unused so the caller can fold the copy in.
func TestPostRecvLateFallback(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	payload := []byte("early arrival")
	if err := phs[0].SendBlocking(1, payload, 0, 779); err != nil {
		t.Fatal(err)
	}
	// Drive the receiver until the delivery is harvested (not just
	// sent): nothing pops it, so the queue's high-water mark is its
	// depth.
	deadline := time.Now().Add(waitT)
	for phs[1].Metrics().Gauges["remote_cq_highwater"] == 0 {
		phs[1].Progress()
		if time.Now().After(deadline) {
			t.Fatal("delivery never arrived")
		}
	}
	buf := make([]byte, 64)
	if err := phs[1].PostRecv(779, buf); err != nil {
		t.Fatal(err)
	}
	c, err := phs[1].WaitRemote(779, waitT)
	if err != nil || c.Err != nil {
		t.Fatalf("remote completion: %v %v", err, c.Err)
	}
	if !phs[1].CancelRecv(779) {
		t.Fatal("expected the posting to be unused")
	}
	if !bytes.Equal(c.Data, payload) {
		t.Fatalf("Data = %q", c.Data)
	}
	if len(buf) >= len(c.Data) && len(c.Data) > 0 && &c.Data[0] == &buf[0] {
		t.Fatal("late posting must not capture the delivery")
	}
}

// TestPostRecvUndersized: a posting smaller than the payload is ignored
// (middleware-owned delivery) and stays cancelable.
func TestPostRecvUndersized(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	buf := make([]byte, 4)
	if err := phs[1].PostRecv(780, buf); err != nil {
		t.Fatal(err)
	}
	payload := []byte("longer than four bytes")
	if err := phs[0].SendBlocking(1, payload, 0, 780); err != nil {
		t.Fatal(err)
	}
	c, err := phs[1].WaitRemote(780, waitT)
	if err != nil || c.Err != nil {
		t.Fatalf("remote completion: %v %v", err, c.Err)
	}
	if !bytes.Equal(c.Data, payload) {
		t.Fatalf("Data = %q", c.Data)
	}
	if !phs[1].CancelRecv(780) {
		t.Fatal("undersized posting should remain")
	}
}

// TestPostRecvDuplicate: posting the same RID twice is rejected.
func TestPostRecvDuplicate(t *testing.T) {
	phs := newJob(t, 1, core.Config{})
	if err := phs[0].PostRecv(5, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := phs[0].PostRecv(5, make([]byte, 8)); err == nil {
		t.Fatal("duplicate posting accepted")
	}
	if !phs[0].CancelRecv(5) {
		t.Fatal("cancel failed")
	}
}

// TestWaitRemoteAll: many sends toward one rank are reaped in one wait
// regardless of arrival order; zero RIDs are skipped.
func TestWaitRemoteAll(t *testing.T) {
	const n = 5
	phs := newJob(t, n, core.Config{})
	for r := 1; r < n; r++ {
		r := r
		go func() {
			payload := []byte{byte(r)}
			if err := phs[r].SendBlocking(0, payload, 0, uint64(1000+r)); err != nil {
				t.Error(err)
			}
		}()
	}
	w := core.NewWaiter(phs[0])
	defer w.Release()
	rids := []uint64{0, 1001, 1002, 1003, 1004}
	out := make([]core.Completion, len(rids))
	if err := phs[0].WaitAll(w, rids, out, &core.WaitSpec{Deadline: time.Now().Add(waitT)}, false); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if out[r].Rank != r || len(out[r].Data) != 1 || out[r].Data[0] != byte(r) {
			t.Fatalf("out[%d] = %+v", r, out[r])
		}
	}
	if out[0].Data != nil {
		t.Fatal("skipped slot was written")
	}
}

// TestWaitRemoteAllTimeout: a missing completion times out and leaves
// the arrived ones in out.
func TestWaitRemoteAllTimeout(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	if err := phs[0].SendBlocking(1, []byte("x"), 0, 31); err != nil {
		t.Fatal(err)
	}
	w := core.NewWaiter(phs[1])
	defer w.Release()
	out := make([]core.Completion, 2)
	err := phs[1].WaitAll(w, []uint64{31, 32}, out, &core.WaitSpec{Deadline: time.Now().Add(250 * time.Millisecond)}, false)
	if err != core.ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if out[0].RID != 31 {
		t.Fatalf("arrived completion missing: %+v", out[0])
	}
}
