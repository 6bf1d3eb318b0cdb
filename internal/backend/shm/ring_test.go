package shm

import (
	"bytes"
	"testing"

	"photon/internal/core"
)

// TestRingWraparound drives payloads of co-prime-ish sizes, each
// charged a few bytes more than it stores, through a tiny ring so every
// copy path (contiguous, split payload, split charge) is exercised
// across many wrap points.
func TestRingWraparound(t *testing.T) {
	const slack = 3 // bytes charged beyond each payload
	r := newRing(64)
	next := byte(0)
	emit := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = next
			next++
		}
		return p
	}
	var queued [][]byte
	consume := func(what string) {
		want := queued[0]
		queued = queued[1:]
		head, tail := r.span(r.head, len(want))
		if got := append(append([]byte(nil), head...), tail...); !bytes.Equal(got, want) {
			t.Fatalf("%s: read %x want %x", what, got, want)
		}
		r.head += uint64(len(want) + slack)
	}
	for round := 0; round < 200; round++ {
		// Produce while space allows.
		for _, n := range []int{5, 13, 7} {
			p := emit(n)
			if !r.put(n+slack, p) {
				break
			}
			queued = append(queued, p)
		}
		// Consume one payload per round (forces sustained occupancy and
		// therefore wrap-splitting on both sides).
		if len(queued) > 0 {
			consume("round")
		}
	}
	for len(queued) > 0 {
		consume("drain")
	}
	if r.head != r.tail {
		t.Fatalf("ring not empty: %d bytes charged", r.tail-r.head)
	}
}

// TestRingViewAt checks the zero-copy window: one segment when the
// range is contiguous, two across the wrap point, positions masked.
func TestRingViewAt(t *testing.T) {
	r := newRing(16)
	for i := range r.buf {
		r.buf[i] = byte(i)
	}
	if head, tail := r.span(4, 8); len(head) != 8 || tail != nil || head[0] != 4 {
		t.Fatalf("contiguous span split: head=%v tail=%v", head, tail)
	}
	if head, tail := r.span(12, 8); !bytes.Equal(head, []byte{12, 13, 14, 15}) || !bytes.Equal(tail, []byte{0, 1, 2, 3}) {
		t.Fatalf("wrapped span wrong: head=%v tail=%v", head, tail)
	}
	if head, tail := r.span(16+4, 8); len(head) != 8 || tail != nil || head[0] != 4 {
		t.Fatalf("masked position wrong: head=%v tail=%v", head, tail)
	}
}

// TestRingFullBackpressure holds rank 1's DMA lock, so every write
// from rank 0 is backlogged, and fills the 0→1 ring until PostWrite
// reports ErrWouldBlock; then it releases the lock and verifies every
// accepted write (plus the retried one) completes in posting order.
// Nobody polls before the retry: the retried post drains the backlog
// itself. This is the engine's defer/retry contract end to end: a full
// ring is transient backpressure, not an error.
func TestRingFullBackpressure(t *testing.T) {
	cl, err := NewCluster(2, Config{RingBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b0, b1 := cl.Backend(0), cl.Backend(1)
	target := make([]byte, 64)
	rb, dma, err := b1.Register(target)
	if err != nil {
		t.Fatal(err)
	}

	dma.Lock()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	accepted := 0
	var blocked bool
	for i := 0; i < 64; i++ {
		err := b0.PostWrite(1, payload, rb.Addr, rb.RKey, uint64(100+i), true)
		if err == core.ErrWouldBlock {
			blocked = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	if !blocked {
		t.Fatal("ring never filled")
	}
	if accepted == 0 {
		t.Fatal("no write accepted before backpressure")
	}
	if b0.out[1].fullSpins.Load() == 0 {
		t.Fatal("fullSpins not counted")
	}
	dma.Unlock()

	// The rejected post is admitted at once: it drains the backlog
	// before looking for space.
	if err := b0.PostWrite(1, payload, rb.Addr, rb.RKey, 999, true); err != nil {
		t.Fatalf("retried post after the unlock: %v", err)
	}
	accepted++
	if n := b0.out[1].reqs.Len(); n != 0 {
		t.Fatalf("%d requests still backlogged after the retried post", n)
	}
	var comps [128]core.BackendCompletion
	n := b0.Poll(comps[:])
	if n != accepted {
		t.Fatalf("%d completions, want %d", n, accepted)
	}
	for i, c := range comps[:n] {
		want := uint64(100 + i)
		if i == n-1 {
			want = 999
		}
		if !c.OK || c.Token != want {
			t.Fatalf("completion %d: token %d ok=%v (%v), want token %d", i, c.Token, c.OK, c.Err, want)
		}
	}
}

// TestOversizePayloadRejected pins the ErrTooLarge boundary at half
// the ring.
func TestOversizePayloadRejected(t *testing.T) {
	cl, err := NewCluster(2, Config{RingBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	target := make([]byte, 256)
	rb, _, err := cl.Backend(1).Register(target)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200)
	if err := cl.Backend(0).PostWrite(1, big, rb.Addr, rb.RKey, 1, true); err != core.ErrTooLarge {
		t.Fatalf("oversize post: %v, want ErrTooLarge", err)
	}
}
