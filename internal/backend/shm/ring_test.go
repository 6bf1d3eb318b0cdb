package shm

import (
	"bytes"
	"testing"

	"photon/internal/core"
)

// TestRingWraparound drives frames of co-prime-ish sizes through a
// tiny ring so every copy path (contiguous, split header, split
// payload) is exercised across many wrap points.
func TestRingWraparound(t *testing.T) {
	r := newRing(64)
	scratch := make([]byte, 64)
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
	for round := 0; round < 200; round++ {
		// Produce while space allows.
		for _, n := range []int{5, 13, 7} {
			p := emit(n)
			pos, ok := r.tryReserve(n)
			if !ok {
				break
			}
			r.writeAt(pos, p)
			r.publish(pos + uint64(n))
			queued = append(queued, p)
		}
		// Consume one frame per round (forces sustained occupancy and
		// therefore wrap-splitting on both sides).
		if len(queued) > 0 {
			want := queued[0]
			queued = queued[1:]
			if got := r.readAt(r.head.Load(), scratch, len(want)); !bytes.Equal(got, want) {
				t.Fatalf("round %d: read %x want %x", round, got, want)
			}
			r.advance(uint64(len(want)))
		}
	}
	// Drain the tail.
	for _, want := range queued {
		if got := r.readAt(r.head.Load(), scratch, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("drain: read %x want %x", got, want)
		}
		r.advance(uint64(len(want)))
	}
	if r.pending() != 0 {
		t.Fatalf("ring not empty: %d pending", r.pending())
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

// TestRingFullBackpressure stalls rank 1's agent on the DMA lock,
// fills the 0→1 ring until PostWrite reports ErrWouldBlock, then
// releases the agent and verifies every accepted frame (plus the
// retried one) completes. This is the engine's defer/retry contract
// end to end: a full ring is transient backpressure, not an error.
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

	// Stall the consumer: its agent blocks applying the first write
	// while a local reader holds the DMA lock.
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
		t.Fatal("no frame accepted before backpressure")
	}
	if b1.inRings[0].fullSpins.Load() == 0 {
		t.Fatal("fullSpins not counted")
	}
	dma.Unlock()

	// The rejected post retries once space opens.
	deadline := 0
	for {
		if err := b0.PostWrite(1, payload, rb.Addr, rb.RKey, 999, true); err == nil {
			accepted++
			break
		} else if err != core.ErrWouldBlock {
			t.Fatal(err)
		}
		if deadline++; deadline > 1e7 {
			t.Fatal("retry never admitted")
		}
	}
	got := 0
	var comps [16]core.BackendCompletion
	for got < accepted {
		n := b0.Poll(comps[:])
		for i := 0; i < n; i++ {
			if !comps[i].OK {
				t.Fatalf("completion %d failed: %v", comps[i].Token, comps[i].Err)
			}
		}
		got += n
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
