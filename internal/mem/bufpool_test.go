package mem

import (
	"bytes"
	"testing"
	"unsafe"
)

func TestBufPoolRecycle(t *testing.T) {
	p := NewBufPool(64, 4)
	b := p.Get(16)
	if len(b) != 16 || cap(b) != 64 {
		t.Fatalf("Get(16) = len %d cap %d, want 16/64", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(32)
	if cap(b2) != 64 {
		t.Fatalf("recycled buffer cap = %d, want 64", cap(b2))
	}
	hits, misses := p.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters = %d hits %d misses, want 1/1", hits, misses)
	}
}

func TestBufPoolOversize(t *testing.T) {
	p := NewBufPool(64, 4)
	b := p.Get(128)
	if len(b) != 128 {
		t.Fatalf("oversize Get = len %d, want 128", len(b))
	}
	p.Put(b) // foreign capacity: dropped
	if _, misses := p.Counters(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	// The free list must not have adopted the oversize buffer.
	if got := p.Get(8); cap(got) != 64 {
		t.Fatalf("pool handed back foreign buffer (cap %d)", cap(got))
	}
}

func TestBufPoolBound(t *testing.T) {
	p := NewBufPool(32, 2)
	bufs := [][]byte{p.Get(32), p.Get(32), p.Get(32)}
	for _, b := range bufs {
		p.Put(b)
	}
	if n := len(p.free); n != 2 {
		t.Fatalf("free list holds %d buffers, want bound of 2", n)
	}
}

// TestBufPoolPutForeignCapacity pins Put's guard: only buffers whose
// capacity is exactly the pool's buffer size enter the free list. Anything else — a
// slice from elsewhere, an undersized allocation, a capacity-limited
// three-index reslice, nil — is dropped for the GC, because adopting a
// foreign buffer would hand later Get callers a slice that cannot be
// re-sliced to the buffer size (or worse, shares an array with the original
// owner).
func TestBufPoolPutForeignCapacity(t *testing.T) {
	p := NewBufPool(64, 4)
	if p.size != 64 {
		t.Fatalf("buffer size = %d, want 64", p.size)
	}
	foreign := [][]byte{
		nil,
		make([]byte, 16),      // undersized
		make([]byte, 65),      // oversized
		make([]byte, 64, 128), // right length, wrong capacity
		p.Get(64)[:8:8],       // pooled array, but capacity clipped by a 3-index reslice
	}
	for i, b := range foreign {
		p.Put(b)
		if n := len(p.free); n != 0 {
			t.Fatalf("case %d: Put adopted a buffer with cap %d (free list %d), want rejection", i, cap(b), n)
		}
	}
	// A plain reslice keeps the pooled capacity and must be accepted —
	// callers legitimately Put the re-sliced heads they worked with.
	b := p.Get(64)
	p.Put(b[:8])
	if len(p.free) != 1 {
		t.Fatal("Put rejected a full-capacity reslice of a pooled buffer")
	}
	// Recycled buffers come back at full capacity regardless of the
	// length they were returned with.
	if got := p.Get(64); len(got) != 64 || cap(got) != 64 {
		t.Fatalf("recycled Get = len %d cap %d, want 64/64", len(got), cap(got))
	}
}

func TestBufPoolCopyOwned(t *testing.T) {
	p := NewBufPool(64, 4)
	b := p.CopyOwned(make([]byte, 16))
	p.Put(b) // cap 16 != 64: not adopted
	if len(p.free) != 0 {
		t.Fatal("CopyOwned buffer must not enter the free list")
	}
	if hits, misses := p.Counters(); hits != 0 || misses != 0 {
		t.Fatalf("CopyOwned counted as pool traffic: hits %d, misses %d", hits, misses)
	}
}

// TestCopyOwnedSizes checks both sides of the carve limit: the copy
// holds src's bytes, does not share src's memory, and has len == cap.
func TestCopyOwnedSizes(t *testing.T) {
	p := NewBufPool(64, 4)
	for _, n := range []int{0, 8, ownedCarveMax, ownedCarveMax + 1, 4 << 10, 64 << 10} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*7 + 1)
		}
		c := p.CopyOwned(src)
		if c == nil || !bytes.Equal(c, src) {
			t.Fatalf("CopyOwned(%d bytes) = %d bytes, contents differ", n, len(c))
		}
		if len(c) != n || cap(c) != n {
			t.Fatalf("CopyOwned(%d bytes) has len %d cap %d", n, len(c), cap(c))
		}
		if n > 0 {
			src[0]++
			if c[0] == src[0] {
				t.Fatalf("CopyOwned(%d bytes) shares src's memory", n)
			}
		}
	}
}

// TestCopyOwnedCarvedCopiesAreIsolated checks the carved small copies:
// each is a distinct, 8-byte aligned slice capped at its length, so an
// append to one reallocates instead of writing into the next copy
// carved from the same chunk.
func TestCopyOwnedCarvedCopiesAreIsolated(t *testing.T) {
	p := NewBufPool(64, 4)
	a := p.CopyOwned(make([]byte, 13))
	b := p.CopyOwned(make([]byte, 13))
	if len(a) != 13 {
		t.Fatalf("carved copy has len %d, want 13", len(a))
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		t.Fatal("carved copy is not 8-byte aligned")
	}
	if &a[0] == &b[0] {
		t.Fatal("two CopyOwned calls returned the same bytes")
	}
	for i := range b {
		b[i] = 0xB
	}
	for _, grow := range []int{1, 64} {
		a2 := append(a, make([]byte, grow)...)
		for i := range a2 {
			a2[i] = 0xA
		}
		for i, v := range b {
			if v != 0xB {
				t.Fatalf("append of %d to one carved copy overwrote byte %d of the next", grow, i)
			}
		}
	}
	// Larger copies are their own allocations; a full chunk is replaced.
	if big := p.CopyOwned(make([]byte, ownedCarveMax+1)); cap(big) != ownedCarveMax+1 {
		t.Fatalf("oversize CopyOwned cap %d", cap(big))
	}
	seen := map[*byte]bool{}
	for i := 0; i < 3*ownedChunk/ownedCarveMax; i++ {
		c := p.CopyOwned(make([]byte, ownedCarveMax))
		if seen[&c[0]] {
			t.Fatalf("copy %d reuses carved bytes", i)
		}
		seen[&c[0]] = true
	}
}
