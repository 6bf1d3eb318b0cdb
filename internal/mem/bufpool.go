package mem

import (
	"sync"
	"sync/atomic"
)

// BufPool is a free list of fixed-size scratch buffers for hot-path
// staging: ledger entries under construction, packed-message frames,
// atomic result words. It is plain heap memory (nothing is registered)
// — it exists purely so the per-operation fast path stops hitting the
// allocator and the GC.
//
// Get returns a buffer of exactly the requested length. Requests no
// larger than the pool's buffer size are served from the free list;
// oversize requests fall through to a fresh allocation (and are not
// recycled by Put). The free list is bounded so a burst cannot pin
// memory forever.
type BufPool struct {
	size int // capacity of every pooled buffer
	max  int // free-list bound

	//photon:lock bufpool 10
	mu    sync.Mutex
	free  [][]byte
	carve []byte // unused tail of the chunk CopyOwned carves from

	hits   atomic.Int64
	misses atomic.Int64
}

// NewBufPool builds a pool of size-byte buffers keeping at most max
// buffers on the free list (max <= 0 selects a default of 256).
func NewBufPool(size, max int) *BufPool {
	if size <= 0 {
		size = 64
	}
	if max <= 0 {
		max = 256
	}
	return &BufPool{size: size, max: max}
}

// Get returns a length-n buffer. Pooled buffers keep their full
// capacity, so the caller may re-slice up to the pool's buffer size.
func (p *BufPool) Get(n int) []byte {
	if n > p.size {
		p.misses.Add(1)
		return make([]byte, n)
	}
	p.mu.Lock()
	if l := len(p.free); l > 0 {
		b := p.free[l-1]
		p.free[l-1] = nil
		p.free = p.free[:l-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return b[:n]
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return make([]byte, n, p.size)
}

// Small owned copies are carved out of a shared chunk instead of
// allocated one by one.
const (
	ownedChunk    = 4 << 10 // bytes per shared chunk
	ownedCarveMax = 256     // largest copy carved from a chunk
)

// CopyOwned returns a copy of src that will never be recycled: use it
// when the copy's ownership transfers to the caller (for example
// Completion.Data). It is not pool traffic, so it counts as neither a
// hit nor a miss: the miss counter measures only Gets the free list
// failed to serve. The result's length and capacity are both len(src),
// so an append to it reallocates instead of writing past its end.
//
// A copy of at most ownedCarveMax bytes is a slice of a shared
// ownedChunk-byte chunk, 8-byte aligned. No carved byte is ever handed
// out twice, and the GC frees a chunk once its last slice dies; the
// cost is that one retained small slice pins its whole chunk. A larger
// copy is one append onto a nil slice: the runtime zeroes only the
// size-class slack past len(src), never the bytes the copy overwrites
// (make followed by copy clears them all first).
func (p *BufPool) CopyOwned(src []byte) []byte {
	n := len(src)
	if n == 0 {
		return []byte{}
	}
	if n > ownedCarveMax {
		return append([]byte(nil), src...)[:n:n]
	}
	p.mu.Lock()
	if len(p.carve) < n {
		p.carve = make([]byte, ownedChunk)
	}
	b := p.carve[:n:n]
	p.carve = p.carve[min((n+7)&^7, len(p.carve)):]
	p.mu.Unlock()
	copy(b, src)
	return b
}

// Put returns a buffer obtained from Get to the free list. Buffers of
// foreign capacity (oversize Get results, or slices from elsewhere) are
// dropped for the GC. Put of nil is a no-op.
func (p *BufPool) Put(b []byte) {
	if cap(b) != p.size {
		return
	}
	b = b[:p.size]
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// Counters reports lifetime free-list hits and misses.
func (p *BufPool) Counters() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}
