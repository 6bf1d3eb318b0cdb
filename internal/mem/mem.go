// Package mem holds the memory plumbing the engine and the transports
// share, registration included:
//
//   - RemoteBuffer: the (address, rkey, length) descriptor of a remotely
//     accessible region, what ranks exchange at init and what every
//     one-sided operation targets.
//   - Slab: a first-fit variable-size allocator with coalescing over an
//     arena the transport registered, used for rendezvous staging when
//     the caller's buffer is not registered.
//   - BufPool: a bounded free list of heap scratch buffers for hot-path
//     staging (bufpool.go).
//   - RegTable: the one registration table every transport registers
//     through — the simulated NIC's memory regions and the memory tcp
//     and shm apply one-sided operations to. Each registration is a
//     Region with its own DMA lock, write-activity counter and access
//     rights, and every access is rkey-, rights-, bounds- and
//     alignment-checked by RegTable.Access (regtable.go).
//   - Queue: the growable ring FIFO every queue in the engine, the tcp
//     backend and the simulated NIC sits on (queue.go).
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by allocators.
var (
	ErrExhausted = errors.New("mem: allocator exhausted")
	ErrNotOwned  = errors.New("mem: block not owned by this allocator")
	ErrBadSize   = errors.New("mem: invalid size")
)

// RemoteBuffer names a remotely accessible region: what ranks exchange
// at init and what Photon operations target.
type RemoteBuffer struct {
	Addr uint64 // remote virtual base address
	RKey uint32
	Len  int
}

// Contains reports whether [off, off+n) lies within the buffer.
func (rb RemoteBuffer) Contains(off uint64, n int) bool {
	return off+uint64(n) <= uint64(rb.Len) && off+uint64(n) >= off
}

// ---------------------------------------------------------------------
// Slab: variable-size first-fit allocator with coalescing.
// ---------------------------------------------------------------------

// Block is a variable-size allocation from a Slab. Its header is
// recycled: once released, a later Alloc may hand the same *Block out
// again, so the caller must drop it at Release.
type Block struct {
	Buf  []byte
	off  int
	size int
	slab *Slab
}

type hole struct{ off, size int }

// Slab allocates variable-size blocks from one registered arena using
// first-fit with free-list coalescing; allocations are rounded up to
// the alignment granule (64 bytes, a cache line).
type Slab struct {
	base  uint64
	arena []byte
	//photon:lock slab 30
	mu    sync.Mutex
	holes []hole   // sorted by offset, non-adjacent
	free  []*Block // released headers, reused by Alloc
	used  int
}

// SlabAlign is the allocation granule.
const SlabAlign = 64

// NewSlabOver builds a slab over an arena the caller registered (the
// engine registers it through its backend); base is the arena's remote
// virtual base address. len(arena) must be a positive multiple
// of SlabAlign.
func NewSlabOver(arena []byte, base uint64) (*Slab, error) {
	if len(arena) == 0 || len(arena)%SlabAlign != 0 {
		return nil, fmt.Errorf("%w: arena=%d", ErrBadSize, len(arena))
	}
	return &Slab{base: base, arena: arena, holes: []hole{{0, len(arena)}}}, nil
}

// Alloc returns a block of at least n bytes, or ErrExhausted when no
// hole fits.
func (s *Slab) Alloc(n int) (*Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSize, n)
	}
	n = (n + SlabAlign - 1) &^ (SlabAlign - 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, h := range s.holes {
		if h.size >= n {
			var b *Block
			if k := len(s.free); k > 0 {
				b = s.free[k-1]
				s.free = s.free[:k-1]
			} else {
				b = new(Block)
			}
			*b = Block{Buf: s.arena[h.off : h.off+n], off: h.off, size: n, slab: s}
			if h.size == n {
				s.holes = append(s.holes[:i], s.holes[i+1:]...)
			} else {
				s.holes[i] = hole{h.off + n, h.size - n}
			}
			s.used += n
			return b, nil
		}
	}
	return nil, ErrExhausted
}

// Release returns a block to the slab, coalescing adjacent holes.
func (s *Slab) Release(b *Block) error {
	if b == nil || b.slab != s {
		return ErrNotOwned
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Find insertion point by offset.
	i := sort.Search(len(s.holes), func(i int) bool { return s.holes[i].off >= b.off })
	// Detect double-free: overlapping an existing hole.
	if i < len(s.holes) && b.off+b.size > s.holes[i].off {
		return ErrNotOwned
	}
	if i > 0 && s.holes[i-1].off+s.holes[i-1].size > b.off {
		return ErrNotOwned
	}
	h := hole{b.off, b.size}
	// Coalesce with successor.
	if i < len(s.holes) && h.off+h.size == s.holes[i].off {
		h.size += s.holes[i].size
		s.holes = append(s.holes[:i], s.holes[i+1:]...)
	}
	// Coalesce with predecessor.
	if i > 0 && s.holes[i-1].off+s.holes[i-1].size == h.off {
		s.holes[i-1].size += h.size
	} else {
		s.holes = append(s.holes, hole{})
		copy(s.holes[i+1:], s.holes[i:])
		s.holes[i] = h
	}
	s.used -= b.size
	*b = Block{}
	s.free = append(s.free, b)
	return nil
}
