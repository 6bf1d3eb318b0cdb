package core

import (
	"sync"
	"sync/atomic"
)

// compRing is a fixed-capacity completion ring with an unbounded
// overflow spill list. It replaces the append-slice completion queues
// so producers (the progress engine, op fast paths) and consumers
// (PopLocal/PopRemote) no longer serialize on one mutex: pushes take
// only prodMu, pops take only consMu, and the two sides communicate
// through atomic head/tail indices (release on the index store
// publishes the slot write).
//
// Overflow semantics: when the ring is full — or the spill list is
// already non-empty — pushes go to the spill list, preserving global
// FIFO order. The consumer migrates spilled completions back into the
// ring once it drains; no completion is ever dropped. Spills are
// counted (Stats.RingOverflows) since they indicate CompQueueDepth is
// undersized for the workload's harvest lag.
type compRing struct {
	slots []Completion
	mask  uint64

	//photon:lock ringprod 75
	prodMu sync.Mutex // guards tail advance + spill append
	tail   atomic.Uint64
	spill  []Completion
	spillN atomic.Int64

	//photon:lock ringcons 70
	consMu sync.Mutex // guards head advance + spill migration
	head   atomic.Uint64

	overflows atomic.Int64
	hw        atomic.Int64 // deepest ring+spill occupancy observed
}

// newCompRing builds a ring with at least the requested depth (rounded
// up to a power of two).
func newCompRing(depth int) *compRing {
	n := 1
	for n < depth {
		n <<= 1
	}
	return &compRing{slots: make([]Completion, n), mask: uint64(n - 1)}
}

// push appends one completion in FIFO order.
func (r *compRing) push(c Completion) {
	r.prodMu.Lock()
	t := r.tail.Load()
	if len(r.spill) == 0 && t-r.head.Load() < uint64(len(r.slots)) {
		r.slots[t&r.mask] = c
		r.tail.Store(t + 1)
	} else {
		r.spill = append(r.spill, c)
		r.spillN.Add(1)
		r.overflows.Add(1)
	}
	// High-water mark; prodMu is held, so only pops race the depth
	// read and the mark can only under-count, never over-count.
	if d := int64(r.tail.Load()-r.head.Load()) + r.spillN.Load(); d > r.hw.Load() {
		r.hw.Store(d)
	}
	r.prodMu.Unlock()
}

// pop removes the oldest completion. The common case touches only
// consMu and the atomic indices; prodMu is taken only when the ring
// looks empty and spilled completions may need migrating.
func (r *compRing) pop() (Completion, bool) {
	r.consMu.Lock()
	h := r.head.Load()
	if h != r.tail.Load() {
		c := r.slots[h&r.mask]
		r.slots[h&r.mask] = Completion{}
		r.head.Store(h + 1)
		r.consMu.Unlock()
		return c, true
	}
	if r.spillN.Load() == 0 {
		r.consMu.Unlock()
		return Completion{}, false
	}
	// Ring drained with spill pending: migrate under both locks.
	// Producers never take consMu, so consMu→prodMu cannot deadlock.
	r.prodMu.Lock()
	t := r.tail.Load()
	if h != t {
		// A producer slipped a push into the ring after our first
		// check; that entry is older than anything in the spill list.
		c := r.slots[h&r.mask]
		r.slots[h&r.mask] = Completion{}
		r.head.Store(h + 1)
		r.prodMu.Unlock()
		r.consMu.Unlock()
		return c, true
	}
	if len(r.spill) == 0 {
		r.prodMu.Unlock()
		r.consMu.Unlock()
		return Completion{}, false
	}
	c := r.spill[0]
	rest := r.spill[1:]
	n := 0
	for n < len(rest) && uint64(n) < uint64(len(r.slots)) {
		r.slots[(t+uint64(n))&r.mask] = rest[n]
		n++
	}
	r.tail.Store(t + uint64(n))
	m := copy(r.spill, rest[n:])
	for i := m; i < len(r.spill); i++ {
		r.spill[i] = Completion{}
	}
	r.spill = r.spill[:m]
	r.spillN.Store(int64(m))
	r.prodMu.Unlock()
	r.consMu.Unlock()
	return c, true
}

// takeMatch removes and returns the completion with the given RID,
// wherever it sits in the queue, preserving the order of the others.
// Used by WaitLocal/WaitRemote; takes both locks for full exclusion.
func (r *compRing) takeMatch(rid uint64) (Completion, bool) {
	r.consMu.Lock()
	r.prodMu.Lock()
	defer r.prodMu.Unlock()
	defer r.consMu.Unlock()
	h, t := r.head.Load(), r.tail.Load()
	for i := h; i != t; i++ {
		if r.slots[i&r.mask].RID == rid {
			c := r.slots[i&r.mask]
			for j := i; j != h; j-- {
				r.slots[j&r.mask] = r.slots[(j-1)&r.mask]
			}
			r.slots[h&r.mask] = Completion{}
			r.head.Store(h + 1)
			return c, true
		}
	}
	for i := range r.spill {
		if r.spill[i].RID == rid {
			c := r.spill[i]
			copy(r.spill[i:], r.spill[i+1:])
			r.spill[len(r.spill)-1] = Completion{}
			r.spill = r.spill[:len(r.spill)-1]
			r.spillN.Add(-1)
			return c, true
		}
	}
	return Completion{}, false
}

// overflowCount reports lifetime spill pushes.
func (r *compRing) overflowCount() int64 { return r.overflows.Load() }

// highWater reports the deepest occupancy (ring plus spill) seen.
func (r *compRing) highWater() int64 { return r.hw.Load() }
