package core

import (
	"sync"
	"sync/atomic"

	"photon/internal/mem"
)

// compRingSlots is a completion ring's initial capacity. The ring
// doubles past it rather than dropping or spilling; each growth is
// counted (Stats.RingOverflows), since it means the application's
// harvest lag outgrew the initial ring.
const compRingSlots = 1024

// compRing is one harvested-completion stream (the engine keeps a
// local and a remote one): producers (the progress engine, op fast
// paths) push, consumers (PopLocal/PopRemote, the wait loops) pop or
// take by RID, all under one mutex. The counters are written under it
// and read without it.
type compRing struct {
	//photon:lock ring 70
	mu        sync.Mutex
	q         mem.Queue[Completion]
	overflows atomic.Int64 // growths past compRingSlots
	hw        atomic.Int64 // deepest occupancy observed
}

func newCompRing() *compRing {
	return &compRing{q: mem.NewQueue[Completion](compRingSlots)}
}

// push appends one completion in FIFO order.
func (r *compRing) push(c Completion) {
	r.mu.Lock()
	if r.q.Len() == r.q.Cap() {
		r.overflows.Add(1)
	}
	r.q.PushBack(c)
	if d := int64(r.q.Len()); d > r.hw.Load() {
		r.hw.Store(d)
	}
	r.mu.Unlock()
}

// pop removes the oldest completion.
func (r *compRing) pop() (Completion, bool) {
	r.mu.Lock()
	c, ok := r.q.PopFront()
	r.mu.Unlock()
	return c, ok
}

// takeMatch removes and returns the completion with the given RID,
// wherever it sits in the queue, preserving the order of the others.
func (r *compRing) takeMatch(rid uint64) (Completion, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.q.Len(); i++ {
		if r.q.At(i).RID == rid {
			return r.q.RemoveAt(i), true
		}
	}
	return Completion{}, false
}
