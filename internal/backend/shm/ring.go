package shm

import (
	"sync/atomic"
)

// spscRing is a fixed-size single-producer single-consumer byte ring:
// the unidirectional request channel between one (initiator, target)
// rank pair. The producer posts framed requests; the target's agent
// consumes them in FIFO order, which is what gives the backend its RC
// in-order-per-rank guarantee.
//
// head and tail are monotonically increasing byte positions (never
// wrapped); `& mask` maps them into the buffer, so emptiness is
// head == tail and fullness is tail-head == len(buf) with no reserved
// slot. Each index sits on its own cache line: the producer writes
// tail and reads head, the consumer writes head and reads tail, and
// without the padding every publish would bounce the other side's
// line (false sharing is the classic SPSC-ring perf cliff).
type spscRing struct {
	buf  []byte
	mask uint64

	_    [56]byte // pad: keep head off the buf/mask line
	head atomic.Uint64
	_    [56]byte // pad: head and tail on separate cache lines
	tail atomic.Uint64
	_    [56]byte // pad: keep tail clear of whatever follows

	// fullSpins counts producer attempts rejected for lack of space
	// (surfaced as ErrWouldBlock → engine defer/retry). Exported via
	// TransportStats as shm_ring_full_spins.
	fullSpins atomic.Int64
}

// newRing creates a ring of the given power-of-two capacity in bytes.
func newRing(size int) *spscRing {
	if size <= 0 || size&(size-1) != 0 {
		panic("shm: ring size must be a power of two")
	}
	return &spscRing{buf: make([]byte, size), mask: uint64(size - 1)}
}

// tryReserve checks for n bytes of space, returning the write position
// (the current tail) if available. Producer side only; the caller must
// follow with writeAt + publish. A false return bumps fullSpins.
//
//photon:hotpath
func (r *spscRing) tryReserve(n int) (uint64, bool) {
	t := r.tail.Load()
	if t-r.head.Load()+uint64(n) > uint64(len(r.buf)) {
		r.fullSpins.Add(1)
		return 0, false
	}
	return t, true
}

// writeAt copies p into the ring at byte position pos, splitting across
// the wrap point when needed. The caller must have reserved the space.
//
//photon:hotpath
func (r *spscRing) writeAt(pos uint64, p []byte) {
	i := pos & r.mask
	n := copy(r.buf[i:], p)
	if n < len(p) {
		copy(r.buf, p[n:])
	}
}

// publish makes everything up to newTail visible to the consumer. The
// atomic store is the release barrier ordering the writeAt copies
// before the consumer's tail load.
//
//photon:hotpath
func (r *spscRing) publish(newTail uint64) {
	r.tail.Store(newTail)
}

// pending reports how many bytes are readable. The consumer reads
// frames by it; a producer holding the ring's producer lock reads 0 as
// "drained": every published frame has been consumed.
//
//photon:hotpath
func (r *spscRing) pending() uint64 {
	return r.tail.Load() - r.head.Load()
}

// readAt copies n bytes at position pos into dst (splitting across the
// wrap point), returning the filled slice. Consumer side only.
//
//photon:hotpath
func (r *spscRing) readAt(pos uint64, dst []byte, n int) []byte {
	dst = dst[:n]
	i := pos & r.mask
	k := copy(dst, r.buf[i:])
	if k < n {
		copy(dst[k:], r.buf)
	}
	return dst
}

// span returns the n bytes at position pos in place, as the segment up
// to the wrap point and the (possibly empty) segment after it. Consumer
// side only; valid until advance passes pos.
//
//photon:hotpath
func (r *spscRing) span(pos uint64, n int) (head, tail []byte) {
	i := pos & r.mask
	if end := i + uint64(n); end > uint64(len(r.buf)) {
		return r.buf[i:], r.buf[:end-uint64(len(r.buf))]
	}
	return r.buf[i : i+uint64(n)], nil
}

// advance releases n consumed bytes back to the producer. The atomic
// store is the release barrier: the producer may overwrite the space
// as soon as it observes the new head.
//
//photon:hotpath
func (r *spscRing) advance(n uint64) {
	r.head.Store(r.head.Load() + n)
}
