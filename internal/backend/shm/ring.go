package shm

// ring is the byte arena behind one directed pair's backlog. A write
// that cannot be applied at post time has its payload copied in here,
// because the caller may reuse the source as soon as PostWrite returns.
// Every backlogged request is charged its cost in ring bytes, payload
// or not, so the ring's size bounds the backlog: the FIFO order of the
// backlog is the order of the charges, and the front request's payload
// always starts at head.
//
// head and tail are monotonically increasing byte positions (never
// wrapped); `& mask` maps them into the buffer, so emptiness is
// head == tail and fullness is tail-head == len(buf) with no reserved
// slot. The pair's producer lock guards both.
type ring struct {
	buf        []byte
	mask       uint64
	head, tail uint64
}

// newRing creates a ring of the given power-of-two capacity in bytes.
func newRing(size int) ring {
	if size <= 0 || size&(size-1) != 0 {
		panic("shm: ring size must be a power of two")
	}
	return ring{buf: make([]byte, size), mask: uint64(size - 1)}
}

// put charges cost bytes at the tail and copies payload (at most cost
// bytes) to their start, splitting it across the wrap point when
// needed. It reports false, changing nothing, when the ring lacks the
// space.
//
//photon:hotpath
func (r *ring) put(cost int, payload []byte) bool {
	if r.tail-r.head+uint64(cost) > uint64(len(r.buf)) {
		return false
	}
	i := r.tail & r.mask
	if n := copy(r.buf[i:], payload); n < len(payload) {
		copy(r.buf, payload[n:])
	}
	r.tail += uint64(cost)
	return true
}

// span returns the n bytes at position pos in place, as the segment up
// to the wrap point and the (possibly empty) segment after it. Valid
// until the space is released and charged again.
//
//photon:hotpath
func (r *ring) span(pos uint64, n int) (head, tail []byte) {
	i := pos & r.mask
	if end := i + uint64(n); end > uint64(len(r.buf)) {
		return r.buf[i:], r.buf[:end-uint64(len(r.buf))]
	}
	return r.buf[i : i+uint64(n)], nil
}
