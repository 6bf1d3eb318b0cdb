package mem

import "sync"

// Size-classed frame recycling for the transports' wire frames. A frame
// has a strict lifecycle — encoded at post, owned by the transport
// until its delivery is settled, then released exactly once — so the
// send path can draw from a pool instead of the allocator. The
// simulated NIC releases a frame once it is consumed (payloads copied
// into posted buffers, MRs, or result destinations); the TCP backend
// releases a write frame once the peer's cumulative ack retires it from
// the retransmit window.

// frameClasses spans 32 B (class 0) to 1 MiB; larger frames (huge
// rendezvous reads) fall back to the garbage collector.
const (
	frameMinShift  = 5
	frameClasses   = 16
	frameMaxRetain = 256 // per class; bounds idle pool memory
)

// framePool is one size class: a mutex-guarded LIFO freelist (sharded
// pools are overkill here — the lock is held for an append/pop).
type framePool struct {
	//photon:lock framepool 60
	mu   sync.Mutex
	free [][]byte
}

var framePools [frameClasses]framePool

// frameClassFor returns the size class whose capacity holds n bytes,
// or -1 when n exceeds the largest pooled class.
func frameClassFor(n int) int {
	c := 0
	for n > 1<<(frameMinShift+c) {
		c++
		if c >= frameClasses {
			return -1
		}
	}
	return c
}

// GetFrame returns a frame buffer of length n, recycled when a pooled
// class fits. Its contents are unspecified: the caller overwrites it.
func GetFrame(n int) []byte {
	c := frameClassFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	p := &framePools[c]
	p.mu.Lock()
	if l := len(p.free); l > 0 {
		b := p.free[l-1]
		p.free[l-1] = nil
		p.free = p.free[:l-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<(frameMinShift+c))
}

// PutFrame recycles a frame obtained from GetFrame; the caller must
// hold no other reference to it. Safe on any buffer: capacities that do
// not match a pooled class exactly are dropped.
func PutFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := frameClassFor(cap(b))
	if c < 0 || cap(b) != 1<<(frameMinShift+c) {
		return
	}
	p := &framePools[c]
	p.mu.Lock()
	if len(p.free) < frameMaxRetain {
		p.free = append(p.free, b[:cap(b)])
	}
	p.mu.Unlock()
}
