package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Access is a bitmask of the rights a registration grants, mirroring
// IBV_ACCESS_*.
type Access uint8

// Access flag values.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
	AccessRemoteAtomic
)

// AccessAll grants every right; the engine registers its ledgers and
// eager buffers with it.
const AccessAll = AccessLocalWrite | AccessRemoteRead | AccessRemoteWrite | AccessRemoteAtomic

var (
	// ErrBusy is returned by an access made with try set when a lock
	// it needs is held elsewhere: nothing was touched, and the caller
	// may retry or queue the access.
	ErrBusy = errors.New("mem: registration busy")
	// ErrUnregistered is wrapped by every access under an rkey no live
	// registration carries, and returned by Deregister for a
	// descriptor that names none.
	ErrUnregistered = errors.New("mem: memory region not registered")
)

// atomicWidth is the operand size of FetchAdd and CompSwap, and the
// alignment they require.
const atomicWidth = 8

// RegTable is the registration table of every transport: the simulated
// NIC's memory regions, and the memory tcp's reader and shm's appliers
// apply one-sided operations to in software. It hands out pinned
// buffers in a fake address space — page-aligned bases, linearly, with
// a guard page between registrations — keyed by rkeys that are never
// reused, so an rkey is its registration's generation.
//
// Each registration is a Region with its own DMA lock (shared by
// reads, exclusive for writes and atomics), its own write-activity
// counter and its access rights. The table lock guards only the rkey
// map and the free list, and is never held across a region lock.
// Deregistered regions are recycled, so a register/deregister cycle
// allocates nothing once warm.
//
// Every access goes through Access, so the rkey, rights, bounds,
// wrap-around and atomic-alignment checks on addresses that arrive
// from the wire live here and nowhere else.
type RegTable struct {
	name string // error prefix: the owning transport
	// released, when set, runs after every release of a lock the
	// table takes or hands out (see NewRegTable).
	released func()

	//photon:lock regtable 10
	mu       sync.RWMutex
	regs     map[uint32]*Region
	free     []*Region // deregistered regions, reused by Register
	nextRKey uint32
	nextBase uint64
}

// Region is one registration.
//
// Its lock serializes remote accesses to the bytes; local code that
// polls memory remote peers write (ledgers, mailboxes) holds the read
// side via RLocker while reading. This stands in for the cache-coherent
// ordered visibility real DMA provides.
//
// Regions are recycled: once Deregister returns, the *Region, its
// RLocker and its WriteActivity belong to whichever registration the
// table hands the object to next, and must not be used again.
type Region struct {
	tab *RegTable
	//photon:lock region 20
	mu     sync.RWMutex
	writes atomic.Uint64 // bumped after every applied write or atomic
	// rkey is 0 from the moment Deregister unmaps the region, so an
	// access still waiting for mu finds it stale.
	rkey atomic.Uint32
	// buf, base and access are written under mu; accesses read them
	// under it, and the registration's owner without it once Register
	// has returned.
	buf    []byte
	base   uint64
	access Access
}

// NewRegTable creates an empty table; name prefixes its errors. When
// released is non-nil it runs after every release of a lock the table
// takes or hands out — at the end of each access, Register and
// Deregister, and on Unlock of a region's RLocker — so a transport
// whose try-mode access was refused can wake whoever should retry it.
// It must not block.
func NewRegTable(name string, released func()) *RegTable {
	return &RegTable{name: name, released: released, regs: make(map[uint32]*Region), nextRKey: 1, nextBase: 0x1000}
}

func (t *RegTable) release() {
	if t.released != nil {
		t.released()
	}
}

// Register pins buf with the given rights. The buffer is pinned for the
// life of the registration: callers keep it reachable and do not
// reallocate it.
func (t *RegTable) Register(buf []byte, access Access) (*Region, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("%s: empty registration", t.name)
	}
	t.mu.Lock()
	rkey, base := t.nextRKey, t.nextBase
	t.nextRKey++
	t.nextBase += (uint64(len(buf))+0xFFF)&^uint64(0xFFF) + 0x1000
	var r *Region
	if k := len(t.free) - 1; k >= 0 {
		r = t.free[k]
		t.free[k] = nil
		t.free = t.free[:k]
	} else {
		r = &Region{tab: t}
	}
	t.mu.Unlock()
	// A stale access may still hold the recycled object; taking its
	// lock waits it out, and the new rkey makes the next one fail.
	r.mu.Lock()
	r.buf, r.base, r.access = buf, base, access
	r.rkey.Store(rkey)
	r.mu.Unlock()
	t.mu.Lock()
	t.regs[rkey] = r
	t.mu.Unlock()
	t.release()
	return r, nil
}

// Deregister removes the registration rb names (its rkey and base).
// Accesses that race it either finish before it returns or fail: none
// touches the buffer afterwards. The region object then waits on the
// free list for the next Register.
func (t *RegTable) Deregister(rb RemoteBuffer) error {
	t.mu.Lock()
	r := t.regs[rb.RKey]
	if r == nil || r.base != rb.Addr {
		t.mu.Unlock()
		return ErrUnregistered
	}
	delete(t.regs, rb.RKey)
	r.rkey.Store(0)
	t.mu.Unlock()
	// Taking the lock waits out an access already applying; one that
	// looked the rkey up but has not locked yet finds rkey 0.
	r.mu.Lock()
	r.buf = nil
	r.mu.Unlock()
	t.mu.Lock()
	t.free = append(t.free, r)
	t.mu.Unlock()
	t.release()
	return nil
}

// WriteActivity returns the write-activity loader of the live
// registration rb names.
func (t *RegTable) WriteActivity(rb RemoteBuffer) (func() uint64, bool) {
	t.mu.RLock()
	r := t.regs[rb.RKey]
	t.mu.RUnlock()
	if r == nil || r.base != rb.Addr {
		return nil, false
	}
	return r.WriteActivity, true
}

// Access is the one path by which a remote or loopback operation
// touches registered memory. It resolves rkey under the table lock,
// takes the region's lock (shared when need is AccessRemoteRead,
// exclusive otherwise), re-checks the rkey under it — the region may
// have been deregistered and recycled since the lookup — and checks
// that the region grants need, that [addr, addr+n) lies inside it
// without wrapping, and that an atomic is one aligned 8-byte word.
// Then fn runs on those bytes before the lock is released; it must not
// retain its slice. A write or atomic bumps the region's activity
// counter after the release. With try set each lock is only tried, and
// ErrBusy comes back, with nothing done, when one is held elsewhere.
func (t *RegTable) Access(try bool, addr uint64, rkey uint32, n int, need Access, fn func([]byte)) error {
	if !t.mu.TryRLock() {
		if try {
			return ErrBusy
		}
		t.mu.RLock()
	}
	r := t.regs[rkey]
	t.mu.RUnlock()
	if r == nil {
		t.release()
		return fmt.Errorf("%s: rkey %d: %w", t.name, rkey, ErrUnregistered)
	}
	write := need != AccessRemoteRead
	var locked bool
	if write {
		locked = r.mu.TryLock()
	} else {
		locked = r.mu.TryRLock()
	}
	if !locked {
		if try {
			return ErrBusy
		}
		if write {
			r.mu.Lock()
		} else {
			r.mu.RLock()
		}
	}
	off, size := addr-r.base, uint64(len(r.buf))
	var err error
	switch {
	case r.rkey.Load() != rkey:
		err = fmt.Errorf("%s: rkey %d: %w", t.name, rkey, ErrUnregistered)
	case r.access&need != need:
		err = fmt.Errorf("%s: access violation on rkey %d", t.name, rkey)
	case addr < r.base || n < 0 || off > size || uint64(n) > size-off:
		err = fmt.Errorf("%s: address range [%#x,+%d) out of registration bounds", t.name, addr, n)
	case need == AccessRemoteAtomic && (addr%atomicWidth != 0 || n != atomicWidth):
		err = fmt.Errorf("%s: misaligned atomic", t.name)
	default:
		fn(r.buf[off : off+uint64(n)])
	}
	if write {
		r.mu.Unlock()
	} else {
		r.mu.RUnlock()
	}
	// Bump the counter only after unlocking, so a poller that sees it
	// move finds the region lock free instead of parking on it. The
	// object may have been recycled by now; a spurious bump costs its
	// new owner one needless sweep.
	if err == nil && write {
		r.writes.Add(1)
	}
	t.release()
	return err
}

// Write copies head then tail (a payload that may arrive in two
// segments, e.g. across a ring's wrap point) to addr.
func (t *RegTable) Write(try bool, addr uint64, rkey uint32, head, tail []byte) error {
	return t.Access(try, addr, rkey, len(head)+len(tail), AccessRemoteWrite, func(w []byte) {
		copy(w[copy(w, head):], tail)
	})
}

// Read fills dst from addr.
func (t *RegTable) Read(try bool, dst []byte, addr uint64, rkey uint32) error {
	return t.Access(try, addr, rkey, len(dst), AccessRemoteRead, func(w []byte) { copy(dst, w) })
}

// FetchAdd atomically adds add to the 8-byte word at addr, returning
// the prior value.
func (t *RegTable) FetchAdd(try bool, addr uint64, rkey uint32, add uint64) (uint64, error) {
	return t.atomic(try, addr, rkey, func(old uint64) uint64 { return old + add })
}

// CompSwap atomically replaces the 8-byte word at addr with swap when
// it equals compare, returning the prior value.
func (t *RegTable) CompSwap(try bool, addr uint64, rkey uint32, compare, swap uint64) (uint64, error) {
	return t.atomic(try, addr, rkey, func(old uint64) uint64 {
		if old == compare {
			return swap
		}
		return old
	})
}

func (t *RegTable) atomic(try bool, addr uint64, rkey uint32, fn func(uint64) uint64) (uint64, error) {
	var old uint64
	err := t.Access(try, addr, rkey, atomicWidth, AccessRemoteAtomic, func(w []byte) {
		old = binary.LittleEndian.Uint64(w)
		binary.LittleEndian.PutUint64(w, fn(old))
	})
	return old, err
}

// Base returns the region's base address: remote peers address its
// bytes as Base()+offset.
func (r *Region) Base() uint64 { return r.base }

// RKey returns the remote access key (0 once deregistered).
func (r *Region) RKey() uint32 { return r.rkey.Load() }

// Len returns the length of the registered buffer.
func (r *Region) Len() int { return len(r.buf) }

// Remote returns the descriptor peers address the region by.
func (r *Region) Remote() RemoteBuffer {
	return RemoteBuffer{Addr: r.base, RKey: r.RKey(), Len: len(r.buf)}
}

// WriteActivity returns a monotonic count of writes and atomics applied
// to the region — the software analogue of a DMA event counter. Pollers
// use it to skip sweeping rings when nothing has arrived.
func (r *Region) WriteActivity() uint64 { return r.writes.Load() }

// RLocker returns the region's DMA lock for local readers: its read
// side, whose Unlock runs the table's release hook.
func (r *Region) RLocker() sync.Locker { return (*dmaLock)(r) }

type dmaLock Region

func (l *dmaLock) Lock() { l.mu.RLock() }

func (l *dmaLock) Unlock() {
	l.mu.RUnlock()
	l.tab.release()
}
