package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrBusy is returned by an accessor called with try set when the table
// lock is held: the access was not attempted and may be retried or
// queued by the caller.
var ErrBusy = errors.New("mem: registration table busy")

// RegTable is the registration table of a transport whose one-sided
// operations are applied in software (tcp's reader, or on shm whichever
// rank holds the pair's producer lock): pinned buffers in a fake
// address space — page-aligned bases handed out linearly, keyed by
// rkey — behind one RWMutex that doubles as the "DMA lock" Register
// hands back to local readers.
//
// Every remote access goes through it, so the rkey, bounds, address
// wrap-around and atomic-alignment checks on addresses that arrive
// from the wire live here and nowhere else. Each applied write or
// atomic bumps the activity counter the engine uses to skip ledger
// sweeps while no data has landed.
type RegTable struct {
	name string // error prefix: the owning transport

	//photon:lock regmem 40
	mu       sync.RWMutex
	act      atomic.Uint64
	regs     map[uint32]region
	nextRKey uint32
	nextBase uint64
}

type region struct {
	buf  []byte
	base uint64
}

// atomicWidth is the operand size of FetchAdd and CompSwap, and the
// alignment they require.
const atomicWidth = 8

// NewRegTable creates an empty table; name prefixes its errors.
func NewRegTable(name string) *RegTable {
	return &RegTable{name: name, regs: make(map[uint32]region), nextRKey: 1, nextBase: 0x1000}
}

// Register pins buf, returning its descriptor and the read-locker that
// must be held while locally reading bytes remote peers write into it.
func (t *RegTable) Register(buf []byte) (RemoteBuffer, sync.Locker, error) {
	if len(buf) == 0 {
		return RemoteBuffer{}, nil, fmt.Errorf("%s: empty registration", t.name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rkey, base := t.nextRKey, t.nextBase
	t.nextRKey++
	// A guard page between registrations keeps an overrun of one from
	// ever being a valid address in the next.
	t.nextBase += (uint64(len(buf))+0xFFF)&^uint64(0xFFF) + 0x1000
	t.regs[rkey] = region{buf: buf, base: base}
	return RemoteBuffer{Addr: base, RKey: rkey, Len: len(buf)}, t.mu.RLocker(), nil
}

// Deregister removes a registration by its descriptor.
func (t *RegTable) Deregister(rb RemoteBuffer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.regs[rb.RKey]; !ok {
		return fmt.Errorf("%s: no registration with rkey %d", t.name, rb.RKey)
	}
	delete(t.regs, rb.RKey)
	return nil
}

// window resolves [addr, addr+n) under rkey to the registered bytes.
// The caller holds mu. The comparison is done on offsets, so an address
// whose end wraps past 2^64 cannot pass as in bounds.
func (t *RegTable) window(addr uint64, rkey uint32, n int) ([]byte, error) {
	r, ok := t.regs[rkey]
	if !ok {
		return nil, fmt.Errorf("%s: unknown rkey %d", t.name, rkey)
	}
	off := addr - r.base
	size := uint64(len(r.buf))
	if addr < r.base || n < 0 || off > size || uint64(n) > size-off {
		return nil, fmt.Errorf("%s: address out of registration bounds", t.name)
	}
	return r.buf[off : off+uint64(n)], nil
}

// Check validates a remote access without performing it, so a caller
// can size a response buffer from a wire-supplied length only after
// the length is known to be in bounds.
func (t *RegTable) Check(addr uint64, rkey uint32, n int) error {
	t.mu.RLock()
	_, err := t.window(addr, rkey, n)
	t.mu.RUnlock()
	return err
}

// Write copies head then tail (a payload that may arrive in two
// segments, e.g. across a ring's wrap point) to addr. With try set it
// returns ErrBusy instead of waiting for the table lock, as do Read,
// FetchAdd and CompSwap.
func (t *RegTable) Write(try bool, addr uint64, rkey uint32, head, tail []byte) error {
	if !try {
		t.mu.Lock()
	} else if !t.mu.TryLock() {
		return ErrBusy
	}
	w, err := t.window(addr, rkey, len(head)+len(tail))
	if err == nil {
		copy(w[copy(w, head):], tail)
	}
	t.mu.Unlock()
	if err == nil {
		t.act.Add(1)
	}
	return err
}

// Read fills dst from addr.
func (t *RegTable) Read(try bool, dst []byte, addr uint64, rkey uint32) error {
	if !try {
		t.mu.RLock()
	} else if !t.mu.TryRLock() {
		return ErrBusy
	}
	w, err := t.window(addr, rkey, len(dst))
	if err == nil {
		copy(dst, w)
	}
	t.mu.RUnlock()
	return err
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
	if !try {
		t.mu.Lock()
	} else if !t.mu.TryLock() {
		return 0, ErrBusy
	}
	w, err := t.window(addr, rkey, atomicWidth)
	if err == nil && addr%atomicWidth != 0 {
		err = fmt.Errorf("%s: misaligned atomic", t.name)
	}
	var old uint64
	if err == nil {
		old = binary.LittleEndian.Uint64(w)
		binary.LittleEndian.PutUint64(w, fn(old))
	}
	t.mu.Unlock()
	if err == nil {
		t.act.Add(1)
	}
	return old, err
}

// Activity is the monotonic count of applied writes and atomics.
func (t *RegTable) Activity() uint64 { return t.act.Load() }
