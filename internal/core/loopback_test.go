package core_test

import (
	"sync"
	"sync/atomic"

	"photon/internal/core"
	"photon/internal/mem"
)

// loopBackend is a zero-cost single-rank backend: every one-sided
// operation applies synchronously against the local registration table
// and completes immediately. It removes all transport cost so tests and
// benchmarks can observe the middleware's own software overhead
// (allocations, locking) in isolation, and it lets tests script the
// completion stream exactly (duplicate/late completion injection).
type loopBackend struct {
	mu       sync.Mutex
	regs     map[uint32]*loopReg
	nextRKey uint32
	nextBase uint64

	// comps holds pending completions (no allocation on a warm post
	// path).
	comps mem.Queue[core.BackendCompletion]

	// captureTokens, when set, records signaled tokens instead of
	// completing them (the test injects completions itself).
	captureTokens bool
	tokens        []uint64

	// writeErr, when set, rejects every write post with it (posting
	// nothing); readBusy rejects that many upcoming reads with
	// ErrWouldBlock. Tests script transport pushback and failure.
	writeErr error
	readBusy int

	// wake and act are the contract's event plumbing: the sink fires
	// for every queued completion and every applied write, and act
	// counts the applied writes.
	wake *core.WakeChan
	act  atomic.Uint64
}

type loopReg struct {
	buf  []byte
	base uint64
}

func newLoopBackend() *loopBackend {
	return &loopBackend{regs: make(map[uint32]*loopReg), nextRKey: 1, nextBase: 0x1000, wake: core.NewWakeChan()}
}

func (l *loopBackend) SetWakeSink(fn func()) { l.wake.SetSink(fn) }

func (l *loopBackend) WriteActivity(mem.RemoteBuffer) (func() uint64, bool) { return l.act.Load, true }

func (l *loopBackend) ClockOffset(int) (offsetNS, rttNS int64, ok bool) { return 0, 0, true }

func (l *loopBackend) Rank() int { return 0 }
func (l *loopBackend) Size() int { return 1 }

func (l *loopBackend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rkey := l.nextRKey
	l.nextRKey++
	base := l.nextBase
	l.nextBase += (uint64(len(buf)) + 0xFFF) &^ uint64(0xFFF)
	l.nextBase += 0x1000
	l.regs[rkey] = &loopReg{buf: buf, base: base}
	return mem.RemoteBuffer{Addr: base, RKey: rkey, Len: len(buf)}, noLock{}, nil
}

type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

func (l *loopBackend) Deregister(rb mem.RemoteBuffer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.regs, rb.RKey)
	return nil
}

func (l *loopBackend) apply(raddr uint64, rkey uint32, data []byte) error {
	r, ok := l.regs[rkey]
	if !ok || raddr < r.base || raddr+uint64(len(data)) > r.base+uint64(len(r.buf)) {
		return core.ErrTooLarge
	}
	copy(r.buf[raddr-r.base:], data)
	l.act.Add(1)
	l.wake.Kick()
	return nil
}

// pushLocked queues one completion.
func (l *loopBackend) pushLocked(c core.BackendCompletion) {
	l.comps.PushBack(c)
	l.wake.Kick()
}

func (l *loopBackend) complete(token uint64, signaled bool, err error) {
	if !signaled && err == nil {
		return
	}
	if l.captureTokens {
		l.tokens = append(l.tokens, token)
		return
	}
	l.pushLocked(core.BackendCompletion{Token: token, OK: err == nil, Err: err})
}

// inject queues a scripted completion (late/duplicate delivery tests).
func (l *loopBackend) inject(c core.BackendCompletion) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pushLocked(c)
}

func (l *loopBackend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writeErr != nil {
		return l.writeErr
	}
	err := l.apply(raddr, rkey, local)
	l.complete(token, signaled, err)
	return nil
}

func (l *loopBackend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writeErr != nil {
		return 0, l.writeErr
	}
	for _, r := range reqs {
		err := l.apply(r.RemoteAddr, r.RKey, r.Local)
		l.complete(r.Token, r.Signaled, err)
	}
	return len(reqs), nil
}

func (l *loopBackend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.readBusy > 0 {
		l.readBusy--
		return core.ErrWouldBlock
	}
	r, ok := l.regs[rkey]
	var err error
	if !ok || raddr < r.base || raddr+uint64(len(local)) > r.base+uint64(len(r.buf)) {
		err = core.ErrTooLarge
	} else {
		copy(local, r.buf[raddr-r.base:])
	}
	l.complete(token, true, err)
	return nil
}

func (l *loopBackend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.regs[rkey]
	var err error
	if !ok || raddr < r.base || raddr+8 > r.base+uint64(len(r.buf)) {
		err = core.ErrTooLarge
	} else {
		off := raddr - r.base
		orig := leUint64(r.buf[off:])
		putLeUint64(result, orig)
		putLeUint64(r.buf[off:], orig+add)
	}
	l.complete(token, true, err)
	return nil
}

func (l *loopBackend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.regs[rkey]
	var err error
	if !ok || raddr < r.base || raddr+8 > r.base+uint64(len(r.buf)) {
		err = core.ErrTooLarge
	} else {
		off := raddr - r.base
		orig := leUint64(r.buf[off:])
		putLeUint64(result, orig)
		if orig == compare {
			putLeUint64(r.buf[off:], swap)
		}
	}
	l.complete(token, true, err)
	return nil
}

func (l *loopBackend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.apply(raddr, rkey, data)
}

func (l *loopBackend) Poll(dst []core.BackendCompletion) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.comps.PopInto(dst)
}

func (l *loopBackend) Exchange(local []byte) ([][]byte, error) {
	return [][]byte{append([]byte(nil), local...)}, nil
}

func (l *loopBackend) Close() error { return nil }

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
