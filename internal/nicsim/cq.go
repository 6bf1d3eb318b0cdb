package nicsim

import (
	"sync"
	"sync/atomic"

	"photon/internal/mem"
)

// Opcode identifies the kind of work a completion refers to.
type Opcode uint8

// Work request opcodes.
const (
	OpInvalid Opcode = iota
	OpSend
	OpRDMAWrite
	OpRDMARead
	OpAtomicFetchAdd
	OpAtomicCompSwap
	OpRecv
)

var opNames = [...]string{"invalid", "send", "rdma-write", "rdma-read", "fetch-add", "comp-swap", "recv"}

// String returns the lowercase opcode name.
func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "opcode(?)"
}

// Status reports how a work request completed.
type Status uint8

// Completion status values.
const (
	StatusOK Status = iota
	StatusLocalError
	StatusRemoteAccessError
	StatusLengthError
	StatusRNRExceeded
)

var statusNames = [...]string{"ok", "local-error", "remote-access-error", "length-error", "rnr-exceeded"}

// String returns the lowercase status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "status(?)"
}

// CQE is one completion queue entry.
type CQE struct {
	WRID    uint64
	Status  Status
	Op      Opcode
	ByteLen int    // bytes transferred (receives: payload length)
	QPN     uint32 // local QP the completion belongs to
	SrcQPN  uint32 // remote QP (receives only)
	SrcNode int    // remote node (receives only)
}

// CQ is a bounded completion queue. Multiple QPs may share one CQ, as
// in verbs. Overflow is recorded and drops the entry; a correctly
// sized application never overflows (Photon sizes CQs to its ledger
// and request-table bounds).
type CQ struct {
	//photon:lock cq 30
	mu       sync.Mutex
	q        mem.Queue[CQE]
	capacity int
	overflow int64
	fastLen  atomic.Int32 // lock-free mirror of q.Len() for empty checks

	// wakeHook, when set, is invoked (outside the queue lock) after
	// every push — the simulated analogue of a completion-channel
	// event. Middleware installs its notify kick here so pollers can
	// park instead of spinning.
	wakeHook atomic.Pointer[func()]
}

// NewCQ creates a completion queue with the given capacity (minimum 1).
func NewCQ(capacity int) *CQ {
	if capacity < 1 {
		capacity = 1
	}
	return &CQ{q: mem.NewQueue[CQE](capacity), capacity: capacity}
}

// Overflows reports how many completions were dropped due to overflow.
func (c *CQ) Overflows() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflow
}

func (c *CQ) push(e CQE) {
	c.mu.Lock()
	if c.q.Len() == c.capacity {
		c.overflow++
		c.mu.Unlock()
		return
	}
	c.q.PushBack(e)
	c.fastLen.Store(int32(c.q.Len()))
	c.mu.Unlock()
	if f := c.wakeHook.Load(); f != nil {
		(*f)()
	}
}

// SetWakeHook installs fn to run after every completion push (nil
// clears it). fn must be non-blocking and callable from any goroutine;
// it fires outside the queue lock.
func (c *CQ) SetWakeHook(fn func()) {
	if fn == nil {
		c.wakeHook.Store(nil)
		return
	}
	c.wakeHook.Store(&fn)
}

// PollInto reaps up to len(dst) completions into dst without
// allocating, returning the count.
func (c *CQ) PollInto(dst []CQE) int {
	if len(dst) == 0 {
		return 0
	}
	c.mu.Lock()
	n := c.q.PopInto(dst)
	c.fastLen.Store(int32(c.q.Len()))
	c.mu.Unlock()
	return n
}

// FastLen reports the queue depth without locking: a cheap empty check
// for polling loops (exact at quiescence, advisory under concurrency).
func (c *CQ) FastLen() int { return int(c.fastLen.Load()) }
