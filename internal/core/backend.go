package core

import (
	"errors"
	"sync"
	"time"

	"photon/internal/errs"
	"photon/internal/mem"
)

// Errors shared by Photon and its backends.
var (
	// ErrWouldBlock is returned by non-blocking operations that cannot
	// make progress right now (no ledger credits, transport send queue
	// full). The caller should drive Progress and retry, or use the
	// blocking wrappers.
	ErrWouldBlock = errors.New("photon: operation would block")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("photon: closed")
	// ErrBadRank is returned for out-of-range peer ranks.
	ErrBadRank = errors.New("photon: rank out of range")
	// ErrTooLarge is returned when a payload exceeds a protocol limit.
	ErrTooLarge = errors.New("photon: payload too large")
	// ErrPeerDown is returned (or carried by error completions) when a
	// peer has been declared dead: its transport connection could not
	// be recovered within the reconnect budget, or the failure detector
	// latched it down. Ops toward a down peer fail fast rather than
	// waiting out OpTimeout. Aliases errs.ErrPeerDown so layers below
	// core (backends) and above (collectives) match the same sentinel.
	ErrPeerDown = errs.ErrPeerDown
)

// PeerHealth is the liveness state of one peer as seen by the failure
// detector: healthy → suspect (no traffic for SuspectAfter) → down
// (reconnect budget exhausted; terminal), with recovering covering the
// window where the transport has lost the connection and is actively
// re-establishing it.
type PeerHealth int32

// PeerHealth states.
const (
	PeerHealthy PeerHealth = iota
	PeerSuspect
	PeerRecovering
	PeerDown
)

// String names the health state for logs and gauges.
func (h PeerHealth) String() string {
	switch h {
	case PeerHealthy:
		return "healthy"
	case PeerSuspect:
		return "suspect"
	case PeerRecovering:
		return "recovering"
	case PeerDown:
		return "down"
	}
	return "unknown"
}

// HealthBackend is an optional Backend extension implemented by
// transports with a failure detector (tcp, and chaos's simulated one;
// vsim and shm have none and simply omit it — the engine then relies
// on OpTimeout alone). ConfigureLiveness arms it: the backend emits
// heartbeat traffic on links idle longer than the heartbeat interval
// (piggyback-suppressed when data is flowing) and reports a peer
// suspect once nothing has been received from it for suspectAfter.
// PeerHealth must be cheap and callable concurrently: the progress
// engine polls it to drive the core peer state machine.
type HealthBackend interface {
	ConfigureLiveness(heartbeat, suspectAfter time.Duration)
	PeerHealth(rank int) PeerHealth
}

// BackendCompletion reports one finished backend operation to the
// Photon engine. Token is the value the engine passed when posting.
type BackendCompletion struct {
	Token uint64
	OK    bool
	Err   error
}

// Backend is the transport Photon runs over: one-sided operations,
// registered memory, an out-of-band bootstrap exchange, and the event
// plumbing the engine's single progress/wait path is built on. Three
// transports implement it — backend/vsim (simulated IB verbs over the
// in-process fabric), backend/tcp (real sockets, one-sided ops applied
// by a remote agent) and backend/shm (per-pair shared-memory rings) —
// mirroring the original's verbs / uGNI / libfabric / TCP backend set;
// backend/chaos wraps any of them with fault injection and forwards
// the whole contract, so fault tests run the production path.
//
// The contract is one interface with no optional data-path parts: every
// transport batches, pushes wake events, counts applied writes and
// reports clock offsets, so the engine has exactly one way to post,
// one way to sleep and one sweep policy. Only two things stay optional
// (see HealthBackend and StatsBackend), because some transports
// genuinely have nothing to offer there.
//
// Semantics the engine relies on:
//
//   - Operations posted toward one rank execute and become remotely
//     visible in posting order (RC queue-pair ordering).
//   - A signaled operation's completion (reported by Poll with its
//     token) implies every earlier operation toward the same rank has
//     completed too.
//   - Post* never blocks; it returns ErrWouldBlock under transient
//     resource exhaustion.
//   - PostWrite snapshots local before returning (the doorbell-DMA
//     model): once PostWrite returns nil the caller may immediately
//     reuse or recycle local. PostRead and the atomics are the
//     opposite — local is the result destination and stays owned by
//     the backend until the operation's completion is reported.
//     The engine's entry-buffer pool relies on this to recycle
//     scratch buffers at post time rather than completion time.
type Backend interface {
	// Rank and Size identify this process in the job.
	Rank() int
	Size() int

	// Register pins buf for remote access, returning its descriptor
	// and the registration's own DMA lock: a read-locker that callers
	// must hold while polling bytes that remote peers write into buf.
	// Holding it stalls accesses to this registration only.
	Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error)
	// Deregister releases a registration by its descriptor.
	Deregister(rb mem.RemoteBuffer) error
	// WriteActivity returns a loader for the registration's own
	// monotonic count of writes and atomics applied to it (remote ones
	// and ApplyLocal); writes into other registrations do not move it,
	// and ok is false when rb is not registered here. The progress
	// engine uses it as a DMA event counter — ledger rings are swept
	// only when the arena's count has moved, so an idle or spinning
	// poller never contends with the arena's DMA lock.
	WriteActivity(rb mem.RemoteBuffer) (load func() uint64, ok bool)

	// PostWrite starts a one-sided write of local into rank's memory
	// at (raddr, rkey). If signaled, Poll later reports token.
	PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error
	// PostWriteBatch posts a burst of writes toward one rank with a
	// single doorbell-style call, saving per-op dispatch overhead.
	// Requests are posted in order; the call stops at the first
	// request that cannot be posted and returns how many were accepted
	// (the error, if any, describes the first failure). A short count
	// with a nil or ErrWouldBlock error means the caller should retry
	// the tail later, exactly like a per-op ErrWouldBlock. The
	// snapshot-at-post buffer contract applies to every WriteReq.Local.
	PostWriteBatch(rank int, reqs []WriteReq) (int, error)
	// PostRead starts a one-sided read from rank's memory into local;
	// always signaled.
	PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error
	// PostFetchAdd atomically adds add to the 8-byte word at
	// (raddr, rkey) on rank, placing the prior value in result. raddr
	// must be 8-byte aligned; a misaligned atomic completes in error.
	PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error
	// PostCompSwap atomically compare-and-swaps the 8-byte word,
	// placing the prior value in result.
	PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error

	// ApplyLocal performs a loopback DMA write into this rank's own
	// registered memory, with the same rkey/bounds/access validation a
	// remote write gets. The engine uses it to place packed-put
	// payloads that arrived inside ledger entries.
	ApplyLocal(raddr uint64, rkey uint32, data []byte) error

	// Poll reaps pending backend completions into dst, returning the
	// count. It must not block.
	Poll(dst []BackendCompletion) int
	// SetWakeSink installs the function the backend calls whenever its
	// activity may have made engine progress possible: a completion
	// was queued for Poll, or remote data landed in registered memory
	// (signaled or not — ledger writes are unsignaled by design). The
	// call runs on the event-producing goroutine, so the sink must be
	// treated exactly like a channel kick: non-blocking, callable from
	// any goroutine, coalescing — one call may stand for many events.
	// The engine installs its notifier fan-out here, which wakes every
	// parked waiter and the BackendNotify latch at goroutine-handoff
	// latency; a timer sleep would round every blocking wait up to
	// kernel scheduler-tick granularity. Backends built on WakeChan get
	// this for free.
	SetWakeSink(fn func())

	// ClockOffset reports rank's wall clock minus the local one in
	// nanoseconds, with the round-trip time of the minimum-RTT sample
	// behind the estimate; ok is false until one is available (the TCP
	// backend closes NTP-style exchanges over its heartbeat frames;
	// in-process transports share one clock and report zero). The
	// merged trace exporter uses it to place events from different
	// processes on one timeline.
	ClockOffset(rank int) (offsetNS, rttNS int64, ok bool)

	// Exchange is the out-of-band bootstrap allgather: every rank
	// contributes a blob and receives all blobs indexed by rank. It
	// is collective and blocking.
	Exchange(local []byte) ([][]byte, error)

	// Close releases transport resources.
	Close() error
}

// WriteReq is one element of a batched write post (see
// Backend.PostWriteBatch). Fields mirror PostWrite's parameters.
type WriteReq struct {
	Local      []byte
	RemoteAddr uint64
	RKey       uint32
	Token      uint64
	Signaled   bool
}

// StatsBackend is an optional Backend extension (vsim exports no
// transport gauges of its own): TransportStats yields transport-level
// data-path counters as named int64 gauges (syscall coalescing, ack
// piggybacking, queue behavior — whatever the transport measures about
// itself). Photon.Metrics merges them into its gauge snapshot so
// transport behavior is observable alongside engine counters.
// Implementations must tolerate concurrent callers and must not block.
type StatsBackend interface {
	TransportStats(yield func(name string, value int64))
}
