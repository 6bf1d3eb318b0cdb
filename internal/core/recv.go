package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/trace"
)

// recvTab is the one-shot posted-receive table: buffers registered by
// RID that inbound message deliveries (packed and rendezvous) land in
// directly, skipping the middleware's own allocation and staging copy.
// It exists for schedule-driven layers (collectives) that know exactly
// which RIDs will arrive and want arrivals delivered into caller-owned
// memory once.
type recvTab struct {
	// count gates the poll-path lookup: when no receives are posted,
	// consulting the table costs one atomic load and no lock.
	count atomic.Int64

	//photon:lock recvtab 35
	mu   sync.Mutex
	bufs map[uint64][]byte
}

func (t *recvTab) init() { t.bufs = make(map[uint64][]byte) }

// post registers buf for rid. The rid must not already be posted.
func (t *recvTab) post(rid uint64, buf []byte) error {
	t.mu.Lock()
	if _, dup := t.bufs[rid]; dup {
		t.mu.Unlock()
		return fmt.Errorf("photon: receive already posted for rid %#x", rid)
	}
	t.bufs[rid] = buf
	t.mu.Unlock()
	t.count.Add(1)
	return nil
}

// take removes and returns the posted buffer for rid if one exists and
// is large enough for need bytes. Undersized postings are left in
// place (the arrival falls back to middleware-owned delivery and the
// caller reclaims the posting with cancel). Called from the poll path,
// but the count load gates the mutex: with nothing posted the cost is
// one atomic load.
func (t *recvTab) take(rid uint64, need int) ([]byte, bool) {
	if t.count.Load() == 0 {
		return nil, false
	}
	t.mu.Lock()
	b, ok := t.bufs[rid]
	if !ok || len(b) < need {
		t.mu.Unlock()
		return nil, false
	}
	delete(t.bufs, rid)
	t.mu.Unlock()
	t.count.Add(-1)
	return b[:need], true
}

// restore re-registers a buffer taken by take when the posted delivery
// could not be started (transport busy); the next attempt finds it
// again.
func (t *recvTab) restore(rid uint64, buf []byte) {
	t.mu.Lock()
	t.bufs[rid] = buf
	t.mu.Unlock()
	t.count.Add(1)
}

// cancel removes a posting that was never consumed.
func (t *recvTab) cancel(rid uint64) bool {
	if t.count.Load() == 0 {
		return false
	}
	t.mu.Lock()
	_, ok := t.bufs[rid]
	if ok {
		delete(t.bufs, rid)
	}
	t.mu.Unlock()
	if ok {
		t.count.Add(-1)
	}
	return ok
}

// PostRecv registers a one-shot posted receive: when a message delivery
// (packed eager or rendezvous) arrives carrying rid, its payload is
// placed directly into buf — no middleware allocation, no staging copy
// — and the harvested remote completion's Data aliases buf.
//
// The posting is consumed by the first matching arrival whose payload
// fits in buf (rendezvous reads land buf[:size]; packed deliveries
// surface Data = buf[:payloadLen]). An arrival larger than buf ignores
// the posting and is delivered middleware-owned as usual. A message
// that arrives before PostRecv is likewise delivered middleware-owned:
// callers that cannot order the post before the arrival check
// CancelRecv after harvesting — if it returns true the posting went
// unused and the completion's Data is a middleware-owned copy to fold
// into buf.
//
// buf is owned by the engine until the posting is consumed or
// canceled.
func (p *Photon) PostRecv(rid uint64, buf []byte) error {
	if rid == 0 {
		return fmt.Errorf("photon: posted receive needs a non-zero rid")
	}
	if p.closed.Load() {
		return ErrClosed
	}
	return p.recvs.post(rid, buf)
}

// CancelRecv withdraws a posted receive, reporting whether the posting
// was still unconsumed (true: the engine no longer references buf;
// false: an arrival already consumed it).
func (p *Photon) CancelRecv(rid uint64) bool {
	return p.recvs.cancel(rid)
}

// Waiter paces the dry rounds of a blocking wait loop. It subscribes a
// private capacity-1 channel to the engine's notifier fan-out and parks
// on it: the agent that queues the next completion (or applies the next
// remote write) wakes every parked waiter directly, so the wait
// resolves at goroutine-handoff latency and one waiter consuming a wake
// can never starve another (each holds its own latch). This matters
// doubly on few-core hosts — a parked waiter frees the processor for
// the runtime's network poller, where a spinning one starves it, and a
// timer sleep would round every blocking latency up to kernel
// scheduler-tick granularity (~1ms on HZ=1000 hosts).
//
// A Waiter keeps its subscription and park timer alive between waits,
// so schedule-driven callers (collectives) running thousands of rounds
// do not re-subscribe per round. Release hands both back to the
// notifier's free lists, so one-shot waits (WaitLocal, PutBlocking) on
// a stack Waiter allocate nothing either. The park timer is taken on
// the first round that actually parks: a wait that never parks takes
// none. The zero value is not usable; obtain one from NewWaiter and
// Release it when done. A Waiter is not safe for concurrent use.
type Waiter struct {
	p    *Photon
	park *time.Timer   // taken on the first park, reused until Release
	ch   chan struct{} // private notifier subscription (recycled)
	pend []int         // WaitAll index scratch, reused across calls
}

// NewWaiter creates a reusable wait pacer bound to this instance.
func NewWaiter(p *Photon) *Waiter { return &Waiter{p: p} }

// Idle parks the caller until backend activity suggests progress is
// possible (or parkGrace passes). Call it after a Progress round that
// handled nothing, and re-poll after every return: one wake token can
// coalesce many events, and timer wakeups carry no information at all.
func (w *Waiter) Idle() {
	if w.ch == nil {
		// First dry round: subscribe, then re-poll immediately — an
		// event delivered before the subscription existed was never
		// routed to this channel, so parking now could stall a wait
		// by a full parkGrace.
		w.ch = w.p.nfy.subscribe()
		return
	}
	if w.park == nil {
		w.park = w.p.nfy.parkTimer()
	} else {
		w.park.Reset(parkGrace)
	}
	select {
	case <-w.ch:
		// The drain never blocks, so it is right under both timer
		// channel semantics: with the buffered pre-1.23 channel a
		// fire still in flight past Stop can at worst wake the next
		// park early, which re-polls anyway.
		if !w.park.Stop() {
			select {
			case <-w.park.C:
			default:
			}
		}
	case <-w.park.C:
	}
}

// Release hands the waiter's notifier subscription and park timer back
// to the notifier. The waiter may be reused afterwards (the next Idle
// resubscribes).
func (w *Waiter) Release() {
	if w.ch != nil {
		w.p.nfy.unsubscribe(w.ch, w.park)
		w.ch, w.park = nil, nil
	}
}

// ErrWaitAborted is returned by the spec-carrying waits when one of the
// spec's AbortRIDs arrived: the wait was cut short not because an
// awaited completion failed but because an out-of-band abort message
// (a collective revocation notice) landed. The consumed completion is
// in WaitSpec.Aborted.
var ErrWaitAborted = errors.New("photon: wait aborted")

// WaitSpec parameterizes the failure-aware blocking calls, WaitAll and
// Retry. The call returns as soon as anything proves the batch cannot
// or should not complete:
//
//   - a reaped completion carries a non-nil Err (returned immediately,
//     DownRank set to its peer; remaining completions are abandoned);
//   - a rank in Watch latches PeerDown (a wrapped ErrPeerDown naming
//     the rank is returned, DownRank set);
//   - a remote completion for one of AbortRIDs arrives (ErrWaitAborted
//     is returned; Aborted/AbortIdx carry the consumed notice);
//   - Deadline passes (ErrTimeout). A zero Deadline falls back to
//     2×OpTimeout when op deadlines are armed, else waits forever.
//
// The zero spec is valid: wait for everything, fail on the first error
// completion. The spec is caller-owned and reusable; the output fields
// (DownRank, AbortIdx, Aborted) are overwritten by each call that
// returns an abort-flavored error.
type WaitSpec struct {
	Deadline  time.Time
	Watch     []int    // peer ranks whose PeerDown latch aborts the wait
	AbortRIDs []uint64 // remote RIDs whose arrival aborts the wait

	DownRank int        // set on ErrPeerDown: the rank that latched down
	AbortIdx int        // set on ErrWaitAborted: index into AbortRIDs
	Aborted  Completion // set on ErrWaitAborted: the consumed notice
}

// WaitAll drives progress until every listed completion — local ones
// when local is set, remote ones otherwise — has arrived, removing each
// from its stream; out[i] receives the completion for rids[i]. A zero
// rid is skipped (its out slot is left untouched) — schedules with
// no-op edges pass holes rather than compacting. Unlike len(rids)
// separate WaitRemote calls, one call reaps arrivals in whatever order
// the network delivers them, so a round of r messages costs one network
// latency, not r. spec bounds and aborts the wait (see WaitSpec); its
// AbortRIDs are always matched against the remote stream (abort notices
// arrive from peers) even when the awaited completions are local. On
// an early return the completions that did arrive are in out.
func (p *Photon) WaitAll(w *Waiter, rids []uint64, out []Completion, spec *WaitSpec, local bool) error {
	if cap(w.pend) < len(rids) {
		w.pend = make([]int, 0, len(rids))
	}
	return p.waitAll(w, w.pend[:0], rids, out, spec.Deadline, spec, local)
}

// Retry calls post until it returns anything but ErrWouldBlock, and
// returns that. A post refused for backpressure (ledger credits, a full
// send queue) is retried after a Progress round, and every retry round
// ends like a WaitAll round (see endRound): spec's abort conditions
// (nil selects none), its deadline, ErrClosed, and a park on w when the
// round did nothing. A post that succeeds or fails hard on its first
// try returns at once: no clock read, no deadline setup and no
// subscription.
func (p *Photon) Retry(w *Waiter, spec *WaitSpec, post func() error) error {
	err := post()
	if !errors.Is(err, ErrWouldBlock) {
		return err
	}
	var deadline time.Time
	if spec != nil {
		deadline = spec.Deadline
	}
	deadline = p.waitDeadline(deadline)
	for {
		n := p.Progress()
		if err := p.endRound(w, spec, deadline, n == 0); err != nil {
			return err
		}
		if err := post(); !errors.Is(err, ErrWouldBlock) {
			return err
		}
	}
}

// waitDeadline bounds a blocking call. With op deadlines armed, even
// "wait forever" calls are bounded: an in-flight op surfaces its error
// completion within ~OpTimeout plus one sweep period, so 2×OpTimeout
// covers every waiter — including ones waiting on a remote RID that no
// local op ever carried (e.g. the peer died before posting), or on
// credits a dead peer will never return.
func (p *Photon) waitDeadline(d time.Time) time.Time {
	if d.IsZero() && p.opTimeoutNS > 0 {
		return time.Now().Add(2 * time.Duration(p.opTimeoutNS))
	}
	return d
}

// endRound is the one set of exit conditions behind every blocking
// call, run after each round that left it unfinished: an arrived abort
// RID, then a watched rank latched down (both only with a spec), the
// deadline, a closed engine. Failing none, it parks on w when idle (the
// round found nothing to do) and returns nil to go round again.
func (p *Photon) endRound(w *Waiter, spec *WaitSpec, deadline time.Time, idle bool) error {
	if spec != nil {
		for i, ar := range spec.AbortRIDs {
			if ar == 0 {
				continue
			}
			if c, ok := p.eng.remoteCQ.takeMatch(ar); ok {
				spec.AbortIdx = i
				spec.Aborted = c
				return ErrWaitAborted
			}
		}
		for _, r := range spec.Watch {
			if p.PeerHealthState(r) == PeerDown {
				spec.DownRank = r
				return fmt.Errorf("photon: rank %d: %w", r, ErrPeerDown)
			}
		}
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return ErrTimeout
	}
	if p.closed.Load() {
		return ErrClosed
	}
	if idle {
		w.Idle()
	}
	return nil
}

// waitAll is the engine's one blocking wait; WaitLocal, WaitRemote and
// WaitAll are all calls into it. A nil spec (the one-RID waits) selects
// no abort conditions and leaves Completion.Err for the caller to read.
// pend is index scratch with room for len(rids) entries; it is a
// parameter, not a Waiter field read here, so that the one-RID waits
// can pass stack memory.
func (p *Photon) waitAll(w *Waiter, pend []int, rids []uint64, out []Completion, deadline time.Time, spec *WaitSpec, local bool) error {
	if len(out) < len(rids) {
		return fmt.Errorf("photon: wait-all out slice too short: %d for %d rids", len(out), len(rids))
	}
	deadline = p.waitDeadline(deadline)
	for i, rid := range rids {
		if rid != 0 {
			pend = append(pend, i)
		}
	}
	cq := p.eng.cq(local)
	for len(pend) > 0 {
		n := p.Progress()
		took := false
		for j := 0; j < len(pend); {
			i := pend[j]
			c, ok := cq.takeMatch(rids[i])
			if !ok {
				j++
				continue
			}
			if c.traced {
				p.traceEv(trace.KindReap, c.RID, "reap.wait")
			}
			out[i] = c
			pend[j] = pend[len(pend)-1]
			pend = pend[:len(pend)-1]
			took = true
			if spec != nil && c.Err != nil {
				// Fail fast: one failed op condemns the batch; the
				// abandoned completions belong to a collective that
				// is about to be revoked anyway.
				spec.DownRank = c.Rank
				return c.Err
			}
		}
		if len(pend) == 0 {
			break
		}
		if err := p.endRound(w, spec, deadline, n == 0 && !took); err != nil {
			return err
		}
	}
	return nil
}
