package collectives

// Failure plane: the abort/revoke half of the failure-aware
// collectives (Shrink, the recovery half, lives in shrink.go).
//
// Abort: every wait (waitAll) and every post retry (sendNB, putNB) runs
// core's one blocking loop under c.spec: it watches the engine's
// peer-health latches for the ranks involved, matches the revocation
// notice RIDs, and is bounded by the whole-collective deadline. The
// first observation of a member's death — a watched latch, an
// ErrPeerDown error completion, a fail-fast post, or a peer's
// revocation notice — revokes the communicator (filterWait).
//
// Revoke: the revoking rank fans a notice out over its dissemination
// out-edges (the barrier schedule's notify set), exactly like a
// barrier notification: a tiny eager send, one per surviving neighbor.
// Every rank that receives a notice is itself revoked and forwards
// once, so the flood covers the communicator in at most
// ceil(log_k N) network latencies — ranks not adjacent to the corpse
// abort in one network latency from their nearest revoked neighbor,
// not after a timeout. Notices are epoch-scoped (RID gen = genBase,
// kindRevoke), so a Shrink successor can never match a predecessor's
// notice.
//
// Revocation is terminal for the epoch: once latched, every collective
// on the Comm — including ones already in flight on other error paths
// — returns an error matching ErrCommRevoked (and core.ErrPeerDown,
// naming the failed rank when known). Recovery is Comm.Shrink.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"photon/internal/core"
	"photon/internal/metrics"
)

// unknownRank is the revocation-notice payload value for "failed rank
// not known" (the notice itself is the only evidence).
const unknownRank = 1<<16 - 1

// enter is the public-entry prologue: a revoked comm fails fast, and
// the whole-collective deadline is armed once — however many rounds
// and waits follow, they all share it.
func (c *Comm) enter() error {
	if c.revoked.Load() {
		return c.revokedErr()
	}
	if c.timeout > 0 {
		c.deadline = time.Now().Add(c.timeout)
	} else {
		c.deadline = time.Time{}
	}
	return nil
}

// Revoked reports whether the communicator has been revoked.
func (c *Comm) Revoked() bool { return c.revoked.Load() }

// compileRevokeEdges derives the revocation flood graph from the
// barrier dissemination schedule: out-edges are the union of every
// round's notify set, in-edges the union of the await sets. Each
// in-edge has one epoch-scoped notice RID this comm's waits watch.
func (c *Comm) compileRevokeEdges() {
	c.barSched = compileBarrier(c.rank, c.size, radix)
	add := func(set []int, r int) []int {
		for _, x := range set {
			if x == r {
				return set
			}
		}
		return append(set, r)
	}
	for i := range c.barSched.rounds {
		round := &c.barSched.rounds[i]
		for _, to := range round.notify {
			c.revokeOut = add(c.revokeOut, to)
		}
		for _, from := range round.await {
			c.revokeIn = add(c.revokeIn, from)
		}
	}
	for _, from := range c.revokeIn {
		c.revokeRIDs = append(c.revokeRIDs, rid(c.genBase, kindRevoke, 0, 0, from))
	}
}

// sendNBRaw is sendNB for Shrink: the same retry loop with no abort
// RIDs (Shrink observes notices itself), errors passed through raw.
func (c *Comm) sendNBRaw(dst int, data []byte, localRID, remoteRID uint64) error {
	return c.ph.Retry(c.w, c.postSpec(dst, nil), func() error {
		return c.ph.Send(c.group[dst], data, localRID, remoteRID)
	})
}

// filterWait converts a waitAllRaw or post-retry error into the comm's
// failure semantics: a watched-rank death, an ErrPeerDown completion or
// post revokes (naming c.spec.DownRank), an arrived notice revokes with
// the notice's failed rank, timeouts and everything else pass through.
func (c *Comm) filterWait(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrWaitAborted):
		return c.revokeFromNotice(c.spec.Aborted)
	case errors.Is(err, core.ErrPeerDown):
		return c.revoke(c.commRankOf(c.spec.DownRank))
	}
	return err
}

// commRankOf translates an engine rank back to a comm rank (-1 when
// the engine rank is not a member). Cold path; linear scan.
func (c *Comm) commRankOf(engineRank int) int {
	for i, er := range c.group {
		if er == engineRank {
			return i
		}
	}
	return -1
}

// revokeFromNotice revokes the comm off a received revocation notice,
// adopting the failed rank its payload names (when known).
func (c *Comm) revokeFromNotice(comp core.Completion) error {
	return c.revoke(decodeRevokeNotice(comp.Data, c.size, c.rank))
}

// revoke latches the communicator revoked (terminal for the epoch),
// records the first known-dead comm rank, fans the revocation notice
// out once, and returns the revocation error every path surfaces.
func (c *Comm) revoke(dead int) error {
	if dead >= 0 && dead < c.size {
		c.deadRank.CompareAndSwap(-1, int64(dead))
	}
	if c.revoked.CompareAndSwap(false, true) {
		// The epoch is dead: no ring call will adopt the carried
		// receives, so withdraw the engine's delivery rights into ringB.
		c.withdrawCarry()
		c.st.aborts.Add(1)
		c.sendRevokes()
		c.recordAbort()
	}
	return c.revokedErr()
}

// sendRevokes fans the revocation notice out over the surviving
// dissemination out-edges: one 2-byte eager send per neighbor carrying
// the failed comm rank (unknownRank when not known). Bounded
// best-effort — a destination that is down or backpressured past the
// retry budget is skipped; the flood is redundant (every revoked rank
// forwards once) and the deadline still bounds ranks it misses.
func (c *Comm) sendRevokes() {
	d := c.deadRank.Load()
	if d < 0 {
		d = unknownRank
	}
	pay := encodeRevokeNotice(int(d))
	r := rid(c.genBase, kindRevoke, 0, 0, c.rank)
	for _, dst := range c.revokeOut {
		if dst == int(d) || c.ph.PeerHealthState(c.group[dst]) == core.PeerDown {
			continue
		}
		// A fixed budget, not core's Retry: the flood is best-effort
		// and must not wait out the collective deadline.
		for tries := 0; tries < 64; tries++ {
			err := c.ph.Send(c.group[dst], pay[:], 0, r)
			if err == nil {
				c.st.revokesSent.Add(1)
				break
			}
			if !errors.Is(err, core.ErrWouldBlock) {
				break
			}
			if c.ph.Progress() == 0 {
				c.w.Idle()
			}
		}
	}
	c.ph.Flush()
}

// encodeRevokeNotice is the revocation notice payload: the failed comm
// rank, or unknownRank when it is not known.
func encodeRevokeNotice(dead int) [2]byte {
	var pay [2]byte
	binary.LittleEndian.PutUint16(pay[:], uint16(dead))
	return pay
}

// decodeRevokeNotice returns the failed comm rank a notice names, or -1
// when it names none a size-rank comm member self can adopt: a short
// payload, unknownRank or another rank beyond the comm, or self.
func decodeRevokeNotice(pay []byte, size, self int) int {
	if len(pay) < 2 {
		return -1
	}
	if d := int(binary.LittleEndian.Uint16(pay)); d < size && d != self {
		return d
	}
	return -1
}

// recordAbort feeds the observability plane at the revocation instant:
// the detection→abort latency histogram (time from the engine's
// peer-down latch to this abort) and a reason-tagged flight-recorder
// capture of the failing round.
func (c *Comm) recordAbort() {
	d := c.deadRank.Load()
	if d < 0 {
		return
	}
	er := c.group[d]
	if ns := c.ph.PeerLastTransitionNS(er); ns > 0 {
		if lat := time.Now().UnixNano() - ns; lat >= 0 {
			c.ph.MetricsRegistry().RecordColl(metrics.CollAbort, lat)
		}
	}
	c.ph.CaptureEvent(er, "collective abort")
}

// revokedErr builds the error every operation on a revoked comm
// returns: it matches both ErrCommRevoked and core.ErrPeerDown via
// errors.Is and names the failed rank when known.
func (c *Comm) revokedErr() error {
	if d := c.deadRank.Load(); d >= 0 {
		return fmt.Errorf("collectives: rank %d (engine rank %d) down: %w: %w",
			d, c.group[d], ErrCommRevoked, core.ErrPeerDown)
	}
	return fmt.Errorf("collectives: %w", ErrCommRevoked)
}
