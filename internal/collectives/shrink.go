package collectives

// Shrink: the recovery half of the failure-aware collectives. A
// revoked communicator cannot be repaired — its epoch is condemned —
// but its survivors can agree on who is left and continue on a fresh
// communicator with recompiled schedules and a bumped epoch.
//
// Protocol: leader-based two-phase agreement over the engine's
// terminal, eventually-global death latches (a killed rank is latched
// down by every survivor's detector; latches never revert).
//
//	report  every non-leader sends its death bitmap to the lowest comm
//	        rank it believes alive, then waits for that rank's commit,
//	        watching its health. If the believed leader dies, the
//	        survivor re-elects (believed-alive views shrink
//	        monotonically toward the same minimum) and resends.
//	commit  the leader collects reports from every member it believes
//	        alive — re-electing membership as further deaths latch
//	        mid-gather, via the same abort plumbing the collectives
//	        use — then broadcasts the survivor list and new epoch.
//
// The new Comm closes with a fence barrier. Two caveats, documented
// here because they are protocol-inherent rather than bugs: a member
// that dies after the leader committed is a member of the new Comm and
// condemns its first collective (the caller re-Shrinks — epochs are
// cheap); and a leader that dies mid-commit-broadcast can leave the
// survivors split between the new epoch and a re-election that times
// out — callers treating a Shrink error as fatal (restart) stay
// correct. Full consensus would need another round; the paper's
// middleware scope (fail fast, let the runtime above rebuild) does not
// ask for it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"photon/internal/core"
)

// reportRID is the phase-1 RID: src's death-bitmap report.
func (c *Comm) reportRID(src int) uint64 { return rid(c.genBase, kindShrink, 0, 0, src) }

// commitRID is the phase-2 RID: the leader's survivor-list commit.
func (c *Comm) commitRID(leader int) uint64 { return rid(c.genBase, kindShrink, 1, 0, leader) }

// Shrink runs survivor agreement and returns a new communicator over
// the surviving ranks, with schedules recompiled for the new size and
// an epoch bump fencing every stale RID of this communicator. It is
// collective over the survivors: every rank that intends to continue
// must call it (typically after a collective returned ErrCommRevoked;
// calling it on a healthy Comm is legal and shrinks away nothing).
//
// On success the returned Comm is fenced by an internal barrier. When
// Shrink itself fails, the returned Comm may be non-nil alongside the
// error (a member died between agreement and the fence); the caller
// may re-Shrink that Comm or treat the error as fatal.
//
// The parent Comm is unusable afterwards. Shrink may be called at most
// once per Comm (its agreement RIDs are epoch-scoped singletons).
func (c *Comm) Shrink() (*Comm, error) {
	// The parent runs no further ring call, so nothing may deliver
	// into its ring banks (a revoked parent has withdrawn them already).
	c.withdrawCarry()
	if c.timeout > 0 {
		c.deadline = time.Now().Add(c.timeout)
	} else {
		c.deadline = time.Time{}
	}
	if c.epoch+1 >= maxEpochs {
		return nil, fmt.Errorf("collectives: epoch space exhausted after %d shrinks", c.epoch)
	}

	dead := make([]bool, c.size)
	if d := c.deadRank.Load(); d >= 0 {
		dead[d] = true
	}
	refresh := func() {
		for r := 0; r < c.size; r++ {
			if r != c.rank && !dead[r] && c.ph.PeerHealthState(c.group[r]) == core.PeerDown {
				dead[r] = true
			}
		}
	}
	leaderOf := func() int {
		for r := 0; r < c.size; r++ {
			if r == c.rank || !dead[r] {
				return r
			}
		}
		return c.rank
	}
	// mergeNotice folds a consumed revocation notice into the death
	// view: during Shrink a late notice is information, not a reason
	// to abort the agreement.
	mergeNotice := func(comp core.Completion) {
		if d := decodeRevokeNotice(comp.Data, c.size, c.rank); d >= 0 {
			dead[d] = true
		}
	}

	refresh()
	if leaderOf() == c.rank {
		return c.shrinkLead(dead, refresh, mergeNotice)
	}
	return c.shrinkFollow(dead, refresh, leaderOf, mergeNotice)
}

// encodeDeathBitmap encodes dead as the phase-1 report payload: bit r
// set when comm rank r is believed dead.
func encodeDeathBitmap(dead []bool) []byte {
	bm := make([]byte, (len(dead)+7)/8)
	for r, d := range dead {
		if d {
			bm[r/8] |= 1 << (r % 8)
		}
	}
	return bm
}

// decodeDeathBitmap marks in dead every rank a report's bitmap names,
// except self and any rank at or beyond size; bits past the payload
// read as alive.
func decodeDeathBitmap(bm []byte, size, self int, dead []bool) {
	for r := 0; r < size && r/8 < len(bm); r++ {
		if r != self && bm[r/8]&(1<<(r%8)) != 0 {
			dead[r] = true
		}
	}
}

// shrinkFollow is the non-leader side: report to the believed leader,
// wait for its commit, re-electing when the believed leader dies.
func (c *Comm) shrinkFollow(dead []bool, refresh func(), leaderOf func() int, mergeNotice func(core.Completion)) (*Comm, error) {
	reported := -1
	for {
		refresh()
		leader := leaderOf()
		if leader == c.rank {
			// Everyone below is dead: this rank leads after all.
			return c.shrinkLead(dead, refresh, mergeNotice)
		}
		if leader != reported {
			err := c.sendNBRaw(leader, encodeDeathBitmap(dead), 0, c.reportRID(c.rank))
			if err != nil {
				if errors.Is(err, core.ErrPeerDown) {
					dead[leader] = true
					continue
				}
				return nil, err
			}
			c.ph.Flush()
			reported = leader
		}
		c.rid1[0] = c.commitRID(leader)
		c.comp1[0] = core.Completion{}
		err := c.waitAllRaw(c.rid1[:], c.comp1[:], false)
		switch {
		case err == nil:
			return c.applyCommit(c.comp1[0].Data)
		case errors.Is(err, core.ErrWaitAborted):
			mergeNotice(c.spec.Aborted)
			continue
		case errors.Is(err, core.ErrPeerDown):
			if d := c.commRankOf(c.spec.DownRank); d >= 0 {
				dead[d] = true
			}
			continue
		default:
			return nil, err
		}
	}
}

// shrinkLead is the leader side: gather a report from every member
// believed alive (removing members whose death latches mid-gather),
// then broadcast the commit.
func (c *Comm) shrinkLead(dead []bool, refresh func(), mergeNotice func(core.Completion)) (*Comm, error) {
	received := make([]bool, c.size)
	received[c.rank] = true
	for {
		refresh()
		c.rids = c.rids[:0]
		for r := 0; r < c.size; r++ {
			if !dead[r] && !received[r] {
				c.rids = append(c.rids, c.reportRID(r))
			}
		}
		if len(c.rids) == 0 {
			break
		}
		out := c.compsFor(len(c.rids))
		err := c.waitAllRaw(c.rids, out, false)
		// Whatever the outcome, absorb the reports that did arrive.
		for i := range out {
			if out[i].RID == 0 || out[i].Err != nil {
				continue
			}
			src := int(c.rids[i] & (MaxRanks - 1))
			received[src] = true
			decodeDeathBitmap(out[i].Data, c.size, c.rank, dead)
			out[i] = core.Completion{}
		}
		switch {
		case err == nil:
			continue // re-check: absorbed reports may have named new dead
		case errors.Is(err, core.ErrWaitAborted):
			mergeNotice(c.spec.Aborted)
		case errors.Is(err, core.ErrPeerDown):
			if d := c.commRankOf(c.spec.DownRank); d >= 0 {
				dead[d] = true
			}
		default:
			return nil, err
		}
	}
	survivors := make([]int, 0, c.size)
	for r := 0; r < c.size; r++ {
		if !dead[r] {
			survivors = append(survivors, r)
		}
	}
	pay := encodeCommit(c.epoch+1, survivors)
	c.lrids = c.lrids[:0]
	for _, r := range survivors {
		if r == c.rank {
			continue
		}
		lrid := uint64(0)
		if c.needFIN(len(pay)) {
			lrid = rid(c.genBase, kindShrink, 2, 0, r)
		}
		err := c.sendNBRaw(r, pay, lrid, c.commitRID(c.rank))
		if err != nil {
			if errors.Is(err, core.ErrPeerDown) {
				// Died after agreeing: still committed — the corpse is a
				// member of the new Comm and will condemn its first
				// collective; survivors re-Shrink from there.
				continue
			}
			return nil, err
		}
		if lrid != 0 {
			c.lrids = append(c.lrids, lrid)
		}
	}
	c.ph.Flush()
	if len(c.lrids) > 0 {
		out := c.compsFor(len(c.lrids))
		err := c.waitAllRaw(c.lrids, out, true)
		c.lrids = c.lrids[:0]
		if err != nil && !errors.Is(err, core.ErrPeerDown) && !errors.Is(err, core.ErrWaitAborted) {
			return nil, err
		}
	}
	return c.buildShrunken(c.epoch+1, survivors)
}

// commitHdrLen is the fixed part of a commit: epoch (8) | count (2),
// followed by the survivors' parent comm ranks (2 each, ascending).
const commitHdrLen = 10

// encodeCommit is the leader's phase-2 payload.
func encodeCommit(epoch uint64, survivors []int) []byte {
	pay := make([]byte, commitHdrLen+2*len(survivors))
	binary.LittleEndian.PutUint64(pay[0:], epoch)
	binary.LittleEndian.PutUint16(pay[8:], uint16(len(survivors)))
	for i, r := range survivors {
		binary.LittleEndian.PutUint16(pay[commitHdrLen+2*i:], uint16(r))
	}
	return pay
}

// decodeCommit parses a commit for a follower of a size-rank comm
// that expects epoch: a body whose count does not match its length, a
// rank outside the comm, ranks that repeat or are out of order, or
// another epoch is an error.
func decodeCommit(pay []byte, size int, epoch uint64) ([]int, error) {
	if len(pay) < commitHdrLen {
		return nil, fmt.Errorf("collectives: shrink commit of %d bytes", len(pay))
	}
	if e := binary.LittleEndian.Uint64(pay[0:]); e != epoch {
		return nil, fmt.Errorf("collectives: shrink commit for epoch %d, want %d", e, epoch)
	}
	n := int(binary.LittleEndian.Uint16(pay[8:]))
	if len(pay) != commitHdrLen+2*n {
		return nil, fmt.Errorf("collectives: shrink commit names %d survivors in %d bytes", n, len(pay))
	}
	survivors := make([]int, n)
	for i := range survivors {
		r := int(binary.LittleEndian.Uint16(pay[commitHdrLen+2*i:]))
		switch {
		case r >= size:
			return nil, fmt.Errorf("collectives: shrink commit names rank %d of %d", r, size)
		case i > 0 && r <= survivors[i-1]:
			return nil, fmt.Errorf("collectives: shrink commit ranks not strictly ascending (%d after %d)", r, survivors[i-1])
		}
		survivors[i] = r
	}
	return survivors, nil
}

// applyCommit is the follower side of phase 2.
func (c *Comm) applyCommit(pay []byte) (*Comm, error) {
	survivors, err := decodeCommit(pay, c.size, c.epoch+1)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(survivors, c.rank) {
		return nil, fmt.Errorf("collectives: excluded from shrink commit (presumed dead): %w", ErrCommRevoked)
	}
	return c.buildShrunken(c.epoch+1, survivors)
}

// buildShrunken constructs the successor communicator and fences it
// with a barrier so stale-epoch stragglers are behind every member
// before the first real collective.
func (c *Comm) buildShrunken(epoch uint64, survivors []int) (*Comm, error) {
	group := make([]int, len(survivors))
	for i, r := range survivors {
		group[i] = c.group[r]
	}
	nc := newComm(c.ph, c.timeout, group, epoch, c.st)
	c.revoked.Store(true) // parent is retired either way
	if err := nc.Barrier(); err != nil {
		return nc, err
	}
	c.st.shrinks.Add(1)
	return nc, nil
}
