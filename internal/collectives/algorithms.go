package collectives

import (
	"encoding/binary"
	"fmt"
	"math"

	"photon/internal/core"
)

func imin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------

// barrier runs the radix-k dissemination schedule: each round posts all
// of the round's zero-byte notification sends nonblocking, then reaps
// the awaited set in one wait — one network latency per round. Plain
// sends (not puts) carry the notifications: a nil-payload eager send is
// the cheapest frame both backends can emit, and needs no remote
// buffer or write-path bookkeeping.
func (c *Comm) barrier(gen uint64) error {
	bs := c.barrierSched()
	for r := range bs.rounds {
		round := &bs.rounds[r]
		for _, to := range round.notify {
			if err := c.sendNB(to, nil, 0, rid(gen, kindBarrier, 0, r, c.rank)); err != nil {
				return err
			}
		}
		c.rids = c.rids[:0]
		for _, from := range round.await {
			c.rids = append(c.rids, rid(gen, kindBarrier, 0, r, from))
		}
		out := c.compsFor(len(c.rids))
		if err := c.waitAll(c.rids, out, false); err != nil {
			return err
		}
	}
	// Push any batched credit returns out so a peer that is about to
	// go quiet doesn't strand them.
	c.ph.Flush()
	return nil
}

// ---------------------------------------------------------------------
// Small-vector allreduce: recursive doubling over the registered arena
// ---------------------------------------------------------------------

// allreduceRD reduces vec in place via non-power-of-two recursive
// doubling. Each round is one one-sided put of the current partial
// vector into the partner's (round, bank) arena slot plus one
// completion wait; nothing allocates after the arena is built.
func (c *Comm) allreduceRD(rdgen uint64, vec []float64, op Op) error {
	rd := c.rdSched()
	a, err := c.ensureArena()
	if err != nil {
		return err
	}
	nb := 8 * len(vec)
	bank := int(rdgen & 1)
	buf := c.sendScratch(2 * nb)

	// putSlot encodes the current vector into peer's (round, bank)
	// slot. Puts above the packed-put limit post their scratch half
	// unsnapshotted, so the half is reused only after that transfer's
	// local completion — two alternating halves keep the ACK round
	// trip off the critical path (the wait for a half's previous put
	// overlaps the partner reads in between).
	var pendPut [2]uint64
	seq := 0
	putSlot := func(peer, round int) error {
		half := seq & 1
		seq++
		if pr := pendPut[half]; pr != 0 {
			pendPut[half] = 0
			if _, err := c.wait1(pr, true); err != nil {
				return err
			}
		}
		b := buf[half*nb : half*nb+nb]
		encodeF64Into(b, vec)
		r := rid(rdgen, kindAllreduceRD, 0, round, c.rank)
		if err := c.putNB(peer, b, a.peers[peer], a.off(round, bank), r, r); err != nil {
			return err
		}
		pendPut[half] = r
		return nil
	}
	// drainPuts reaps the outstanding local completions before the
	// call returns (unreaped completions would pile up in the match
	// table, and the scratch halves must be quiescent for the next
	// caller).
	drainPuts := func() error {
		for i, pr := range pendPut {
			if pr != 0 {
				pendPut[i] = 0
				if _, err := c.wait1(pr, true); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// readSlot waits for src's put into this rank's (round, bank) slot
	// and folds (or copies) it into vec under the registration locker.
	readSlot := func(src, round int, combine bool) error {
		if _, err := c.wait1(rid(rdgen, kindAllreduceRD, 0, round, src), false); err != nil {
			return err
		}
		off := a.off(round, bank)
		a.lk.Lock()
		if combine {
			decodeCombineF64(vec, a.buf[off:off+uint64(nb)], op)
		} else {
			decodeF64Into(vec, a.buf[off:off+uint64(nb)])
		}
		a.lk.Unlock()
		return nil
	}

	if rd.foldSender {
		// Fold in: hand the vector to the even partner, then collect
		// the finished result from the fold-out round.
		if err := putSlot(rd.partner, 0); err != nil {
			return err
		}
		if err := readSlot(rd.partner, rd.rounds-1, false); err != nil {
			return err
		}
		return drainPuts()
	}
	if rd.inFold {
		if err := readSlot(rd.partner, 0, true); err != nil {
			return err
		}
	}
	for i, peer := range rd.peers {
		round := 1 + i
		if err := putSlot(peer, round); err != nil {
			return err
		}
		if err := readSlot(peer, round, true); err != nil {
			return err
		}
	}
	if rd.inFold {
		if err := putSlot(rd.partner, rd.rounds-1); err != nil {
			return err
		}
	}
	return drainPuts()
}

// ---------------------------------------------------------------------
// Large-vector allreduce: ring reduce-scatter + allgather
// ---------------------------------------------------------------------

// ringBanks is the ring's posted-receive window: step s receives into
// bank s%ringBanks, posted two steps before it is awaited.
const ringBanks = 3

// ringCarry records the receives a successful ring call posted for the
// next ring call's first steps: the generation they carry, the vector
// length their chunk sizes assume, and how many steps are posted (0:
// nothing is carried).
type ringCarry struct {
	gen    uint64
	vecLen int
	steps  int
}

// withdrawCarry cancels the carried postings and reports whether any
// of them had already been consumed. A consumed posting's read lands
// in ringB, and its completion's Data aliases it.
func (c *Comm) withdrawCarry() (consumed bool) {
	left := (c.rank - 1 + c.size) % c.size
	for s := 0; s < c.carry.steps; s++ {
		if !c.ph.CancelRecv(rid(c.carry.gen, kindAllreduce, 0, s, left)) {
			consumed = true
		}
	}
	c.carry.steps = 0
	return consumed
}

// allreduceRing reduces vec in place with the bandwidth-optimal ring:
// N-1 reduce-scatter steps leave each rank owning one fully reduced
// chunk, N-1 allgather steps circulate the finished chunks. Each rank
// moves 2(N-1)/N of the vector total regardless of N. At step s a rank
// sends chunk rank-s right and receives chunk rank-s-1 from the left
// (folding it in during reduce-scatter, overwriting during allgather).
//
// Sends stage through two scratch banks (a bank is reused only after
// its transfer's local completion). Receives land in ringB, a window
// of ringBanks posted banks: before awaiting step s the receives for
// steps s+1 and s+2 are posted too. The left neighbor posts its step-g
// send only after reaping the local completion of its step g-2, which
// needs this rank's FIN for g-2, so its RTS can run at most two steps
// ahead of this rank's reads and finds its posting. The window also
// spans calls: a call that succeeds posts the next call's first
// ringBanks steps (the ring's own generation counter makes their RIDs
// known in advance), so the step-0 RTSs a neighbor sends while this
// rank is still in the collectives between two ring calls land in
// place too. The next call adopts them when its length matches and
// withdraws them otherwise; revoke and Shrink withdraw them between
// calls. A read that still beats its posting (two ring calls back to
// back, a first call) is staged and handed over as a middleware-owned
// copy, which the loop decodes the same way.
func (c *Comm) allreduceRing(gen uint64, vec []float64, op Op) error {
	n := c.size
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	steps := 2 * (n - 1)
	L := len(vec)
	bound := func(i int) (int, int) {
		i %= n
		return i * L / n, (i + 1) * L / n
	}
	maxC := 8 * (L/n + 1)
	snd := c.sendScratch(2 * maxC)

	// posted is the first step without a receive posting; postings for
	// steps below it and not yet awaited are live.
	posted := 0
	if c.carry.steps > 0 {
		if c.carry.gen == gen && c.carry.vecLen == L {
			posted = c.carry.steps
			c.carry.steps = 0
		} else if c.withdrawCarry() {
			// A carried read of another chunk layout is landing in
			// ringB. Its completion keeps those banks alive; this
			// call posts into fresh ones, so no posting aliases that
			// chunk before its step decodes it.
			c.ringB = nil
		}
	}
	if cap(c.ringB) < ringBanks*maxC {
		c.ringB = make([]byte, ringBanks*maxC)
	}
	rcv := c.ringB[:ringBanks*maxC]

	sridAt := func(step int, src int) uint64 { return rid(gen, kindAllreduce, 0, step, src) }
	lridAt := func(step int) uint64 { return rid(gen, kindAllreduce, 1, step, c.rank) }
	postStep := func(g uint64, s int) error {
		lo, hi := bound(c.rank - s - 1 + 2*n)
		b := (s % ringBanks) * maxC
		return c.ph.PostRecv(rid(g, kindAllreduce, 0, s, left), rcv[b:b+8*(hi-lo)])
	}
	// abort withdraws the live postings from step s on, so the engine
	// holds no delivery rights into ringB once the call unwinds.
	abort := func(s int, err error) error {
		for ; s < posted; s++ {
			c.ph.CancelRecv(sridAt(s, left))
		}
		return err
	}

	for s := 0; s < steps; s++ {
		for ; posted < s+ringBanks && posted < steps; posted++ {
			if err := postStep(gen, posted); err != nil {
				return abort(s, err)
			}
		}
		if s >= 2 {
			// Reclaim the send bank step s-2 used.
			if _, err := c.wait1(lridAt(s-2), true); err != nil {
				return abort(s, err)
			}
		}
		slo, shi := bound(c.rank - s + 2*n)
		sb := snd[(s&1)*maxC : (s&1)*maxC+8*(shi-slo)]
		encodeF64Into(sb, vec[slo:shi])
		if err := c.sendNB(right, sb, lridAt(s), sridAt(s, c.rank)); err != nil {
			return abort(s, err)
		}

		rlo, rhi := bound(c.rank - s - 1 + 2*n)
		r := sridAt(s, left)
		comp, err := c.wait1(r, false)
		if err != nil {
			return abort(s, err)
		}
		// A true return means this call's posting went unused: Data
		// is a middleware-owned copy, or the old banks a carried
		// posting of another length received into. Either way Data
		// holds the chunk.
		c.ph.CancelRecv(r)
		if len(comp.Data) != 8*(rhi-rlo) {
			return abort(s+1, ErrSizeMismatch)
		}
		if s < n-1 {
			decodeCombineF64(vec[rlo:rhi], comp.Data, op)
		} else {
			decodeF64Into(vec[rlo:rhi], comp.Data)
		}
	}
	// Reclaim the last two in-flight send banks.
	for s := steps - 2; s < steps; s++ {
		if _, err := c.wait1(lridAt(s), true); err != nil {
			return err
		}
	}
	// Every bank is decoded: carry the window into the next call.
	next := c.cgen(c.ringGen.Load() + 1)
	c.carry = ringCarry{gen: next, vecLen: L}
	for s := 0; s < ringBanks && s < steps; s++ {
		if err := postStep(next, s); err != nil {
			c.withdrawCarry()
			return err
		}
		c.carry.steps++
	}
	return nil
}

// ---------------------------------------------------------------------
// Mid-size allreduce: tree reduce + broadcast
// ---------------------------------------------------------------------

// allreduceTree composes a k-nomial reduce to rank 0 with a segmented
// broadcast of the encoded result, sharing one generation across the
// two phases (their RID kinds differ).
func (c *Comm) allreduceTree(gen uint64, vec []float64, op Op) error {
	if err := c.reduceVec(gen, kindReduce, 0, vec, op); err != nil {
		return err
	}
	nb := 8 * len(vec)
	buf := c.sendScratch(nb)
	if c.rank == 0 {
		encodeF64Into(buf, vec)
	}
	if err := c.bcastInto(gen, 0, buf); err != nil {
		return err
	}
	if c.rank != 0 {
		decodeF64Into(vec, buf)
	}
	return nil
}

// ---------------------------------------------------------------------
// Tree reduce
// ---------------------------------------------------------------------

// reduceVec folds the job's vectors into acc along the k-nomial tree:
// child contributions are received into pre-posted scratch (every child
// transfer in flight at once, reaped in one wait), the combined vector
// is forwarded to the parent.
func (c *Comm) reduceVec(gen uint64, kind, root int, acc []float64, op Op) error {
	ts := c.treeSched(root)
	nb := 8 * len(acc)
	if len(ts.children) > 0 {
		rbuf := c.recvScratch(len(ts.children) * nb)
		c.rids = c.rids[:0]
		for i, ch := range ts.children {
			r := rid(gen, kind, 0, 0, ch)
			if nb > 0 {
				_ = c.ph.PostRecv(r, rbuf[i*nb:(i+1)*nb])
			}
			c.rids = append(c.rids, r)
		}
		out := c.compsFor(len(c.rids))
		if err := c.waitAll(c.rids, out, false); err != nil {
			// Withdraw the unconsumed postings so the engine releases
			// its hold on the scratch before the abort unwinds.
			for _, r := range c.rids {
				c.ph.CancelRecv(r)
			}
			return err
		}
		for i := range out {
			c.ph.CancelRecv(c.rids[i])
			if len(out[i].Data) != nb {
				return ErrSizeMismatch
			}
			decodeCombineF64(acc, out[i].Data, op)
			out[i] = core.Completion{}
		}
	}
	if ts.parent >= 0 {
		buf := c.sendScratch(nb)
		encodeF64Into(buf, acc)
		if err := c.trackSend(ts.parent, buf, rid(gen, kind, 1, 0, c.rank), rid(gen, kind, 0, 0, c.rank)); err != nil {
			return err
		}
		return c.drainLocal()
	}
	return nil
}

// ---------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------

// segSize returns the effective pipeline segment size for an L-byte
// payload, scaling up from segmentBytes if L would otherwise
// exceed the RID layout's segment field.
func segSize(L int) int {
	seg := segmentBytes
	for L > 0 && (L+seg-1)/seg > maxSegs-1 {
		seg *= 2
	}
	return seg
}

// parseBcastHeader validates bcast's message 0 — an 8-byte
// little-endian payload length L followed by the first segment — and
// returns L and the segment size the root used. A single-segment
// payload must fit the message; a multi-segment one must be coverable
// by the RID layout's segments of the message's size, and that size
// must be segSize(L). The bound is checked first, so segSize never sees
// a length it would overflow on.
func parseBcastHeader(msg0 []byte) (L, seg int, err error) {
	if len(msg0) < 8 {
		return 0, 0, fmt.Errorf("collectives: bcast header of %d bytes", len(msg0))
	}
	w := binary.LittleEndian.Uint64(msg0)
	first := len(msg0) - 8
	if w <= uint64(first) {
		L = int(w)
		return L, segSize(L), nil
	}
	if w > math.MaxInt || w > uint64(maxSegs-1)*uint64(first) {
		return 0, 0, fmt.Errorf("collectives: bcast length %d exceeds %d segments of %d bytes", w, maxSegs-1, first)
	}
	L = int(w)
	if seg = segSize(L); seg != first {
		return 0, 0, fmt.Errorf("collectives: bcast first segment of %d bytes, want %d for length %d", first, seg, L)
	}
	return L, seg, nil
}

// fanout forwards one segment to every child of the tree, nonblocking.
// Local RIDs (rendezvous holds) encode the destination in the round
// field so concurrent child transfers of one segment stay distinct.
func (c *Comm) fanout(gen uint64, ts *treeSched, kind, seg int, data []byte) error {
	for _, child := range ts.children {
		if err := c.trackSend(child, data, rid(gen, kind, seg, child, c.rank), rid(gen, kind, seg, 0, c.rank)); err != nil {
			return err
		}
	}
	return nil
}

// bcast is the unknown-length broadcast behind the public Bcast:
// message 0 carries an 8-byte length header plus the first segment, so
// single-segment payloads cost one message and non-roots return the
// delivery buffer itself — no payload copy anywhere but the root's
// header prepend. Larger payloads stream the remaining segments through
// bcastSegs.
func (c *Comm) bcast(gen uint64, root int, data []byte) ([]byte, error) {
	ts := c.treeSched(root)
	if c.rank == root {
		L := len(data)
		seg := segSize(L)
		n0 := imin(seg, L)
		msg0 := c.sendScratch(8 + n0)
		binary.LittleEndian.PutUint64(msg0, uint64(L))
		copy(msg0[8:], data[:n0])
		if err := c.bcastSegs(gen, ts, data, seg, 1, msg0); err != nil {
			return nil, err
		}
		return data, nil
	}
	comp, err := c.wait1(rid(gen, kindBcast, 0, 0, ts.parent), false)
	if err != nil {
		return nil, err
	}
	L, seg, err := parseBcastHeader(comp.Data)
	if err != nil {
		return nil, err
	}
	if L <= len(comp.Data)-8 {
		// Single segment: forward message 0 as-is and hand the
		// delivery buffer to the caller.
		if err := c.bcastSegs(gen, ts, nil, seg, 1, comp.Data); err != nil {
			return nil, err
		}
		return comp.Data[8 : 8+L], nil
	}
	out := make([]byte, L)
	copy(out, comp.Data[8:])
	if err := c.bcastSegs(gen, ts, out, seg, 1, comp.Data); err != nil {
		return nil, err
	}
	return out, nil
}

// bcastInto is the known-length broadcast: every rank's buf has the
// same length, so there is no header round and every segment receive is
// pre-posted straight into buf. Empty payloads are a no-op.
func (c *Comm) bcastInto(gen uint64, root int, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	return c.bcastSegs(gen, c.treeSched(root), buf, segSize(len(buf)), 0, nil)
}

// bcastSegs is the segment loop both broadcasts share: segments first..
// of buf, seg bytes each, down the tree. head, when set, is message 0
// and travels first. The root fans each segment out. A non-root
// pre-posts every receive straight into buf, forwards head, then waits
// for each segment in turn, folds one that arrived before its posting,
// and forwards it (pipelining: a child starts receiving segment s while
// s+1 is still in transit).
func (c *Comm) bcastSegs(gen uint64, ts *treeSched, buf []byte, seg, first int, head []byte) error {
	L := len(buf)
	if ts.parent < 0 {
		if head != nil {
			if err := c.fanout(gen, ts, kindBcast, 0, head); err != nil {
				return err
			}
		}
		for s := first; s*seg < L; s++ {
			if err := c.fanout(gen, ts, kindBcast, s, buf[s*seg:imin((s+1)*seg, L)]); err != nil {
				return err
			}
		}
		return c.drainLocal()
	}
	for s := first; s*seg < L; s++ {
		_ = c.ph.PostRecv(rid(gen, kindBcast, s, 0, ts.parent), buf[s*seg:imin((s+1)*seg, L)])
	}
	if head != nil {
		if err := c.fanout(gen, ts, kindBcast, 0, head); err != nil {
			return err
		}
	}
	for s := first; s*seg < L; s++ {
		hi := imin((s+1)*seg, L)
		r := rid(gen, kindBcast, s, 0, ts.parent)
		comp, err := c.wait1(r, false)
		if err != nil {
			// Withdraw the remaining postings into buf before the
			// abort unwinds.
			for s2 := s; s2*seg < L; s2++ {
				c.ph.CancelRecv(rid(gen, kindBcast, s2, 0, ts.parent))
			}
			return err
		}
		if c.ph.CancelRecv(r) {
			// Arrived before (or larger than) the posting: fold the
			// middleware-owned copy in.
			if len(comp.Data) != hi-s*seg {
				return ErrSizeMismatch
			}
			copy(buf[s*seg:hi], comp.Data)
		}
		if err := c.fanout(gen, ts, kindBcast, s, buf[s*seg:hi]); err != nil {
			return err
		}
	}
	return c.drainLocal()
}

// ---------------------------------------------------------------------
// Gather / Allgather / Alltoall
// ---------------------------------------------------------------------

// gather: non-roots post their blob and drain; the root reaps all N-1
// transfers in one wait and hands each delivery buffer to the caller.
func (c *Comm) gather(gen uint64, root int, data []byte) ([][]byte, error) {
	if c.rank != root {
		if err := c.trackSend(root, data, rid(gen, kindGather, 1, 0, c.rank), rid(gen, kindGather, 0, 0, c.rank)); err != nil {
			return nil, err
		}
		return nil, c.drainLocal()
	}
	out := make([][]byte, c.size)
	out[root] = append([]byte(nil), data...)
	if c.size == 1 {
		return out, nil
	}
	c.rids = c.rids[:0]
	for src := 0; src < c.size; src++ {
		if src != root {
			c.rids = append(c.rids, rid(gen, kindGather, 0, 0, src))
		}
	}
	comps := c.compsFor(len(c.rids))
	if err := c.waitAll(c.rids, comps, false); err != nil {
		return nil, err
	}
	for i := range comps {
		src := int(c.rids[i] & (MaxRanks - 1))
		out[src] = comps[i].Data
		comps[i] = core.Completion{}
	}
	return out, nil
}

// allgather: ring with zero-copy forwarding — each received blob is
// both the result entry and the next step's carry, never re-staged.
func (c *Comm) allgather(gen uint64, data []byte) ([][]byte, error) {
	out := make([][]byte, c.size)
	out[c.rank] = append([]byte(nil), data...)
	if c.size == 1 {
		return out, nil
	}
	right := (c.rank + 1) % c.size
	left := (c.rank - 1 + c.size) % c.size
	carry := out[c.rank]
	for step := 0; step < c.size-1; step++ {
		if err := c.trackSend(right, carry, rid(gen, kindAllgather, 1, step, c.rank), rid(gen, kindAllgather, 0, step, c.rank)); err != nil {
			return nil, err
		}
		comp, err := c.wait1(rid(gen, kindAllgather, 0, step, left), false)
		if err != nil {
			return nil, err
		}
		// The blob received at step s originated at rank-1-s.
		origin := (c.rank - 1 - step + 2*c.size) % c.size
		out[origin] = comp.Data
		carry = comp.Data
	}
	return out, c.drainLocal()
}

// alltoall: all N-1 sends are posted before any wait, then the N-1
// inbound transfers are reaped together — the exchange runs at link
// rate instead of serializing on per-peer round trips.
func (c *Comm) alltoall(gen uint64, blobs [][]byte) ([][]byte, error) {
	out := make([][]byte, c.size)
	out[c.rank] = append([]byte(nil), blobs[c.rank]...)
	if c.size == 1 {
		return out, nil
	}
	for step := 1; step < c.size; step++ {
		dst := (c.rank + step) % c.size
		if err := c.trackSend(dst, blobs[dst], rid(gen, kindAlltoall, 1, step, c.rank), rid(gen, kindAlltoall, 0, step, c.rank)); err != nil {
			return nil, err
		}
	}
	c.rids = c.rids[:0]
	for step := 1; step < c.size; step++ {
		src := (c.rank - step + c.size) % c.size
		c.rids = append(c.rids, rid(gen, kindAlltoall, 0, step, src))
	}
	comps := c.compsFor(len(c.rids))
	if err := c.waitAll(c.rids, comps, false); err != nil {
		return nil, err
	}
	for i := range comps {
		src := int(c.rids[i] & (MaxRanks - 1))
		out[src] = comps[i].Data
		comps[i] = core.Completion{}
	}
	return out, c.drainLocal()
}
