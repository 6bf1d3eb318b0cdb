package collectives

// This file holds the schedule layer: the collective RID-space layout
// and the compiled, reusable per-Comm schedules (dissemination rounds,
// k-nomial trees, recursive-doubling pairings). Schedules depend only
// on (size, rank, radix, root), so they are compiled once and reused by
// every call — the per-call work is purely posting the schedule's edges
// nonblocking and reaping the round's completions together.

// RID-space layout (64 bits). Collective RIDs live in the reserved
// top-bit space; user RIDs keep the top bit clear (core convention).
//
//	bit  63      ridBase — reserved collective RID space
//	bits 38..62  generation (25 bits; wraps after ~33M calls per kind)
//	bit  37      bank — arena slot parity of the call (debug aid; slot
//	             addressing uses the dedicated RD call counter, §arena)
//	bits 33..36  kind (4 bits)
//	bits 21..32  segment (12 bits → 4095 payload segments)
//	bits 10..20  round (11 bits → 2048 rounds; ring paths use 2(N-1))
//	bits  0..9   source rank (10 bits → MaxRanks)
const (
	ridBase = uint64(1) << 63

	srcBits   = 10
	roundBits = 11
	segBits   = 12
	kindBits  = 4

	srcShift   = 0
	roundShift = srcShift + srcBits
	segShift   = roundShift + roundBits
	kindShift  = segShift + segBits
	bankShift  = kindShift + kindBits
	genShift   = bankShift + 1
	genBits    = 63 - genShift

	maxSegs = 1 << segBits
)

// The generation field is further split for epoch fencing: the high
// epochBits carry the Comm's epoch (bumped by Shrink, so stale traffic
// from a revoked predecessor can never match a successor's RIDs) and
// the low callGenBits carry the per-Comm call counter. The bank bit
// still tracks the low call bit (Comm.cgen preserves it).
const (
	epochBits   = 6
	callGenBits = genBits - epochBits
	maxEpochs   = 1 << epochBits
)

// MaxRanks is the largest job size the collective RID layout supports.
const MaxRanks = 1 << srcBits

// Collective kinds (4-bit field).
const (
	kindBarrier = iota + 1
	kindBcast
	kindReduce
	kindAllreduce // ring allreduce (own gen counter: carried window)
	kindGather
	kindAllgather
	kindAlltoall
	kindAllreduceRD // recursive-doubling arena path (own gen counter)
	kindRevoke      // revocation notice (epoch-scoped: gen = genBase)
	kindShrink      // survivor agreement: seg 0 = report, 1 = commit
)

// rid assembles a collective completion identifier.
func rid(gen uint64, kind, seg, round, src int) uint64 {
	return ridBase |
		(gen&(1<<genBits-1))<<genShift |
		(gen&1)<<bankShift |
		uint64(kind)<<kindShift |
		uint64(seg)<<segShift |
		uint64(round)<<roundShift |
		uint64(src)
}

// ---------------------------------------------------------------------
// Dissemination barrier schedule
// ---------------------------------------------------------------------

// barrierRound is one dissemination round: peers this rank notifies and
// peers whose notifications end the round. All notifies are posted
// nonblocking, then the awaited set is reaped in one wait — a round
// costs one network latency regardless of radix.
type barrierRound struct {
	notify []int
	await  []int
}

// barrierSched is the radix-k dissemination schedule: ceil(log_k N)
// rounds; in round j (distance k^j) the rank notifies rank+i*k^j and
// awaits rank-i*k^j for i = 1..k-1. After round j every rank has
// transitively heard from all ranks within distance k^(j+1)-1 behind
// it, so after the last round it has heard from everyone.
type barrierSched struct {
	rounds []barrierRound
}

func compileBarrier(rank, size, radix int) *barrierSched {
	bs := &barrierSched{}
	for dist := 1; dist < size; dist *= radix {
		var r barrierRound
		for i := 1; i < radix && i*dist < size; i++ {
			r.notify = append(r.notify, (rank+i*dist)%size)
			r.await = append(r.await, (rank-i*dist%size+size)%size)
		}
		bs.rounds = append(bs.rounds, r)
	}
	return bs
}

// ---------------------------------------------------------------------
// k-nomial tree schedule (bcast, reduce)
// ---------------------------------------------------------------------

// treeSched is one rank's view of the k-nomial tree rooted at root:
// its parent (-1 at the root) and its children, deepest-subtree first
// (those children sit on the critical path, so bcast feeds them first
// and reduce waits for them alongside the shallow ones).
type treeSched struct {
	parent   int
	children []int
}

// compileTree builds the k-nomial tree in root-relative vrank space:
// vrank v's parent clears v's lowest nonzero base-k digit; v's children
// are v + d*k^j for every level k^j below that digit (all levels for
// the root) and d = 1..k-1, bounded by size.
func compileTree(rank, size, root, radix int) *treeSched {
	v := (rank - root + size) % size
	ts := &treeSched{parent: -1}
	// Lowest nonzero base-k digit position of v (the subtree ceiling);
	// the root's ceiling spans the whole job.
	limit := 1
	if v == 0 {
		for limit < size {
			limit *= radix
		}
	} else {
		for v/limit%radix == 0 {
			limit *= radix
		}
		ts.parent = ((v - (v/limit%radix)*limit) + root) % size
	}
	for dist := limit / radix; dist >= 1; dist /= radix {
		for d := 1; d < radix; d++ {
			u := v + d*dist
			if u < size {
				ts.children = append(ts.children, (u+root)%size)
			}
		}
	}
	return ts
}

// ---------------------------------------------------------------------
// Recursive-doubling schedule (small allreduce)
// ---------------------------------------------------------------------

// rdSched is the non-power-of-two recursive-doubling pairing: with
// p2 the largest power of two ≤ N and rem = N − p2, the first 2·rem
// ranks fold pairwise (odd members send their vector to the even
// partner and sit out), the surviving p2 virtual ranks run log2(p2)
// exchange rounds, and the fold partners receive the finished result
// back. vrank → rank: v < rem → 2v, else v + rem.
type rdSched struct {
	p2, rem, logp int
	inFold        bool  // rank < 2*rem
	foldSender    bool  // odd fold member: contributes, then receives the result
	partner       int   // fold partner rank (-1 when not in the fold)
	vrank         int   // virtual rank (-1 for fold senders)
	peers         []int // exchange-round partner ranks, one per RD round
	rounds        int   // slot round space: 1 fold-in + logp + 1 fold-out
}

func compileRD(rank, size int) *rdSched {
	rd := &rdSched{partner: -1, vrank: -1}
	rd.p2 = 1
	for rd.p2*2 <= size {
		rd.p2 *= 2
	}
	rd.rem = size - rd.p2
	for p := rd.p2; p > 1; p /= 2 {
		rd.logp++
	}
	rd.rounds = rd.logp + 2
	if rank < 2*rd.rem {
		rd.inFold = true
		if rank%2 == 1 {
			rd.foldSender = true
			rd.partner = rank - 1
			return rd
		}
		rd.partner = rank + 1
		rd.vrank = rank / 2
	} else {
		rd.vrank = rank - rd.rem
	}
	toRank := func(v int) int {
		if v < rd.rem {
			return 2 * v
		}
		return v + rd.rem
	}
	for i := 0; i < rd.logp; i++ {
		rd.peers = append(rd.peers, toRank(rd.vrank^(1<<i)))
	}
	return rd
}

// ---------------------------------------------------------------------
// Cached accessors
// ---------------------------------------------------------------------

func (c *Comm) barrierSched() *barrierSched {
	if c.barSched == nil {
		c.barSched = compileBarrier(c.rank, c.size, radix)
	}
	return c.barSched
}

func (c *Comm) treeSched(root int) *treeSched {
	if ts, ok := c.trees[root]; ok {
		return ts
	}
	ts := compileTree(c.rank, c.size, root, radix)
	c.trees[root] = ts
	return ts
}

func (c *Comm) rdSched() *rdSched {
	if c.rd == nil {
		c.rd = compileRD(c.rank, c.size)
	}
	return c.rd
}
