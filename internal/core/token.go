package core

import (
	"sync"
	"sync/atomic"
)

// tokenTable maps backend completion tokens to pending-op state. It
// replaces a single map[uint64]pendingOp behind one mutex with a
// sharded, index-recycling slot array: concurrent initiators take
// different shard locks, slot storage is reused (no per-op map churn),
// and lookups are O(1) array indexing.
//
// Token layout (64 bits):
//
//	bits  0..3   shard index
//	bits  4..31  slot index within the shard
//	bits 32..63  slot generation
//
// The generation is bumped every time a slot is released and starts at
// 1, so a token is never zero and a late or duplicated backend
// completion — carrying the generation under which it was issued —
// can no longer resolve once the slot has been recycled: stale tokens
// are rejected rather than completing an unrelated newer op.
type tokenTable struct {
	shards [tokShards]tokShard
	next   atomic.Uint64 // round-robin shard selector
}

const (
	tokShardBits = 4
	tokShards    = 1 << tokShardBits
	tokIdxBits   = 28
	tokIdxMask   = (1 << tokIdxBits) - 1
)

type tokSlot struct {
	op   pendingOp
	gen  uint32
	live bool
}

type tokShard struct {
	//photon:lock token 60
	mu    sync.Mutex
	slots []tokSlot
	free  []uint32
}

// put registers a pending op and returns its (non-zero) token.
func (t *tokenTable) put(op pendingOp) uint64 {
	si := t.next.Add(1) & (tokShards - 1)
	sh := &t.shards[si]
	sh.mu.Lock()
	var idx uint32
	if n := len(sh.free); n > 0 {
		idx = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		idx = uint32(len(sh.slots))
		sh.slots = append(sh.slots, tokSlot{gen: 1})
	}
	s := &sh.slots[idx]
	s.op = op
	s.live = true
	tok := uint64(s.gen)<<32 | uint64(idx)<<tokShardBits | si
	sh.mu.Unlock()
	return tok
}

// take resolves and releases a token. It returns false for tokens that
// are unknown, already taken, or stale (generation mismatch after the
// slot was recycled).
func (t *tokenTable) take(tok uint64) (pendingOp, bool) {
	return t.takeIf(tok, 0, -1)
}

// takeIf is take restricted to an op of the given kind toward rank
// (kind 0 matches any kind, rank -1 any rank). A live token that names
// another op stays live.
func (t *tokenTable) takeIf(tok uint64, kind opKind, rank int) (pendingOp, bool) {
	sh := &t.shards[tok&(tokShards-1)]
	idx := (tok >> tokShardBits) & tokIdxMask
	gen := uint32(tok >> 32)
	sh.mu.Lock()
	if idx >= uint64(len(sh.slots)) {
		sh.mu.Unlock()
		return pendingOp{}, false
	}
	s := &sh.slots[idx]
	if !s.live || s.gen != gen || (kind != 0 && s.op.kind != kind) || (rank >= 0 && s.op.rank != rank) {
		sh.mu.Unlock()
		return pendingOp{}, false
	}
	op := s.op
	sh.release(uint32(idx))
	sh.mu.Unlock()
	return op, true
}

// release frees a live slot: its op references are dropped and its
// generation bumped (skipping zero), so the slot's old token resolves
// nothing. Caller holds sh.mu.
func (sh *tokShard) release(idx uint32) {
	s := &sh.slots[idx]
	s.op = pendingOp{}
	s.live = false
	s.gen++
	if s.gen == 0 {
		s.gen = 1
	}
	sh.free = append(sh.free, idx)
}

// sweep removes every live op for which keep returns false, appending
// the removed ops to dst. Each removed slot's generation is bumped, so
// a backend completion for a swept op arrives stale and is rejected —
// the op cannot complete twice (once via the sweep, once via the
// transport). Cold path: fault sweeps, peer-down fail-fast, Close.
func (t *tokenTable) sweep(keep func(*pendingOp) bool, dst []pendingOp) []pendingOp {
	for si := range t.shards {
		sh := &t.shards[si]
		sh.mu.Lock()
		for i := range sh.slots {
			s := &sh.slots[i]
			if !s.live || keep(&s.op) {
				continue
			}
			dst = append(dst, s.op)
			sh.release(uint32(i))
		}
		sh.mu.Unlock()
	}
	return dst
}

// sweepExpired removes ops whose deadline has passed.
func (t *tokenTable) sweepExpired(now int64, dst []pendingOp) []pendingOp {
	return t.sweep(func(op *pendingOp) bool {
		return op.deadlineNS == 0 || op.deadlineNS > now
	}, dst)
}

// sweepRank removes every op toward one peer.
func (t *tokenTable) sweepRank(rank int, dst []pendingOp) []pendingOp {
	return t.sweep(func(op *pendingOp) bool { return op.rank != rank }, dst)
}

// sweepAll removes every live op (Close).
func (t *tokenTable) sweepAll(dst []pendingOp) []pendingOp {
	return t.sweep(func(*pendingOp) bool { return false }, dst)
}
