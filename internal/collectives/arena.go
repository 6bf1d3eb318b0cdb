package collectives

import (
	"encoding/binary"
	"fmt"
	"sync"

	"photon/internal/mem"
)

// collArena is the registered scratch region behind the small-vector
// recursive-doubling allreduce: every rank pins one buffer of
// rounds × 2 banks × slot bytes and exchanges descriptors, after which
// each RD round is a single one-sided put into the partner's slot plus
// a completion wait — no per-call allocation, registration, or staging.
//
// Slot addressing: offset(round, bank) = ((round*2)+bank) * slot, with
// round ∈ [0, rounds) the RD round index (0 = fold-in, 1..logp = the
// exchange rounds, rounds-1 = fold-out) and bank the low bit of the
// dedicated RD call counter (Comm.rdGen).
//
// Two banks are enough because the RD schedule is internally fully
// synchronizing and the bank advances only on RD calls: a partner can
// only write my (round, bank) slot for RD call m+2 after completing RD
// call m+1, which transitively requires my round-sends of call m+1,
// which I post only after entering call m+1 — i.e. after I finished
// reading every slot of same-bank call m. Interleaved non-synchronizing
// collectives (bcast, gather) cannot break this because they do not
// advance rdGen. See DESIGN.md "Collectives" for the full argument.
type collArena struct {
	buf []byte
	// Registration read-locker (the backend MR lock): held while
	// reading slots to synchronize against remote DMA into buf.
	//photon:lock collarena 45
	lk    sync.Locker
	peers []mem.RemoteBuffer // exchanged descriptors, indexed by rank
}

// off is the offset of a round's slot in a bank; a slot holds
// smallAllreduceMax bytes.
func (a *collArena) off(round, bank int) uint64 {
	return uint64(((round * 2) + bank) * smallAllreduceMax)
}

// arenaBlobLen is the wire size of one arena descriptor:
// addr (8) | rkey (4) | len (8), little-endian — the same layout
// core.ExchangeBuffers uses.
const arenaBlobLen = 20

// ensureArena lazily builds the arena on first use. The descriptor
// exchange is collective, but so is the caller: algorithm selection is
// a pure function of (vector length, size), so every rank
// reaches its first RD allreduce — and therefore this exchange — on
// the same call. Descriptors ride the Comm's own allgather rather than
// the backend's boot-time Exchange: the backend barrier blocks on
// every engine rank (it would hang forever once a rank has died, and a
// shrunken Comm's membership is a subset anyway), while the allgather
// is failure-aware and scoped to the membership table.
func (c *Comm) ensureArena() (*collArena, error) {
	if c.arena != nil {
		return c.arena, nil
	}
	rounds := c.rdSched().rounds
	a := &collArena{buf: make([]byte, rounds*2*smallAllreduceMax)}
	rb, lk, err := c.ph.RegisterBuffer(a.buf)
	if err != nil {
		return nil, err
	}
	a.lk = lk
	blob := make([]byte, arenaBlobLen)
	binary.LittleEndian.PutUint64(blob[0:], rb.Addr)
	binary.LittleEndian.PutUint32(blob[8:], rb.RKey)
	binary.LittleEndian.PutUint64(blob[12:], uint64(rb.Len))
	all, err := c.allgather(c.cgen(c.gen.Add(1)), blob)
	if err != nil {
		return nil, err
	}
	a.peers = make([]mem.RemoteBuffer, c.size)
	for i, b := range all {
		if len(b) != arenaBlobLen {
			return nil, fmt.Errorf("collectives: arena descriptor of %d bytes from rank %d", len(b), i)
		}
		a.peers[i] = mem.RemoteBuffer{
			Addr: binary.LittleEndian.Uint64(b[0:]),
			RKey: binary.LittleEndian.Uint32(b[8:]),
			Len:  int(binary.LittleEndian.Uint64(b[12:])),
		}
	}
	c.arena = a
	return a, nil
}
