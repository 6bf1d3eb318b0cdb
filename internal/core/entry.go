package core

import (
	"encoding/binary"

	"photon/internal/ledger"
)

// Ledger entry codec. Every ledger entry's payload opens with a type
// byte and an 8-byte word (a RID, or the token of a rendezvous send),
// followed by the type's fixed fields and, for packed types, the data.
// newEntry/sealEntry build an entry; decodeEntry is the only reader of
// the type byte.

// entryType is the type tag in the first payload byte of a ledger
// entry.
type entryType uint8

const (
	tCompletion entryType = iota + 1 // pwc: [type][rid8]
	tPacked                          // eager: [type][rid8][data...]
	tPackedPut                       // eager: [type][rid8][raddr8][rkey4][data...]
	tRTS                             // sys: [type][token8][rrid8][size8][addr8][rkey4]
	tFIN                             // sys: [type][token8]
)

// tracedFlag, set in the type byte, marks an entry that ends in a wire
// trace context — [origin rank u32][post timestamp i64], traceCtxSize
// bytes. Only sampled ops (TraceSampleShift gate) carry one, so the
// target's delivery event holds the initiator's identity and post time
// and the merged Chrome exporter can stitch both rings into one causal
// lane. The context rides in entry headroom (pwc entries use 29 of 32
// bytes, sys 57 of 64); an eager entry whose payload leaves no room
// for it goes untraced.
const tracedFlag = 0x80

// traceCtxSize is the wire size of the trace context.
const traceCtxSize = 4 + 8

// Fixed payload prefixes, type byte included.
const (
	completionLen    = 1 + 8
	packedHdrSize    = 1 + 8
	packedPutHdrSize = 1 + 8 + 8 + 4
	rtsLen           = 1 + 8 + 8 + 8 + 8 + 4
	finLen           = 1 + 8
)

// maxInt bounds untrusted 64-bit size words before narrowing to int.
const maxInt = int(^uint(0) >> 1)

// entryHdr and entryClass give each type's fixed prefix and the one
// ledger class that carries it.
var (
	entryHdr = [...]int{
		tCompletion: completionLen, tPacked: packedHdrSize,
		tPackedPut: packedPutHdrSize, tRTS: rtsLen, tFIN: finLen,
	}
	entryClass = [...]int{
		tCompletion: classPWC, tPacked: classEager,
		tPackedPut: classEager, tRTS: classSys, tFIN: classSys,
	}
)

// newEntry takes a pooled ledger entry of type typ carrying word and n
// bytes past the type's fixed prefix, which the caller fills in
// (payload offsets start at ent[ledger.HeaderSize]). A sampled op
// (ts != 0) appends the trace context when the class's entry has room
// for it. sealEntry writes the header once a slot is reserved.
//
//photon:hotpath
func (p *Photon) newEntry(typ entryType, word uint64, n int, ts int64) []byte {
	size := ledger.HeaderSize + entryHdr[typ] + n
	traced := ts != 0 && size+traceCtxSize <= p.cfg.entrySize(entryClass[typ])
	if traced {
		size += traceCtxSize
	}
	ent := p.pool.Get(size)
	ent[ledger.HeaderSize] = byte(typ)
	binary.LittleEndian.PutUint64(ent[ledger.HeaderSize+1:], word)
	if traced {
		ent[ledger.HeaderSize] |= tracedFlag
		ctx := ent[size-traceCtxSize:]
		binary.LittleEndian.PutUint32(ctx, uint32(p.rank))
		binary.LittleEndian.PutUint64(ctx[4:], uint64(ts))
	}
	return ent //photon:allow bufretain -- hand-off: the caller posts the entry pooled, and postOrPark/postPair recycle it once the backend has snapshotted it
}

// sealEntry writes ent's ledger header for the reserved slot. It cannot
// fail: the payload is the rest of ent.
//
//photon:hotpath
func sealEntry(ent []byte, res ledger.Reservation) {
	_ = ledger.EncodeHeader(ent, res.Seq, len(ent)-ledger.HeaderSize)
}

// decodeEntry parses one ledger entry payload that arrived on class.
// It rejects entries shorter than their type's prefix (plus the trace
// context when flagged), types the class does not carry, and RTS
// sizes that do not fit an int. body is the data between the prefix
// and the trace context; it aliases payload. decodeEntry is pure, so
// it can be fuzzed directly.
func decodeEntry(class int, payload []byte) (ev polledEvent, body []byte, ok bool) {
	if len(payload) == 0 {
		return polledEvent{}, nil, false
	}
	typ := entryType(payload[0] &^ tracedFlag)
	if typ == 0 || int(typ) >= len(entryHdr) || entryClass[typ] != class {
		return polledEvent{}, nil, false
	}
	hdr, end := entryHdr[typ], len(payload)
	traced := payload[0]&tracedFlag != 0
	if traced {
		end -= traceCtxSize
	}
	if end < hdr {
		return polledEvent{}, nil, false
	}
	if traced {
		ctx := payload[end:]
		ev.hasCtx = true
		ev.origin = int(binary.LittleEndian.Uint32(ctx))
		ev.ctxNS = int64(binary.LittleEndian.Uint64(ctx[4:]))
	}
	ev.kind = typ
	ev.rid = binary.LittleEndian.Uint64(payload[1:])
	switch typ {
	case tPackedPut:
		ev.raddr = binary.LittleEndian.Uint64(payload[9:])
		ev.rkey = binary.LittleEndian.Uint32(payload[17:])
	case tRTS:
		// A corrupt or hostile size word must not wrap negative when
		// narrowed to int (slab.Alloc and block.Buf[:size] would panic).
		size := binary.LittleEndian.Uint64(payload[17:])
		if size > uint64(maxInt) {
			return polledEvent{}, nil, false
		}
		ev.rts = rtsOp{
			rdzvID:    ev.rid,
			remoteRID: binary.LittleEndian.Uint64(payload[9:]),
			size:      int(size),
			addr:      binary.LittleEndian.Uint64(payload[25:]),
			rkey:      binary.LittleEndian.Uint32(payload[33:]),
			traced:    ev.hasCtx,
		}
	}
	return ev, payload[hdr:end], true
}
