package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"photon/internal/ledger"
	"photon/internal/mem"
)

// codecPhoton is the part of a Photon the entry codec reads: rank,
// config and entry pool.
func codecPhoton(t testing.TB) *Photon {
	var cfg Config
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	return &Photon{cfg: cfg, rank: 3, pool: mem.NewBufPool(cfg.EagerEntrySize, 4)}
}

// entryCase builds one entry through newEntry/sealEntry, filling the
// type's fields at the offsets the engine's encoders use.
type entryCase struct {
	name string
	typ  entryType
	word uint64
	data []byte
	ts   int64
}

func (c entryCase) encode(p *Photon) []byte {
	n := 0
	if c.typ == tPacked || c.typ == tPackedPut {
		n = len(c.data)
	}
	ent := p.newEntry(c.typ, c.word, n, c.ts)
	b := ent[ledger.HeaderSize:]
	switch c.typ {
	case tPacked:
		copy(b[packedHdrSize:], c.data)
	case tPackedPut:
		binary.LittleEndian.PutUint64(b[9:], 0xA0A0)
		binary.LittleEndian.PutUint32(b[17:], 77)
		copy(b[packedPutHdrSize:], c.data)
	case tRTS:
		binary.LittleEndian.PutUint64(b[9:], 12)
		binary.LittleEndian.PutUint64(b[17:], 4096)
		binary.LittleEndian.PutUint64(b[25:], 0xB0B0)
		binary.LittleEndian.PutUint32(b[33:], 88)
	}
	sealEntry(ent, ledger.Reservation{Seq: 5})
	return ent
}

func entryCases(p *Photon) []entryCase {
	full := bytes.Repeat([]byte{0xEE}, p.cfg.packedCap())
	var cs []entryCase
	for _, ts := range []int64{0, 123456789} {
		cs = append(cs,
			entryCase{"completion", tCompletion, 7, nil, ts},
			entryCase{"packed", tPacked, 8, []byte("hello"), ts},
			entryCase{"packed-empty", tPacked, 9, nil, ts},
			entryCase{"packed-full", tPacked, 10, full, ts},
			entryCase{"packed-put", tPackedPut, 11, []byte("put me"), ts},
			entryCase{"rts", tRTS, 1<<32 | 5, nil, ts},
			entryCase{"fin", tFIN, 1<<32 | 6, nil, ts},
		)
	}
	return cs
}

// TestEntryRoundTrip encodes every entry type, traced and untraced,
// and decodes it as the receiving ledger delivers it.
func TestEntryRoundTrip(t *testing.T) {
	p := codecPhoton(t)
	for _, c := range entryCases(p) {
		ent, class := c.encode(p), entryClass[c.typ]
		if len(ent) > p.cfg.entrySize(class) {
			t.Fatalf("%s: %d-byte entry overflows its %d-byte slot", c.name, len(ent), p.cfg.entrySize(class))
		}
		payload, ok := ledger.DecodeEntry(append(ent, make([]byte, ledger.MinEntrySize)...), 5)
		if !ok {
			t.Fatalf("%s: ledger header rejected", c.name)
		}
		ev, body, ok := decodeEntry(class, payload)
		if !ok {
			t.Fatalf("%s (ts %d): rejected", c.name, c.ts)
		}
		// Only a full eager entry has no room for the trace context.
		wantCtx := c.ts != 0 && c.name != "packed-full"
		if ev.kind != c.typ || ev.rid != c.word || ev.hasCtx != wantCtx {
			t.Fatalf("%s (ts %d): kind %d rid %d ctx %v", c.name, c.ts, ev.kind, ev.rid, ev.hasCtx)
		}
		if wantCtx && (ev.origin != 3 || ev.ctxNS != c.ts) {
			t.Fatalf("%s: context origin %d ns %d", c.name, ev.origin, ev.ctxNS)
		}
		if !bytes.Equal(body, c.data) {
			t.Fatalf("%s: body %q, want %q", c.name, body, c.data)
		}
		switch c.typ {
		case tPackedPut:
			if ev.raddr != 0xA0A0 || ev.rkey != 77 {
				t.Fatalf("packed put fields %x %d", ev.raddr, ev.rkey)
			}
		case tRTS:
			want := rtsOp{rdzvID: c.word, remoteRID: 12, size: 4096, addr: 0xB0B0, rkey: 88, traced: wantCtx}
			if ev.rts != want {
				t.Fatalf("rts %+v, want %+v", ev.rts, want)
			}
		}
		// Wrong class, and one byte short, are both rejected.
		if _, _, ok := decodeEntry((class+1)%numClasses, payload); ok {
			t.Fatalf("%s: accepted on another class", c.name)
		}
		if len(body) == 0 {
			if _, _, ok := decodeEntry(class, payload[:len(payload)-1]); ok {
				t.Fatalf("%s: accepted one byte short", c.name)
			}
		}
	}
}

// TestEntryDecodeRejects covers entries no encoder writes.
func TestEntryDecodeRejects(t *testing.T) {
	rts := make([]byte, rtsLen)
	rts[0] = byte(tRTS)
	binary.LittleEndian.PutUint64(rts[17:], uint64(maxInt)+1)
	tracedShort := make([]byte, finLen+traceCtxSize-1)
	tracedShort[0] = byte(tFIN) | tracedFlag
	for name, c := range map[string]struct {
		class   int
		payload []byte
	}{
		"empty":            {classPWC, nil},
		"type 0":           {classPWC, make([]byte, completionLen)},
		"unknown type":     {classSys, append([]byte{byte(tFIN) + 1}, make([]byte, finLen)...)},
		"rts size":         {classSys, rts},
		"traced too short": {classSys, tracedShort},
	} {
		if _, _, ok := decodeEntry(c.class, c.payload); ok {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzEntryDecode feeds arbitrary payloads to the entry decoder on
// every class: head is the payload's first bytes (at most an RTS with
// its trace context) and extra the count of bytes after it. Any payload
// decodes without panicking, and an accepted entry is of a type its
// class carries, with its body inside the payload. (A single unbounded
// []byte input stalls the fuzzer minimizing large inputs.)
func FuzzEntryDecode(f *testing.F) {
	const maxHead = rtsLen + traceCtxSize
	p := codecPhoton(f)
	for _, c := range entryCases(p) {
		pl := c.encode(p)[ledger.HeaderSize:]
		head := pl[:min(len(pl), maxHead)]
		f.Add(uint8(entryClass[c.typ]), append([]byte(nil), head...), uint16(len(pl)-len(head)))
	}
	f.Fuzz(func(t *testing.T, class uint8, head []byte, extra uint16) {
		head = head[:min(len(head), maxHead)]
		payload := make([]byte, len(head)+int(extra%2048))
		copy(payload, head)
		cl := int(class % numClasses)
		ev, body, ok := decodeEntry(cl, payload)
		if !ok {
			return
		}
		if entryClass[ev.kind] != cl || ev.rts.size < 0 {
			t.Fatalf("accepted kind %d on class %d, rts size %d", ev.kind, cl, ev.rts.size)
		}
		if len(body) == 0 {
			return
		}
		for off := 0; off+len(body) <= len(payload); off++ {
			if &payload[off] == &body[0] {
				return
			}
		}
		t.Fatalf("body of %d bytes lies outside the %d-byte payload", len(body), len(payload))
	})
}
