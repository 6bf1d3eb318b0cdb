package apps

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// visitBody encodes a visit parcel body: level, count, then the IDs.
func visitBody(level uint32, count uint32, ids ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, level)
	b = binary.LittleEndian.AppendUint32(b, count)
	for _, v := range ids {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestDecodeVisit checks the visit decoder at the rank owning vertices
// [100, 110): a well-formed body is accepted as it stands, and a body
// shorter or longer than its count says, or naming a vertex another
// rank owns, is rejected rather than indexing out of range.
func TestDecodeVisit(t *testing.T) {
	const lo, perRank = 100, 10
	level, ids, err := decodeVisit(visitBody(3, 2, 100, 109), lo, perRank)
	if err != nil || level != 3 || !bytes.Equal(ids, visitBody(0, 0, 100, 109)[visitHdrLen:]) {
		t.Fatalf("well-formed body: level %d, ids % x, err %v", level, ids, err)
	}
	if _, ids, err := decodeVisit(visitBody(1, 0), lo, perRank); err != nil || len(ids) != 0 {
		t.Fatalf("empty visit: ids % x, err %v", ids, err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"no header", []byte{1, 0, 0, 0, 1}},
		{"count above body", visitBody(1, 3, 100, 101)},
		{"count below body", visitBody(1, 1, 100, 101)},
		{"count that overflows", visitBody(1, 1<<30, 100)},
		{"trailing partial ID", append(visitBody(1, 1, 100), 0)},
		{"vertex below the range", visitBody(1, 2, 100, 99)},
		{"vertex above the range", visitBody(1, 1, 110)},
		{"vertex with the top bit set", visitBody(1, 1, 1<<31|100)},
	} {
		if _, _, err := decodeVisit(tc.body, lo, perRank); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzBFSVisit feeds arbitrary parcel bodies and owned ranges to the
// visit decoder. It must never panic, and whatever it accepts must hold
// exactly the count of IDs its header names, each one in range.
func FuzzBFSVisit(f *testing.F) {
	f.Add(visitBody(1, 2, 5, 6), uint16(4), uint16(4))
	f.Add(visitBody(1, 3, 5, 6), uint16(4), uint16(4))
	f.Add(visitBody(0, 1, 9), uint16(0), uint16(8))
	f.Add([]byte{1, 2, 3}, uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, body []byte, lo, perRank uint16) {
		_, ids, err := decodeVisit(body, int(lo), int(perRank))
		if err != nil {
			return
		}
		if count := binary.LittleEndian.Uint32(body[4:]); uint64(len(ids)) != 4*uint64(count) {
			t.Fatalf("accepted %d bytes of IDs under count %d", len(ids), count)
		}
		for i := 0; i < len(ids); i += 4 {
			if v := int(binary.LittleEndian.Uint32(ids[i:])); v < int(lo) || v >= int(lo)+int(perRank) {
				t.Fatalf("accepted vertex %d outside [%d, %d)", v, lo, int(lo)+int(perRank))
			}
		}
	})
}
