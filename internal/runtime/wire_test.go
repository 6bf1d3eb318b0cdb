package runtime

import (
	"bytes"
	"testing"
)

// FuzzParcelHeader round-trips the parcel and reply header decoders
// against their encoders and checks that no input makes them panic: a
// buffer either decodes and re-encodes to itself, byte for byte, or is
// rejected as short (or, for a reply, as carrying a failure flag the
// encoder never writes).
func FuzzParcelHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, parcelHdrLen))
	f.Add([]byte{1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0xBB})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 1, 'e', 'r', 'r'})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		if action, cont, payload, ok := decodeParcel(b); ok {
			out := make([]byte, parcelHdrLen, parcelHdrLen+len(payload))
			putParcelHeader(out, action, cont)
			if out = append(out, payload...); !bytes.Equal(out, b) {
				t.Fatalf("parcel %x re-encodes as %x", b, out)
			}
		} else if len(b) >= parcelHdrLen {
			t.Fatalf("parcel of %d bytes rejected", len(b))
		}
		if cont, failed, body, ok := decodeReply(b); ok {
			out := make([]byte, replyHdrLen, replyHdrLen+len(body))
			putReplyHeader(out, cont, failed)
			if out = append(out, body...); !bytes.Equal(out, b) {
				t.Fatalf("reply %x re-encodes as %x", b, out)
			}
		} else if len(b) >= replyHdrLen && b[8] <= 1 {
			t.Fatalf("reply of %d bytes with flag %d rejected", len(b), b[8])
		}
		// And the other way: fields taken from the input survive an
		// encode and a decode.
		if len(b) >= 13 {
			action, cont, failed := ActionID(b[0])|ActionID(b[1])<<8, uint64(b[2])<<56|uint64(b[3]), b[4]&1 == 1
			body := b[13:]
			pb := append(make([]byte, parcelHdrLen), body...)
			putParcelHeader(pb, action, cont)
			if a, c, p, ok := decodeParcel(pb); !ok || a != action || c != cont || !bytes.Equal(p, body) {
				t.Fatalf("parcel (%d, %d, %x) decodes as (%d, %d, %x, %v)", action, cont, body, a, c, p, ok)
			}
			rb := append(make([]byte, replyHdrLen), body...)
			putReplyHeader(rb, cont, failed)
			if c, fl, p, ok := decodeReply(rb); !ok || c != cont || fl != failed || !bytes.Equal(p, body) {
				t.Fatalf("reply (%d, %v, %x) decodes as (%d, %v, %x, %v)", cont, failed, body, c, fl, p, ok)
			}
		}
	})
}
