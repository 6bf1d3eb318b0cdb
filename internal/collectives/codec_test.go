package collectives

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specialF64s are the values whose bits a reduction most easily
// disturbs: NaNs with distinct payloads and signs, signed zeros,
// infinities, subnormals, and the extremes of the normal range.
var specialF64s = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff8000000000abc),
	0,
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64,
	-math.MaxFloat64,
	1,
	-1.5,
}

func fillF64(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = specialF64s[rng.Intn(len(specialF64s))]
		} else {
			v[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(64)-32)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestF64CodecViewMatchesPortable: the native-view codec and the
// portable little-endian loops agree bit for bit — encode, decode, and
// every op's fold — over lengths 0..33, on aligned buffers (the view
// path on little-endian hosts) and deliberately misaligned ones (the
// fallback), with NaN, signed zero, infinity and subnormal inputs.
func TestF64CodecViewMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ops := []Op{OpSum, OpMin, OpMax, OpProd}
	for n := 0; n <= 33; n++ {
		backing := make([]byte, 8*n+8)
		for _, misalign := range []int{0, 1} {
			b := backing[misalign : misalign+8*n]
			if _, ok := f64View(b, n); ok != (hostLE && misalign == 0) {
				t.Fatalf("n=%d misalign=%d: f64View ok=%v on hostLE=%v", n, misalign, ok, hostLE)
			}
			v := make([]float64, n)
			fillF64(rng, v)

			want := make([]byte, 8*n)
			encodeF64Portable(want, v)
			encodeF64Into(b, v)
			if string(b) != string(want) {
				t.Fatalf("n=%d misalign=%d: encode differs from the portable loop", n, misalign)
			}

			fillF64(rng, v)
			encodeF64Portable(b, v)
			got, ref := make([]float64, n), make([]float64, n)
			decodeF64Into(got, b)
			decodeF64Portable(ref, b)
			if !sameBits(got, ref) || !sameBits(got, v) {
				t.Fatalf("n=%d misalign=%d: decode differs from the portable loop", n, misalign)
			}

			for _, op := range ops {
				acc := make([]float64, n)
				fillF64(rng, acc)
				ref := append([]float64(nil), acc...)
				decodeCombineF64(acc, b, op)
				decodeCombinePortable(ref, b, op)
				if !sameBits(acc, ref) {
					t.Fatalf("n=%d misalign=%d op=%d: fold differs from the portable loop:\n got %v\nwant %v", n, misalign, op, acc, ref)
				}
			}
		}
	}
}

func bcastMsg0(L uint64, first int) []byte {
	m := make([]byte, 8+first)
	binary.LittleEndian.PutUint64(m, L)
	return m
}

// TestParseBcastHeader covers the header checks, including a >128 MiB
// payload (4095 segments of 32 KiB no longer suffice, so the root
// doubles its segment size) without moving 128 MiB.
func TestParseBcastHeader(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct {
		name    string
		msg0    []byte
		L, seg  int
		wantErr bool
	}{
		{"short", make([]byte, 7), 0, 0, true},
		{"empty payload", bcastMsg0(0, 0), 0, segmentBytes, false},
		{"single segment", bcastMsg0(5, 5), 5, segmentBytes, false},
		{"exactly one segment", bcastMsg0(segmentBytes, segmentBytes), segmentBytes, segmentBytes, false},
		{"two segments", bcastMsg0(segmentBytes+1, segmentBytes), segmentBytes + 1, segmentBytes, false},
		{"200 MiB with doubled segments", bcastMsg0(200*mib, 2*segmentBytes), 200 * mib, 2 * segmentBytes, false},
		{"200 MiB with default segments", bcastMsg0(200*mib, segmentBytes), 0, 0, true},
		{"length with empty first segment", bcastMsg0(1, 0), 0, 0, true},
		{"first segment not segSize", bcastMsg0(100000, 1000), 0, 0, true},
		{"beyond the segment field", bcastMsg0(1<<40, segmentBytes), 0, 0, true},
		{"negative as int", bcastMsg0(1<<63, 8), 0, 0, true},
		{"all ones", bcastMsg0(math.MaxUint64, segmentBytes), 0, 0, true},
	} {
		L, seg, err := parseBcastHeader(tc.msg0)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: accepted as L=%d seg=%d", tc.name, L, seg)
			}
			continue
		}
		if err != nil || L != tc.L || seg != tc.seg {
			t.Errorf("%s: got L=%d seg=%d err=%v, want L=%d seg=%d", tc.name, L, seg, err, tc.L, tc.seg)
		}
	}
}

// FuzzBcastHeader: the header parser never panics, and whatever it
// accepts is a length a root could have sent — non-negative, with the
// segment size the root derives from it.
func FuzzBcastHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(bcastMsg0(3, 3))
	f.Add(bcastMsg0(1<<63, 8))
	f.Add(bcastMsg0(segmentBytes+1, segmentBytes))
	f.Add(bcastMsg0(200<<20, 2*segmentBytes))
	f.Fuzz(func(t *testing.T, msg0 []byte) {
		L, seg, err := parseBcastHeader(msg0)
		if err != nil {
			return
		}
		if L < 0 || seg != segSize(L) {
			t.Fatalf("accepted L=%d seg=%d (segSize %d)", L, seg, segSize(L))
		}
		if L > len(msg0)-8 && (L+seg-1)/seg > maxSegs-1 {
			t.Fatalf("accepted L=%d in more than %d segments of %d", L, maxSegs-1, seg)
		}
	})
}
