package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// observe adds one observation per value, as a recorder would.
func observe(h *Hist, ns ...int64) {
	for _, v := range ns {
		h.add(bucket(v), 1, float64(v))
	}
}

// TestHistMatchesOldHistogram pins Hist against the outputs of the
// Welford-backed histogram it replaced, on one fixed input: counts and
// quantiles identical, the mean equal to 1e-9 relative.
func TestHistMatchesOldHistogram(t *testing.T) {
	var h Hist
	observe(&h, -5, 0, 1, 7, 31, 32, 33, 100, 250, 999, 1000, 1500, 4096, 4200, 4300, 9700, 65535, 100000, 1<<20, 123456789)
	for i := int64(1); i <= 200; i++ {
		observe(&h, i*37)
	}
	if h.N() != 220 {
		t.Fatalf("N = %d, want 220", h.N())
	}
	if want := 570185.65454545547; math.Abs(h.Mean()-want) > 1e-9*want {
		t.Fatalf("Mean = %.17g, want %.17g", h.Mean(), want)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 0}, {0.5, 3693}, {0.9, 6838}, {0.99, 106496}, {1, 125829120}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := int64(1); i <= 1000; i++ {
		observe(&h, i)
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1024 {
		t.Fatalf("p50 bucket bound = %d, want within [256,1024]", p50)
	}
	if p100 := h.Quantile(1.0); p100 < 1000 {
		t.Fatalf("p100 = %d, want >= 1000", p100)
	}
	if h.Quantile(0) == 0 {
		t.Fatal("q0 of nonempty histogram must be positive")
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.N() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistNonPositive(t *testing.T) {
	var h Hist
	observe(&h, 0, -5)
	if h.N() != 2 {
		t.Fatalf("N = %d, want 2", h.N())
	}
}

func TestHistQuantileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		var h Hist
		for _, v := range vals {
			observe(&h, int64(v)+1)
		}
		if h.N() == 0 {
			return true
		}
		prev := int64(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketSubMicrosecondResolution(t *testing.T) {
	// The log-linear scheme must keep relative bucket width <= 12.5%
	// across the latency ranges the backends actually produce: shm puts
	// around 4us sit in 512ns-wide buckets, not a 4us-wide octave.
	for _, ns := range []int64{900, 1500, 4200, 9700, 100000} {
		b := bucket(ns)
		lo, hi := bucketBounds(b)
		if ns < lo || ns >= hi {
			t.Fatalf("bucket(%d)=%d bounds [%d,%d) exclude the value", ns, b, lo, hi)
		}
		if width := hi - lo; float64(width) > float64(lo)/8+1 {
			t.Fatalf("bucket %d for %dns is %dns wide (lo=%d): > 12.5%%", b, ns, width, lo)
		}
	}
	if lo, hi := bucketBounds(bucket(4200)); hi-lo != 512 {
		t.Fatalf("4.2us bucket should be 512ns wide")
	}
	// Identity region: 1ns resolution below the cutoff.
	for ns := int64(1); ns < linearCutoff; ns++ {
		if bucket(ns) != int(ns) {
			t.Fatalf("bucket(%d) = %d, want identity", ns, bucket(ns))
		}
	}
	// Bucket indices are monotone and within range over the full domain.
	prev := -1
	for shift := uint(0); shift < 63; shift++ {
		for _, ns := range []int64{int64(1) << shift, int64(1)<<shift + int64(1)<<shift/2} {
			b := bucket(ns)
			if b < prev || b >= numBuckets {
				t.Fatalf("bucket(%d) = %d out of order/range (prev %d)", ns, b, prev)
			}
			prev = b
		}
	}
}

func TestQuantileInterpolationRegression(t *testing.T) {
	// A tight cluster at 4.2us: every quantile estimate must land
	// within the 512ns-wide bucket, where a log2 scheme could be off by
	// up to a full octave (4096 -> 8192).
	var h Hist
	for i := 0; i < 1000; i++ {
		observe(&h, 4200)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if v := h.Quantile(q); v < 4096 || v > 4608 {
			t.Fatalf("Quantile(%v) = %d, want within the [4096,4608) bucket", q, v)
		}
	}
	// Uniform 4000..5000ns: p50 must interpolate to ~4500 within one
	// bucket width (512ns), far tighter than the octave bound.
	var u Hist
	for ns := int64(4000); ns < 5000; ns++ {
		observe(&u, ns)
	}
	if p50 := u.Quantile(0.5); p50 < 4500-512 || p50 > 4500+512 {
		t.Fatalf("uniform p50 = %d, want 4500 +- 512", p50)
	}
}

func TestHistBucketSums(t *testing.T) {
	var h Hist
	observe(&h, 4200, 4300)
	b := bucket(4200)
	if bucket(4300) != b {
		t.Fatalf("test assumes 4200 and 4300 share a bucket")
	}
	if got := h.sums[b]; got != 8500 {
		t.Fatalf("bucket sum = %v, want 8500", got)
	}
	var m Hist
	m.Merge(&h)
	if m.N() != 2 || m.Mean() != 4250 || m.sums[b] != 8500 {
		t.Fatalf("merged n=%d mean=%v sum=%v, want 2/4250/8500", m.N(), m.Mean(), m.sums[b])
	}
	// Bucket data from a peer is clamped into range; non-positive
	// counts are dropped.
	m.add(-3, 1, 1)
	m.add(numBuckets+7, 1, 1)
	m.add(b, 0, 99)
	m.add(b, -4, 99)
	if m.N() != 4 || m.counts[0] != 1 || m.counts[numBuckets-1] != 1 || m.sums[b] != 8500 {
		t.Fatalf("add checks: n=%d counts[0]=%d counts[last]=%d sum=%v",
			m.N(), m.counts[0], m.counts[numBuckets-1], m.sums[b])
	}
}

// TestHistMergeMatchesDirect: merging two histograms equals observing
// both inputs into one.
func TestHistMergeMatchesDirect(t *testing.T) {
	f := func(a, b []uint32) bool {
		var direct, left, right Hist
		for _, v := range a {
			observe(&direct, int64(v))
			observe(&left, int64(v))
		}
		for _, v := range b {
			observe(&direct, int64(v))
			observe(&right, int64(v))
		}
		left.Merge(&right)
		return direct == left
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistMergeEmptyCases(t *testing.T) {
	var a, b Hist
	a.Merge(&b) // empty into empty
	if a.N() != 0 {
		t.Fatal("empty merge changed histogram")
	}
	observe(&b, 7)
	a.Merge(&b) // nonempty into empty
	if a.N() != 1 || a.Mean() != 7 {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Hist
	a.Merge(&c) // empty into nonempty
	if a.N() != 1 {
		t.Fatal("merging empty changed count")
	}
}

// TestHistSummary checks the one reduction the text render, /vars and
// flight records share.
func TestHistSummary(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		observe(&h, 1000)
	}
	s := h.Summary("put/initiator")
	if s.Name != "put/initiator" || s.N != 100 || s.MeanNS != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50NS != h.Quantile(0.5) || s.P90NS != h.Quantile(0.9) || s.P99NS != h.Quantile(0.99) || s.MaxNS != h.Quantile(1) {
		t.Fatalf("summary quantiles %+v disagree with Quantile", s)
	}
}

// TestGaugesRenderSorted checks gauges print aligned and in sorted name
// order, before and after a wire round trip.
func TestGaugesRenderSorted(t *testing.T) {
	s := &Snapshot{Gauges: map[string]int64{"ring_overflows": 3, "a_much_longer_name": 12, "hits": 1}}
	want := "# latency (us)\n(no observations)\n# gauges\n" +
		"a_much_longer_name  12\n" +
		"hits                1\n" +
		"ring_overflows      3\n"
	if got := s.Render(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	js, err := json.Marshal(s.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireSnapshot
	if err := json.Unmarshal(js, &w); err != nil {
		t.Fatal(err)
	}
	if got := w.Snapshot().Render(); got != want {
		t.Fatalf("render after wire round trip:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzWireSnapshot feeds arbitrary /snapshot bodies through the decode,
// render, export and merge paths a collector runs on a peer's reply:
// none may panic, and a merge counts exactly the accepted buckets.
func FuzzWireSnapshot(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"hists":[{"name":"put/initiator","metric":"photon_op_latency_ns","labels":"op=\"put\"","buckets":[{"b":99999,"n":3,"sum":1}]}]}`,
		`{"hists":[{"name":"x","buckets":[{"b":-7,"n":2,"sum":5},{"b":40,"n":-4,"sum":5}]}]}`,
		// Sums of ±1e308 overflow to ±Inf per bucket, so the mean is NaN.
		`{"hists":[{"name":"x","buckets":[{"b":40,"n":1,"sum":1e308},{"b":40,"n":1,"sum":1e308},{"b":41,"n":2,"sum":-1e308},{"b":41,"n":2,"sum":-1e308}]}],"gauges":{"peers_down":-1}}`,
		`{"hists":[{"name":"x","buckets":[{"b":40,"n":9223372036854775807,"sum":0},{"b":40,"n":1,"sum":0}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireSnapshot
		if json.Unmarshal(data, &w) != nil {
			return
		}
		s := w.Snapshot()
		_ = s.Render()
		var b strings.Builder
		s.WritePrometheus(&b)

		cs := &ClusterSnapshot{Peers: []PeerMetrics{{Snap: s}, {Snap: s}}}
		cs.merge()
		_ = cs.Render()
		for i := range cs.Merged.Hists {
			h := &cs.Merged.Hists[i].Hist
			for q := 0.0; q <= 1; q += 0.125 {
				_ = h.Quantile(q)
			}
		}
		// Accepted bucket counts per name, twice (one per peer).
		want := map[string]int64{}
		for _, wh := range w.Hists {
			if _, ok := want[wh.Name]; !ok {
				want[wh.Name] = 0
			}
			for _, bk := range wh.Buckets {
				if bk.N > 0 {
					want[wh.Name] += 2 * bk.N
				}
			}
		}
		for i := range cs.Merged.Hists {
			nh := &cs.Merged.Hists[i]
			if nh.Hist.N() != want[nh.Name] {
				t.Fatalf("%s: merged N = %d, want %d", nh.Name, nh.Hist.N(), want[nh.Name])
			}
		}
	})
}
