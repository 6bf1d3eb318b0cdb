package metrics

import (
	"strings"
	"testing"
)

// TestCollectorMergesPeers scrapes one in-process peer and one HTTP
// peer (via the /snapshot endpoint) and checks the merge is exact:
// counts add up, the cluster mean is the observation-weighted mean,
// and per-peer gauges sum.
func TestCollectorMergesPeers(t *testing.T) {
	r0 := NewRegistry()
	for i := 0; i < 100; i++ {
		r0.RecordOp(OpPut, StageInitiator, 1000)
	}
	r1 := NewRegistry()
	for i := 0; i < 300; i++ {
		r1.RecordOp(OpPut, StageInitiator, 5000)
	}

	snap1 := func() *Snapshot {
		s := r1.Snapshot()
		s.Gauges["ring_overflows"] = 2
		return s
	}
	srv, err := Serve("127.0.0.1:0", snap1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	col := NewCollector([]PeerSource{
		{Rank: 0, Snap: func() *Snapshot {
			s := r0.Snapshot()
			s.Gauges["ring_overflows"] = 5
			return s
		}},
		{Rank: 1, URL: "http://" + srv.Addr()},
		{Rank: 2, URL: "http://127.0.0.1:1"}, // unreachable
	})
	cs := col.Collect()

	if len(cs.Peers) != 3 {
		t.Fatalf("got %d peers, want 3", len(cs.Peers))
	}
	if cs.Peers[2].Err == nil {
		t.Fatal("unreachable peer reported no error")
	}

	var merged *NamedHist
	for i := range cs.Merged.Hists {
		if cs.Merged.Hists[i].Name == "put/initiator" {
			merged = &cs.Merged.Hists[i]
		}
	}
	if merged == nil {
		t.Fatal("merged snapshot missing put/initiator")
	}
	if n := merged.Hist.N(); n != 400 {
		t.Fatalf("merged n = %d, want 400", n)
	}
	// Weighted mean: (100*1000 + 300*5000) / 400 = 4000, exact because
	// the wire format carries per-bucket sums.
	if m := merged.Hist.Mean(); m < 3999 || m > 4001 {
		t.Fatalf("merged mean = %v, want 4000", m)
	}
	if v := cs.Merged.Gauges["ring_overflows"]; v != 7 {
		t.Fatalf("summed gauge = %d, want 7", v)
	}

	// Slowest-peer ranking: rank 1's 5µs puts must lead.
	top := cs.TopK("put/initiator", 0.99, 2)
	if len(top) != 2 || top[0].Rank != 1 {
		t.Fatalf("TopK = %+v, want rank 1 first", top)
	}

	text := cs.Render()
	for _, want := range []string{"2/3 peers reachable", "put/initiator", "slowest peers"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestClusterEndpoint arms a server's /cluster endpoint with a
// collector over two in-process sources and checks both renderings.
func TestClusterEndpoint(t *testing.T) {
	r := NewRegistry()
	r.RecordOp(OpSend, StageRemote, 700)
	srv, err := Serve("127.0.0.1:0", func() *Snapshot { return r.Snapshot() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.SetCollector(NewCollector([]PeerSource{
		{Rank: 0, Snap: func() *Snapshot { return r.Snapshot() }},
		{Rank: 1, URL: "http://" + srv.Addr()},
	}))

	text, err := httpGet("http://" + srv.Addr() + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "2/2 peers reachable") || !strings.Contains(text, "send/remote") {
		t.Fatalf("/cluster text unexpected:\n%s", text)
	}
	js, err := httpGet("http://" + srv.Addr() + "/cluster?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"merged"`) || !strings.Contains(js, "send/remote") {
		t.Fatalf("/cluster json unexpected:\n%s", js)
	}
}

// TestWireRoundTrip checks Snapshot → WireSnapshot → Snapshot
// preserves counts, sums, and gauges exactly.
func TestWireRoundTrip(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.RecordOp(OpGet, StageInitiator, int64(100+i*37))
	}
	s := r.Snapshot()
	s.Gauges["peers_down"] = 1
	rt := s.Wire().Snapshot()
	if len(rt.Hists) != len(s.Hists) {
		t.Fatalf("hist count changed: %d != %d", len(rt.Hists), len(s.Hists))
	}
	for i := range s.Hists {
		a, b := &s.Hists[i].Hist, &rt.Hists[i].Hist
		if a.N() != b.N() || a.Mean() != b.Mean() {
			t.Fatalf("%s changed: n %d→%d mean %v→%v",
				s.Hists[i].Name, a.N(), b.N(), a.Mean(), b.Mean())
		}
	}
	if v, ok := rt.Gauges["peers_down"]; !ok || v != 1 {
		t.Fatalf("gauge lost in round trip: %d %v", v, ok)
	}
}
