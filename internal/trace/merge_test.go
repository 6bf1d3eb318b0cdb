package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// mergedFixture is a deterministic two-peer put chain: rank 0 posts
// wire RID 7 (local RID 9), rank 1 — whose clock runs 1000ns behind,
// so OffsetNS corrects it forward — records the link delivery, and
// rank 0 closes with complete and reap. Timestamps are synthetic
// (time.Unix(0, n)) so the rendering is fully reproducible.
func mergedFixture() []PeerDump {
	return []PeerDump{
		{Rank: 0, OffsetNS: 0, Events: []Event{
			{Seq: 1, When: time.Unix(0, 1000), Kind: KindPost, Rank: 0, Peer: 1, Arg: 7, Arg2: 9, Msg: "put.packed"},
			{Seq: 2, When: time.Unix(0, 5000), Kind: KindComplete, Rank: 0, Peer: -1, Arg: 9, Msg: "put.done"},
			{Seq: 3, When: time.Unix(0, 6000), Kind: KindReap, Rank: 0, Peer: -1, Arg: 9, Msg: "reap.local"},
		}},
		{Rank: 1, OffsetNS: 1000, Events: []Event{
			{Seq: 1, When: time.Unix(0, 1500), Kind: KindLink, Rank: 1, Peer: 0, Arg: 7, PeerNS: 1000, Msg: "send.deliver"},
		}},
	}
}

// TestWriteChromeJSONMergedGolden pins the merged exporter's exact
// output: process lanes per rank, offset-corrected instants (the link
// lands at adjusted t=2500, i.e. 1.5us past the post), the
// wire_delay_ns annotation computed across the corrected clocks, and
// one resolved flow s -> t -> f spanning both lanes. Args maps marshal
// with sorted keys, so the bytes are stable.
func TestWriteChromeJSONMergedGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeJSONMerged(&b, mergedFixture()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != mergedGolden {
		t.Fatalf("merged Chrome JSON drifted from golden.\ngot:\n%s\nwant:\n%s", got, mergedGolden)
	}
}

// TestWriteChromeJSONMergedUnresolved checks a chain whose op never
// completed locally still renders: the flow finishes at the link
// event instead of dangling.
func TestWriteChromeJSONMergedUnresolved(t *testing.T) {
	peers := mergedFixture()
	peers[0].Events = peers[0].Events[:1] // drop complete and reap
	var b strings.Builder
	if err := WriteChromeJSONMerged(&b, peers); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"ph": "s"`) {
		t.Fatalf("no flow start:\n%s", out)
	}
	if strings.Contains(out, `"ph": "t"`) {
		t.Fatalf("unresolved chain emitted a flow step:\n%s", out)
	}
	if !strings.Contains(out, `"bp": "e"`) {
		t.Fatalf("no flow finish:\n%s", out)
	}
}

// TestMergedLocalOnlyFlow checks a get-shaped chain: the post carries
// Arg = Arg2 = the local RID and no remote delivery is traced, so the
// flow starts at the post and finishes at the same rank's completion
// (the first later complete/reap with that RID; the reap is left over).
func TestMergedLocalOnlyFlow(t *testing.T) {
	peers := []PeerDump{{Rank: 0, Events: []Event{
		{Seq: 1, When: time.Unix(0, 1000), Kind: KindPost, Rank: 0, Peer: 1, Arg: 5, Arg2: 5, Msg: "get"},
		{Seq: 2, When: time.Unix(0, 3000), Kind: KindComplete, Rank: 0, Peer: -1, Arg: 5, Msg: "get.done"},
		{Seq: 3, When: time.Unix(0, 4000), Kind: KindReap, Rank: 0, Peer: -1, Arg: 5, Msg: "reap.wait"},
	}}}
	var b strings.Builder
	if err := WriteChromeJSONMerged(&b, peers); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatal(err)
	}
	var flow []chromeEvent
	for _, e := range out.TraceEvents {
		if e.Cat == "flow" {
			flow = append(flow, e)
		}
	}
	if len(flow) != 2 || flow[0].Phase != "s" || flow[1].Phase != "f" {
		t.Fatalf("flow records = %+v, want one s and one f", flow)
	}
	if flow[0].Name != "get" || flow[1].Name != "get.done" || flow[1].TS != 2 || flow[1].BP != "e" {
		t.Fatalf("flow runs %q -> %q (f at %vus), want get -> get.done at 2us", flow[0].Name, flow[1].Name, flow[1].TS)
	}
}

// putPingPongDumps synthesizes a traced 2-rank put ping-pong of n
// events: each half round is a post on one rank (wire RID = local RID
// = the round number), the link delivery on the other, and the
// initiator's complete and reap.
func putPingPongDumps(n int) []PeerDump {
	peers := []PeerDump{{Rank: 0}, {Rank: 1}}
	var seq uint64
	add := func(rank int, e Event) {
		seq++
		e.Seq, e.When, e.Rank = seq, time.Unix(0, int64(seq)*100), rank
		peers[rank].Events = append(peers[rank].Events, e)
	}
	for i := 0; seq < uint64(n); i++ {
		from, to := i%2, 1-i%2
		rid := uint64(i/2 + 1)
		add(from, Event{Kind: KindPost, Peer: to, Arg: rid, Arg2: rid, Msg: "put.packed"})
		add(to, Event{Kind: KindLink, Peer: from, Arg: rid, Msg: "ledger.put"})
		add(from, Event{Kind: KindComplete, Peer: -1, Arg: rid, Msg: "put.done"})
		add(from, Event{Kind: KindReap, Peer: -1, Arg: rid, Msg: "reap.wait"})
	}
	return peers
}

// BenchmarkWriteChromeJSONMerged reports the exporter's cost per event
// at two trace sizes; a cost that grows with the size means some step
// is not linear.
func BenchmarkWriteChromeJSONMerged(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		peers := putPingPongDumps(n)
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := WriteChromeJSONMerged(io.Discard, peers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/event")
		})
	}
}

const mergedGolden = `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 0,
   "args": {
    "name": "rank 0"
   }
  },
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 2,
   "tid": 0,
   "args": {
    "name": "rank 1"
   }
  },
  {
   "name": "put.packed",
   "cat": "post",
   "ph": "i",
   "ts": 0,
   "pid": 1,
   "tid": 1,
   "s": "t",
   "args": {
    "arg": 7,
    "arg2": 9,
    "peer": 1,
    "rank": 0,
    "seq": 1
   }
  },
  {
   "name": "send.deliver",
   "cat": "link",
   "ph": "i",
   "ts": 1.5,
   "pid": 2,
   "tid": 8,
   "s": "t",
   "args": {
    "arg": 7,
    "ctx_post_ns": 1000,
    "peer": 0,
    "rank": 1,
    "seq": 1,
    "wire_delay_ns": 1500
   }
  },
  {
   "name": "put.done",
   "cat": "complete",
   "ph": "i",
   "ts": 4,
   "pid": 1,
   "tid": 2,
   "s": "t",
   "args": {
    "arg": 9,
    "rank": 0,
    "seq": 2
   }
  },
  {
   "name": "reap.local",
   "cat": "reap",
   "ph": "i",
   "ts": 5,
   "pid": 1,
   "tid": 7,
   "s": "t",
   "args": {
    "arg": 9,
    "rank": 0,
    "seq": 3
   }
  },
  {
   "name": "put.packed",
   "cat": "flow",
   "ph": "s",
   "ts": 0,
   "pid": 1,
   "tid": 1,
   "id": "f0",
   "args": {
    "origin": 0,
    "rid": 7
   }
  },
  {
   "name": "send.deliver",
   "cat": "flow",
   "ph": "t",
   "ts": 1.5,
   "pid": 2,
   "tid": 8,
   "id": "f0",
   "args": {
    "origin": 0,
    "rid": 7
   }
  },
  {
   "name": "put.done",
   "cat": "flow",
   "ph": "f",
   "ts": 4,
   "pid": 1,
   "tid": 2,
   "id": "f0",
   "bp": "e",
   "args": {
    "origin": 0,
    "rid": 7
   }
  }
 ],
 "displayTimeUnit": "ns"
}
`
