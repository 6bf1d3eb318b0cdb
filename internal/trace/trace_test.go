package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledRecordsNothing(t *testing.T) {
	r := NewRing(32)
	r.Record(KindPost, 0, 1, "x")
	if r.Len() != 0 {
		t.Fatalf("disabled ring recorded %d events", r.Len())
	}
}

func TestRecordAndSnapshotOrder(t *testing.T) {
	r := NewRing(64)
	r.Enable(true)
	for i := 0; i < 10; i++ {
		r.Record(KindLedger, 1, uint64(i), "slot")
	}
	evs := r.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("snapshot len = %d", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Arg != uint64(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
		if e.Rank != 1 || e.Kind != KindLedger {
			t.Fatalf("event fields wrong: %+v", e)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(16) // exact power of two
	r.Enable(true)
	for i := 0; i < 40; i++ {
		r.Record(KindPost, 0, uint64(i), "")
	}
	if r.Len() != 16 {
		t.Fatalf("Len = %d, want 16", r.Len())
	}
	evs := r.Snapshot()
	for _, e := range evs {
		if e.Arg < 24 {
			t.Fatalf("old event survived wrap: %+v", e)
		}
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{1, 16}, {17, 32}, {64, 64}} {
		r := NewRing(c.ask)
		r.Enable(true)
		for i := 0; i < 2*c.want; i++ {
			r.Record(KindUser, 0, uint64(i), "")
		}
		if r.Len() != c.want {
			t.Fatalf("NewRing(%d) retains %d events, want %d", c.ask, r.Len(), c.want)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRing(1024)
	r.Enable(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(KindProgress, 0, 0, "tick")
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("Len = %d, want 800", r.Len())
	}
	evs := r.Snapshot()
	seen := make(map[uint64]bool)
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestDumpAndCounts(t *testing.T) {
	r := NewRing(32)
	r.Enable(true)
	r.Record(KindPost, 0, 1, "put")
	r.Record(KindComplete, 0, 1, "cq")
	r.Record(KindComplete, 1, 2, "cq")
	d := r.Dump()
	if !strings.Contains(d, "post") || !strings.Contains(d, "complete") {
		t.Fatalf("dump missing kinds:\n%s", d)
	}
	counts := make(map[Kind]int)
	for _, e := range r.Snapshot() {
		counts[e.Kind]++
	}
	if counts[KindComplete] != 2 || counts[KindPost] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestKindString(t *testing.T) {
	if KindLedger.String() != "ledger" {
		t.Fatalf("KindLedger = %q", KindLedger.String())
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatalf("unknown kind = %q", Kind(99).String())
	}
}

// TestConcurrentWrapSnapshot races many wrapping writers against
// repeated Snapshot calls. Invariants while racing: no duplicate
// sequence numbers and snapshots sorted. At quiescence the ring must
// hold exactly the newest 64 events (its capacity) with no holes (a slow writer
// must never clobber a newer event that wrapped onto its slot).
func TestConcurrentWrapSnapshot(t *testing.T) {
	const capacity = 64 // small: force many wraps
	r := NewRing(capacity)
	r.Enable(true)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(KindPost, w, uint64(i), "wrap")
			}
		}(w)
	}
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.Snapshot()
			seen := make(map[uint64]bool, len(evs))
			for i, e := range evs {
				if seen[e.Seq] {
					snapErr = &dupErr{e.Seq}
					return
				}
				seen[e.Seq] = true
				if i > 0 && evs[i-1].Seq > e.Seq {
					snapErr = &orderErr{}
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	// Quiescent: the final snapshot must hold exactly the newest
	// capacity events, no holes.
	evs := r.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("final snapshot has %d events, want %d", len(evs), capacity)
	}
	total := uint64(writers * perWriter)
	for i, e := range evs {
		if want := total - capacity + uint64(i); e.Seq != want {
			t.Fatalf("hole in retained window: event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

type dupErr struct{ seq uint64 }

func (e *dupErr) Error() string { return "duplicate seq in snapshot" }

type orderErr struct{}

func (e *orderErr) Error() string { return "snapshot out of order" }

// TestWriteChromeJSON renders one shared ring's events split per rank,
// as photon-pingpong and metrics.Serve do: a put posted on rank 0,
// delivered on rank 1 and completed on rank 0 becomes one instant per
// event plus one flow s -> t -> f.
func TestWriteChromeJSON(t *testing.T) {
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	peers := []PeerDump{
		{Rank: 0, Events: []Event{
			{Seq: 0, When: at(0), Kind: KindPost, Rank: 0, Peer: 1, Arg: 7, Arg2: 9, Msg: "put.packed"},
			{Seq: 3, When: at(9), Kind: KindComplete, Rank: 0, Peer: -1, Arg: 9, Msg: "put.done"},
		}},
		{Rank: 1, Events: []Event{
			{Seq: 1, When: at(5), Kind: KindLink, Rank: 1, Peer: 0, Arg: 7, Msg: "ledger.put"},
			{Seq: 2, When: at(6), Kind: KindReap, Rank: 1, Peer: -1, Arg: 7, Msg: "reap.remote"},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeJSONMerged(&buf, peers); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	phases := make(map[string]int)
	for _, e := range out.TraceEvents {
		phases[e["ph"].(string)]++
		if e["cat"] == "flow" && e["id"] != "f0" {
			t.Fatalf("flow id = %v, want f0", e["id"])
		}
	}
	if phases["i"] != 4 || phases["M"] != 2 {
		t.Fatalf("instants/lanes = %d/%d, want 4/2", phases["i"], phases["M"])
	}
	if phases["s"] != 1 || phases["t"] != 1 || phases["f"] != 1 {
		t.Fatalf("flow records s/t/f = %d/%d/%d, want 1/1/1", phases["s"], phases["t"], phases["f"])
	}
}

func TestWriteChromeJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeJSONMerged(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty export invalid: %v", err)
	}
	if _, ok := out["traceEvents"]; !ok {
		t.Fatal("empty export missing traceEvents key")
	}
}
