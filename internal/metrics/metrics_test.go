package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryRecordAndSnapshot(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 1000; i++ {
		r.RecordOp(OpPut, StageInitiator, int64(100+i))
		r.RecordOp(OpPut, StageRemote, int64(200+i))
	}
	r.RecordPhase(PhaseReap, 50)
	r.RecordPhase(PhaseSweep, 500)

	snap := r.Snapshot()
	byName := map[string]int64{}
	for i := range snap.Hists {
		byName[snap.Hists[i].Name] = snap.Hists[i].Hist.N()
	}
	if byName["put/initiator"] != 1000 {
		t.Fatalf("put/initiator n = %d, want 1000", byName["put/initiator"])
	}
	if byName["put/remote"] != 1000 {
		t.Fatalf("put/remote n = %d, want 1000", byName["put/remote"])
	}
	if byName["progress/reap"] != 1 || byName["progress/sweep"] != 1 {
		t.Fatalf("phase hists missing: %v", byName)
	}
	// Empty families stay out of the snapshot.
	if _, ok := byName["get/initiator"]; ok {
		t.Fatalf("empty get histogram appeared in snapshot")
	}

	// Mean of put/initiator must be exact (counts and sums are merged
	// exactly; only variance/min/max are bucket-approximated).
	for i := range snap.Hists {
		if snap.Hists[i].Name == "put/initiator" {
			want := 100.0 + 999.0/2
			if got := snap.Hists[i].Hist.Mean(); got < want-0.5 || got > want+0.5 {
				t.Fatalf("put/initiator mean = %v, want ~%v", got, want)
			}
		}
	}
}

func TestRegistryDisabledAndNil(t *testing.T) {
	var nilReg *Registry
	if nilReg.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	nilReg.RecordOp(OpPut, StageInitiator, 1) // must not panic
	nilReg.RecordPhase(PhaseIdle, 1)
	if s := nilReg.Snapshot(); len(s.Hists) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}

	r := NewRegistry()
	r.Enable(false)
	r.RecordOp(OpSend, StageRemote, 42)
	if s := r.Snapshot(); len(s.Hists) != 0 {
		t.Fatal("disabled registry accepted an observation")
	}
}

func TestRegistryConcurrentRecord(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.RecordOp(OpAtomic, StageInitiator, int64(1+w+i))
			}
		}(w)
	}
	wg.Wait()
	if n := r.ops[OpAtomic][StageInitiator].N(); n != workers*per {
		t.Fatalf("lost observations: %d != %d", n, workers*per)
	}
}

func TestSnapshotRenderAndPrometheus(t *testing.T) {
	r := NewRegistry()
	r.RecordOp(OpSend, StageRemote, 1500)
	snap := r.Snapshot()
	snap.Gauges["ring_overflows"] = 3

	text := snap.Render()
	if !strings.Contains(text, "send/remote") || !strings.Contains(text, "ring_overflows") {
		t.Fatalf("render missing fields:\n%s", text)
	}

	var b strings.Builder
	snap.WritePrometheus(&b)
	prom := b.String()
	for _, want := range []string{
		"# TYPE photon_op_latency_ns histogram",
		`photon_op_latency_ns_bucket{op="send",stage="remote",le="1536"} 1`,
		`photon_op_latency_ns_bucket{op="send",stage="remote",le="+Inf"} 1`,
		`photon_op_latency_ns_count{op="send",stage="remote"} 1`,
		"# TYPE photon_ring_overflows gauge",
		"photon_ring_overflows 3",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.RecordOp(OpPut, StageInitiator, 900)
	srv, err := Serve("127.0.0.1:0", func() *Snapshot { return r.Snapshot() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := httpGet("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	if !strings.Contains(get("/metrics"), "photon_op_latency_ns_count") {
		t.Fatal("/metrics missing histogram")
	}
	if !strings.Contains(get("/vars"), "put/initiator") {
		t.Fatal("/vars missing histogram")
	}
	if !strings.Contains(get("/trace"), "traceEvents") {
		t.Fatal("/trace not chrome-trace shaped")
	}
}
