package metrics_test

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"photon/internal/bench"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/metrics"
	"photon/internal/trace"
)

// TestServeTraceResolvesFlows GETs /trace while a traced 2-rank vsim
// put ping-pong runs on one shared ring, and requires resolved flows:
// each flow starts on the posting rank's lane, finishes on the other
// rank's (where the put was delivered), and every start has its finish.
func TestServeTraceResolvesFlows(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	ring.Enable(true)
	env, err := bench.NewPhotonOnly(2, fabric.Model{}, core.Config{Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	_, descs, _, err := bench.ShareBuffers(env.Phs, 64)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := metrics.Serve("127.0.0.1:0", nil, map[string]*trace.Ring{"job": ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := bench.PingPongPWC(env.Phs, descs, 8, 5000)
		done <- err
	}()

	type record struct {
		Phase string `json:"ph"`
		Cat   string `json:"cat"`
		PID   int    `json:"pid"`
		ID    string `json:"id"`
	}
	flows := func() (starts, finishes int) {
		resp, err := http.Get("http://" + srv.Addr() + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			TraceEvents []record `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("/trace is not valid JSON: %v", err)
		}
		startPID := make(map[string]int)
		for _, e := range out.TraceEvents {
			switch {
			case e.Cat != "flow":
			case e.Phase == "s":
				startPID[e.ID] = e.PID
				starts++
			case e.Phase == "f":
				pid, ok := startPID[e.ID]
				if !ok {
					t.Fatalf("flow %s finishes without a start", e.ID)
				}
				if pid == e.PID {
					t.Fatalf("flow %s starts and finishes on lane %d; a put's delivery is on the other rank", e.ID, pid)
				}
				finishes++
			}
		}
		return starts, finishes
	}

	// Poll while the ping-pong runs: each GET snapshots a ring that is
	// still being written.
	for {
		s, f := flows()
		if s != f {
			t.Fatalf("%d flow starts but %d finishes", s, f)
		}
		if s > 0 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("ping-pong ended (err %v) before /trace showed a resolved flow", err)
		default:
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
