package bench

import (
	"sync"
	"testing"
	"time"

	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/msg"
)

func newEnv(t *testing.T, n int) *Env {
	t.Helper()
	e, err := NewEnv(n, fabric.Model{}, core.Config{}, msg.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestPingPongRoutinesProduceSaneLatencies(t *testing.T) {
	e := newEnv(t, 2)
	_, descs, _, err := e.SharedBuffers(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 50
	lat, err := PingPongPWC(e.Phs, descs, 8, iters)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("pwc latency = %v", lat)
	}
	lat, err = PingPongSend(e.Phs, 8, iters)
	if err != nil || lat <= 0 {
		t.Fatalf("send latency = %v err %v", lat, err)
	}
	lat, err = PingPongBaseline(e.MsgJob, 8, iters)
	if err != nil || lat <= 0 {
		t.Fatalf("baseline latency = %v err %v", lat, err)
	}
}

func TestGetRoutines(t *testing.T) {
	e := newEnv(t, 2)
	_, descs, _, err := e.SharedBuffers(4096)
	if err != nil {
		t.Fatal(err)
	}
	if lat, err := GetLatencyGWC(e.Phs, descs, 256, 30); err != nil || lat <= 0 {
		t.Fatalf("gwc: %v %v", lat, err)
	}
	if lat, err := GetLatencyBaseline(e.MsgJob, 256, 30); err != nil || lat <= 0 {
		t.Fatalf("baseline get: %v %v", lat, err)
	}
}

func TestBandwidthRoutines(t *testing.T) {
	e := newEnv(t, 2)
	_, descs, _, err := e.SharedBuffers(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := StreamBandwidthPWC(e.Phs, descs, 4096, 8, 100)
	if err != nil || bw <= 0 {
		t.Fatalf("pwc bw: %v %v", bw, err)
	}
	bw, err = StreamBandwidthBaseline(e.MsgJob, 4096, 8, 100)
	if err != nil || bw <= 0 {
		t.Fatalf("baseline bw: %v %v", bw, err)
	}
}

func TestMessageRateRoutines(t *testing.T) {
	e := newEnv(t, 2)
	r, err := MessageRatePWC(e.Phs, 2, 200)
	if err != nil || r <= 0 {
		t.Fatalf("pwc rate: %v %v", r, err)
	}
	r, err = MessageRateBaseline(e.MsgJob, 2, 200)
	if err != nil || r <= 0 {
		t.Fatalf("baseline rate: %v %v", r, err)
	}
}

func TestAtomicRoutines(t *testing.T) {
	e := newEnv(t, 2)
	_, descs, _, err := e.SharedBuffers(64)
	if err != nil {
		t.Fatal(err)
	}
	if lat, err := AtomicLatency(e.Phs, descs, 50); err != nil || lat <= 0 {
		t.Fatalf("atomic latency: %v %v", lat, err)
	}
	if r, err := AtomicRate(e.Phs, descs, 16, 200); err != nil || r <= 0 {
		t.Fatalf("atomic rate: %v %v", r, err)
	}
	if lat, err := AtomicUpdateBaseline(e.MsgJob, 50); err != nil || lat <= 0 {
		t.Fatalf("baseline update: %v %v", lat, err)
	}
}

func TestSaturatedThroughputAndLedgerSweep(t *testing.T) {
	// Small ledger must still complete (flow control, no deadlock).
	e, err := NewPhotonOnly(2, fabric.Model{}, core.Config{LedgerSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r, err := SaturatedSendThroughput(e.Phs, 8, 500)
	if err != nil || r <= 0 {
		t.Fatalf("throughput: %v %v", r, err)
	}
}

func TestTCPPhotonsHelper(t *testing.T) {
	phs, cleanup, err := NewTCPPhotons(2, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if err := phs[0].Send(1, []byte{1}, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(5, benchWait); err != nil {
		t.Fatal(err)
	}
}

func TestNotifyLatency(t *testing.T) {
	e := newEnv(t, 2)
	_, descs, _, err := e.SharedBuffers(64)
	if err != nil {
		t.Fatal(err)
	}
	if lat, err := NotifyLatencyPWC(e.Phs, descs, 30); err != nil || lat <= 0 {
		t.Fatalf("notify: %v %v", lat, err)
	}
}

// Moved from the deleted root bench_test.go: one packed send through a
// NewEnv job, payload checked at the target.
func TestBenchmarkHarnessSmoke(t *testing.T) {
	var wg sync.WaitGroup
	e, err := NewEnv(2, fabric.Model{}, core.Config{}, msg.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.Phs[0].SendBlocking(1, []byte("smoke"), 0, 1); err != nil {
			t.Error(err)
		}
	}()
	c, err := e.Phs[1].WaitRemote(1, 10*time.Second)
	if err != nil || string(c.Data) != "smoke" {
		t.Fatalf("smoke: %v %q", err, c.Data)
	}
	wg.Wait()
}
