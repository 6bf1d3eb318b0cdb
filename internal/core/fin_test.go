package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
	"photon/internal/trace"
)

// rtsToken returns the token rank's RTS carried, read from its rts.tx
// trace event.
func rtsToken(t *testing.T, ring *trace.Ring, rank int) uint64 {
	t.Helper()
	for _, e := range ring.Snapshot() {
		if e.Msg == "rts.tx" && e.Rank == rank {
			return e.Arg
		}
	}
	t.Fatal("no rts.tx event")
	return 0
}

// pumpUntilFIN drives p until it has dispatched a FIN.
func pumpUntilFIN(t *testing.T, p *core.Photon, ring *trace.Ring) {
	t.Helper()
	for deadline := time.Now().Add(waitT); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		p.Progress()
		for _, e := range ring.Snapshot() {
			if e.Msg == "fin.rx" && e.Rank == p.Rank() {
				return
			}
		}
	}
	t.Fatalf("rank %d dispatched no FIN", p.Rank())
}

// A FIN completes only a rendezvous send toward the rank that sent it:
// one from a third rank, naming rank 0's send to rank 1, resolves
// nothing, and the real FIN still completes the send.
func TestFINFromWrongPeerIgnored(t *testing.T) {
	cfg, ring := obsConfig()
	phs := newJob(t, 3, cfg)
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i)
	}
	// Rank 1 does not drive progress yet, so its FIN cannot arrive.
	if err := phs[0].Send(1, big, 11, 12); err != nil {
		t.Fatal(err)
	}
	phs[2].SendFIN(0, rtsToken(t, ring, 0))
	pumpUntilFIN(t, phs[0], ring)
	if c, ok := phs[0].PopLocal(); ok {
		t.Fatalf("a FIN from rank 2 completed a send to rank 1: %+v", c)
	}

	done := make(chan error, 1)
	go func() {
		c, err := phs[1].WaitRemote(12, waitT)
		if err == nil && (c.Err != nil || len(c.Data) != len(big) || c.Data[len(big)-1] != big[len(big)-1]) {
			err = errors.New("bad delivery")
		}
		done <- err
	}()
	c, err := phs[0].WaitLocal(11, waitT)
	if err != nil || c.Err != nil {
		t.Fatalf("send not completed by its own FIN: %v %v", err, c.Err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// A FIN that carries the token of a live backend op (here a pending
// get) is not a rendezvous send's FIN: it leaves the op to its backend
// completion.
func TestFINNamingBackendOpIgnored(t *testing.T) {
	lb := newLoopBackend()
	p, err := core.Init(lb, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf := make([]byte, 64)
	rb, _, err := p.RegisterBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	lb.captureTokens = true
	if err := p.GetWithCompletion(0, make([]byte, 8), rb, 0, 51, 0); err != nil {
		t.Fatal(err)
	}
	if len(lb.tokens) != 1 {
		t.Fatalf("captured %d tokens, want 1", len(lb.tokens))
	}
	tok := lb.tokens[0]

	p.SendFIN(0, tok)
	for i := 0; i < 10; i++ {
		p.Progress()
	}
	if c, ok := p.Probe(core.ProbeAny); ok {
		t.Fatalf("a FIN resolved a pending get: %+v", c)
	}
	lb.inject(core.BackendCompletion{Token: tok, OK: true})
	p.Progress()
	c, ok := p.Probe(core.ProbeLocal)
	if !ok || c.RID != 51 || c.Err != nil {
		t.Fatalf("get completion after the FIN = %+v, %v; want RID 51", c, ok)
	}
}

// deregCounter records the registrations a backend releases.
type deregCounter struct {
	core.Backend
	mu     sync.Mutex
	deregs []mem.RemoteBuffer
}

func (d *deregCounter) Deregister(rb mem.RemoteBuffer) error {
	d.mu.Lock()
	d.deregs = append(d.deregs, rb)
	d.mu.Unlock()
	return d.Backend.Deregister(rb)
}

func (d *deregCounter) released() []mem.RemoteBuffer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]mem.RemoteBuffer(nil), d.deregs...)
}

// A rendezvous send whose FIN never arrives times out under OpTimeout:
// it surfaces ErrTimeout, ops_timed_out counts it, its registration is
// released, and a FIN arriving afterwards resolves nothing.
func TestRendezvousSendTimesOut(t *testing.T) {
	cl, err := vsim.NewCluster(2, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cfg, ring := obsConfig()
	cfg.OpTimeout = 20 * time.Millisecond
	dc := &deregCounter{Backend: cl.Backend(0)}
	phs := initRanks(t, cfg, dc, cl.Backend(1))
	big := make([]byte, 32<<10)
	if err := phs[0].Send(1, big, 21, 22); err != nil {
		t.Fatal(err)
	}
	c, err := phs[0].WaitLocal(21, waitT)
	if err != nil || !errors.Is(c.Err, core.ErrTimeout) {
		t.Fatalf("unanswered rendezvous send = %v / %v, want ErrTimeout", err, c.Err)
	}
	if got := phs[0].Metrics().Gauges["ops_timed_out"]; got != 1 {
		t.Fatalf("ops_timed_out = %d, want 1", got)
	}
	if rel := dc.released(); len(rel) != 1 || rel[0].Len != len(big) {
		t.Fatalf("released %+v, want the send's one registration", rel)
	}

	phs[1].SendFIN(0, rtsToken(t, ring, 0))
	pumpUntilFIN(t, phs[0], ring)
	if c, ok := phs[0].PopLocal(); ok {
		t.Fatalf("a late FIN completed the timed-out send again: %+v", c)
	}
	if rel := dc.released(); len(rel) != 1 {
		t.Fatalf("a late FIN released %d registrations, want still 1", len(rel))
	}
}
