// Package chaos wraps any core.Backend with deterministic fault
// injection: seeded drop / delay / duplicate decisions on the write
// path, plus rank-level partition and crash-peer switches. It exists
// to drive the engine's fault plane from tests — every hang-avoidance
// claim (OpTimeout sweeps, ErrPeerDown fail-fast, token-generation
// rejection of late or duplicated completions) is exercised by
// wrapping a real transport and letting the plan lose, stall, or
// replay traffic.
//
// Determinism: all probabilistic decisions come from one rand.Rand
// seeded by Plan.Seed, consumed in op-posting order. The same seed
// over the same op sequence injects the same faults, so a failing
// chaos run replays exactly under `-race` or a debugger.
//
// Fault semantics (all at the post boundary, transport-agnostic):
//
//   - drop: the post claims success but never reaches the inner
//     backend. A signaled op then never completes — surfacing it is
//     the engine's job (Config.OpTimeout).
//   - delay: the op is held for DelayPolls calls to Poll, then
//     forwarded. The payload is copied (snapshot-at-post holds for
//     the caller), and release order follows posting order among
//     delayed ops, but a delayed op is overtaken by later undelayed
//     ones — deliberately violating RC ordering the way a faulty
//     link would, to prove the receiver never corrupts.
//   - duplicate: the op is forwarded twice; the second signaled
//     completion must be rejected by the engine's token generation.
//   - partition: every op toward the rank is silently dropped.
//   - crash: every op toward the rank fails fast with
//     core.ErrPeerDown and PeerHealth reports core.PeerDown.
package chaos

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/core"
	"photon/internal/flight"
	"photon/internal/mem"
)

// Plan is the seeded injection policy. Probabilities are evaluated
// per posted write, in order: drop, then delay, then duplicate.
type Plan struct {
	Seed       int64
	DropProb   float64 // silently discard a posted write
	DelayProb  float64 // hold a write for DelayPolls Poll calls
	DelayPolls int     // hold duration in Poll calls (default 4)
	DupProb    float64 // forward a write twice
}

// Stats counts injected faults.
type Stats struct {
	Dropped    int64
	Delayed    int64
	Duplicated int64
}

// delayedOp is one held write; local is a private copy.
type delayedOp struct {
	rank     int
	local    []byte
	raddr    uint64
	rkey     uint32
	token    uint64
	signaled bool
	hold     int
}

// Backend wraps an inner core.Backend with the plan's faults and
// forwards the rest of the contract, so an engine over it runs the
// same wake, batch and sweep path as over the bare transport.
type Backend struct {
	inner core.Backend
	plan  Plan
	group *Group // shared whole-job fault state; nil for Wrap

	// wake holds the engine's sink, kicked while delayed ops are held:
	// their release is counted in Poll calls, so the engine must keep
	// polling instead of parking until the next transport event.
	wake *core.WakeChan

	// Armed op-count trigger (see group.go). Atomic: callers post
	// concurrently and the trigger must fire exactly once.
	crashIn atomic.Int64

	//photon:lock chaos 10
	mu          sync.Mutex
	rng         *rand.Rand
	delayed     []delayedOp
	partitioned map[int]bool
	crashed     map[int]bool
	stats       Stats
}

var (
	_ core.Backend       = (*Backend)(nil)
	_ core.HealthBackend = (*Backend)(nil)
	_ core.StatsBackend  = (*Backend)(nil)
)

// Wrap builds a chaos backend over inner.
func Wrap(inner core.Backend, plan Plan) *Backend {
	if plan.DelayPolls <= 0 {
		plan.DelayPolls = 4
	}
	return &Backend{
		inner:       inner,
		plan:        plan,
		wake:        core.NewWakeChan(),
		rng:         rand.New(rand.NewSource(plan.Seed)),
		partitioned: make(map[int]bool),
		crashed:     make(map[int]bool),
	}
}

// WrapGroup builds a chaos backend over inner that shares g's global
// fault state: Group.Kill (or this rank's CrashAfterOps trigger) is
// observed consistently by every member's backend, giving the
// whole-process-death semantics a single-sided CrashPeer cannot.
func WrapGroup(inner core.Backend, plan Plan, g *Group) *Backend {
	b := Wrap(inner, plan)
	b.group = g
	return b
}

// Partition silently blackholes (on=true) or heals (on=false) all
// traffic from this side toward rank.
func (b *Backend) Partition(rank int, on bool) {
	b.mu.Lock()
	b.partitioned[rank] = on
	b.mu.Unlock()
}

// CrashPeer latches rank as dead from this side: every later post
// toward it fails with core.ErrPeerDown and PeerHealth reports
// core.PeerDown. Terminal, matching the engine's state machine.
func (b *Backend) CrashPeer(rank int) {
	b.mu.Lock()
	b.crashed[rank] = true
	b.mu.Unlock()
}

// Stats snapshots the injected-fault counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Rank, Size, Register, Deregister, WriteActivity, ApplyLocal,
// ClockOffset, Exchange, Close: transparent forwarding.
func (b *Backend) Rank() int { return b.inner.Rank() }
func (b *Backend) Size() int { return b.inner.Size() }

func (b *Backend) WriteActivity(rb mem.RemoteBuffer) (func() uint64, bool) {
	return b.inner.WriteActivity(rb)
}

func (b *Backend) ClockOffset(rank int) (offsetNS, rttNS int64, ok bool) {
	return b.inner.ClockOffset(rank)
}

// SetWakeSink installs fn on the inner transport and keeps it for the
// delayed-op kicks Poll issues.
func (b *Backend) SetWakeSink(fn func()) {
	b.wake.SetSink(fn)
	b.inner.SetWakeSink(fn)
}

func (b *Backend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	return b.inner.Register(buf)
}

func (b *Backend) Deregister(rb mem.RemoteBuffer) error { return b.inner.Deregister(rb) }

func (b *Backend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	return b.inner.ApplyLocal(raddr, rkey, data)
}

func (b *Backend) Exchange(local []byte) ([][]byte, error) { return b.inner.Exchange(local) }

func (b *Backend) Close() error { return b.inner.Close() }

// verdict is one injection decision.
type verdict int

const (
	vForward verdict = iota
	vDrop
	vDelay
	vDup
)

// decide rolls the plan for one write toward rank. Self-rank traffic
// is never faulted (loopback cannot be lost).
func (b *Backend) decide(rank int) (verdict, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed[rank] {
		return vForward, core.ErrPeerDown
	}
	if rank == b.inner.Rank() {
		return vForward, nil
	}
	if b.partitioned[rank] {
		b.stats.Dropped++
		return vDrop, nil
	}
	switch r := b.rng.Float64(); {
	case r < b.plan.DropProb:
		b.stats.Dropped++
		return vDrop, nil
	case r < b.plan.DropProb+b.plan.DelayProb:
		b.stats.Delayed++
		return vDelay, nil
	case r < b.plan.DropProb+b.plan.DelayProb+b.plan.DupProb:
		b.stats.Duplicated++
		return vDup, nil
	}
	return vForward, nil
}

// gate is the crash/partition check for non-write ops (reads,
// atomics): crashed fails fast, partitioned blackholes.
func (b *Backend) gate(rank int) (forward bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed[rank] {
		return false, core.ErrPeerDown
	}
	if b.partitioned[rank] && rank != b.inner.Rank() {
		b.stats.Dropped++
		return false, nil
	}
	return true, nil
}

// PostWrite applies the plan to one write. The group gate and the
// armed op-count triggers run first, so the very post that crosses a
// CrashAfterOps threshold is already posted by a dead rank.
func (b *Backend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	b.tick()
	if drop, err := b.groupGate(rank); err != nil {
		return err
	} else if drop {
		return nil // claimed posted, never delivered
	}
	v, err := b.decide(rank)
	if err != nil {
		return err
	}
	switch v {
	case vDrop:
		return nil // claimed posted, never delivered
	case vDelay:
		cp := append([]byte(nil), local...) // snapshot-at-post for the caller
		b.mu.Lock()
		b.delayed = append(b.delayed, delayedOp{
			rank: rank, local: cp, raddr: raddr, rkey: rkey,
			token: token, signaled: signaled, hold: b.plan.DelayPolls,
		})
		b.mu.Unlock()
		return nil
	case vDup:
		if err := b.inner.PostWrite(rank, local, raddr, rkey, token, signaled); err != nil {
			return err
		}
		// Best-effort replay; the duplicate completion must be
		// rejected by the engine's token generation.
		_ = b.inner.PostWrite(rank, local, raddr, rkey, token, signaled)
		return nil
	}
	return b.inner.PostWrite(rank, local, raddr, rkey, token, signaled)
}

// PostWriteBatch runs every request through PostWrite, so each write of
// a doorbell batch meets the same triggers and injection point as a
// lone one, in posting order.
func (b *Backend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	for i, r := range reqs {
		if err := b.PostWrite(rank, r.Local, r.RemoteAddr, r.RKey, r.Token, r.Signaled); err != nil {
			return i, err
		}
	}
	return len(reqs), nil
}

// PostRead forwards unless the rank is crashed, partitioned, or dead
// in the group.
func (b *Backend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	if drop, err := b.groupGate(rank); err != nil || drop {
		return err
	}
	fwd, err := b.gate(rank)
	if err != nil || !fwd {
		return err
	}
	return b.inner.PostRead(rank, local, raddr, rkey, token)
}

// PostFetchAdd forwards unless the rank is crashed or partitioned.
func (b *Backend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	if drop, err := b.groupGate(rank); err != nil || drop {
		return err
	}
	fwd, err := b.gate(rank)
	if err != nil || !fwd {
		return err
	}
	return b.inner.PostFetchAdd(rank, result, raddr, rkey, add, token)
}

// PostCompSwap forwards unless the rank is crashed or partitioned.
func (b *Backend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	if drop, err := b.groupGate(rank); err != nil || drop {
		return err
	}
	fwd, err := b.gate(rank)
	if err != nil || !fwd {
		return err
	}
	return b.inner.PostCompSwap(rank, result, raddr, rkey, compare, swap, token)
}

// Poll advances delayed ops by one tick, forwards the ones that came
// due, and reaps the inner backend. Progress drives Poll continually,
// so DelayPolls measures delay in progress rounds — deterministic
// under -race, unlike wall-clock holds. While anything is still held the
// engine's sink is kicked, so a waiter about to park polls again.
func (b *Backend) Poll(dst []core.BackendCompletion) int {
	b.mu.Lock()
	var due []delayedOp
	if len(b.delayed) > 0 {
		keep := b.delayed[:0]
		for i := range b.delayed {
			d := b.delayed[i]
			d.hold--
			if d.hold <= 0 {
				due = append(due, d)
			} else {
				keep = append(keep, d)
			}
		}
		b.delayed = keep
	}
	held := len(b.delayed) > 0
	b.mu.Unlock()
	for _, d := range due {
		if err := b.inner.PostWrite(d.rank, d.local, d.raddr, d.rkey, d.token, d.signaled); err != nil {
			// Transient refusal: try again next tick.
			d.hold = 1
			held = true
			b.mu.Lock()
			b.delayed = append(b.delayed, d)
			b.mu.Unlock()
		}
	}
	if held {
		b.wake.Kick()
	}
	return b.inner.Poll(dst)
}

// TransportStats forwards the inner transport's counters (nothing when
// the inner backend exports none) and appends the injected-fault
// counts, so a chaos-wrapped job still shows its transport gauges in
// Photon.Metrics() plus what the plan did to it.
func (b *Backend) TransportStats(yield func(name string, value int64)) {
	if sb, ok := b.inner.(core.StatsBackend); ok {
		sb.TransportStats(yield)
	}
	s := b.Stats()
	yield("chaos_dropped", s.Dropped)
	yield("chaos_delayed", s.Delayed)
	yield("chaos_duplicated", s.Duplicated)
}

// ConfigureLiveness forwards to the inner transport's detector when it
// has one (core.HealthBackend).
func (b *Backend) ConfigureLiveness(heartbeat, suspectAfter time.Duration) {
	if hb, ok := b.inner.(core.HealthBackend); ok {
		hb.ConfigureLiveness(heartbeat, suspectAfter)
	}
}

// PeerHealth overlays group kills and crash latches on the inner
// detector's view. A killed self sees every peer down immediately (the
// corpse's own waits abort rather than spin); a killed peer is
// reported down once the group's detection delay elapses.
func (b *Backend) PeerHealth(rank int) core.PeerHealth {
	if b.group != nil && rank != b.inner.Rank() {
		if b.group.Killed(b.inner.Rank()) {
			return core.PeerDown
		}
		if _, detected := b.group.status(rank); detected {
			return core.PeerDown
		}
	}
	b.mu.Lock()
	crashed := b.crashed[rank]
	b.mu.Unlock()
	if crashed {
		return core.PeerDown
	}
	if hb, ok := b.inner.(core.HealthBackend); ok {
		return hb.PeerHealth(rank)
	}
	return core.PeerHealthy
}

// ArmFlightDump installs an auto-dump hook on the instance's fault
// flight recorder: every captured record (peer suspect/down) triggers
// a full JSON dump to w, so a chaos run that kills a peer leaves its
// black box on disk even if the test or job then dies. Dumps are
// serialized; w needs no locking of its own. Returns false when the
// instance was built without Config.FlightRecords.
func ArmFlightDump(p *core.Photon, w io.Writer) bool {
	fr := p.FlightRecorder()
	if fr == nil {
		return false
	}
	var mu sync.Mutex
	fr.SetHook(func(flight.Record) {
		mu.Lock()
		defer mu.Unlock()
		_ = p.FlightDump(w)
	})
	return true
}
