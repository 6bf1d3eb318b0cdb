package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/metrics"
	"photon/internal/trace"
)

// obsState is the engine's observability plumbing: the trace ring that
// receives op-lifecycle events, the metrics registry that accumulates
// latency distributions, and the sampling state. Both sinks are
// independently optional; every hot-path probe below collapses to one
// or two atomic loads when they are off.
type obsState struct {
	ring *trace.Ring       // never nil after Init (a private, never-enabled ring without Config.Trace)
	reg  *metrics.Registry // nil unless Config.Metrics
	mask uint64            // 2^TraceSampleShift - 1; 0 = sample every op
	seq  atomic.Uint64     // post counter driving the sampling decision

	// idleSeq drives the 1-in-64 sampling of idle progress-round
	// phase observations (see Progress): its own stream, so a
	// storm of empty polls never perturbs the op sampling draw.
	idleSeq atomic.Uint64

	// delSeq drives the sampling of untraced ledger deliveries
	// (traceDelivery). Deliveries interleave 1:1 with posts on a
	// loopback or ping-pong path; a shared counter would phase-lock
	// the two draws and could starve one stream entirely.
	delSeq atomic.Uint64

	// gauge sources registered by layers above the engine (collectives):
	// each is invoked at Metrics snapshot time with a setter into the
	// snapshot's gauge set.
	//photon:lock obsgauge 85
	gaugeMu   sync.Mutex
	gaugeSrcs []func(set func(name string, v int64))
}

// obsEpoch anchors observability timestamps: time.Since against a
// fixed epoch compiles to one monotonic clock read and never
// allocates, and int64 nanoseconds ride inside pendingOp for free.
var obsEpoch = time.Now()

// nowNanos returns monotonic nanoseconds since process start.
func nowNanos() int64 { return int64(time.Since(obsEpoch)) }

// initObs wires the observability plane from the effective config.
func (p *Photon) initObs(cfg *Config) {
	p.obs.ring = cfg.Trace
	if p.obs.ring == nil {
		p.obs.ring = trace.NewRing(0) // never enabled: record sites stay one atomic load
	}
	if cfg.Metrics {
		p.obs.reg = metrics.NewRegistry()
	}
	if cfg.TraceSampleShift > 0 {
		p.obs.mask = 1<<uint(cfg.TraceSampleShift) - 1
	}
}

// obsStamp is the per-op sampling gate, called once at post time. It
// returns 0 when the op should not be observed — both sinks off, or
// the op lost the sampling draw — and a nowNanos timestamp otherwise.
// The timestamp doubles as the "this op is sampled" flag carried in
// pendingOp.postNS, so every later lifecycle site is one int64
// comparison. Disabled cost: one or two atomic loads, no allocation.
func (p *Photon) obsStamp() int64 {
	o := &p.obs
	if !o.ring.Enabled() && !o.reg.Enabled() {
		return 0
	}
	if o.mask != 0 && o.seq.Add(1)&o.mask != 0 {
		return 0
	}
	return nowNanos()
}

// traceEv records one event against this rank into the instance ring.
// The ring itself gates on Enabled (one atomic load when off).
func (p *Photon) traceEv(kind trace.Kind, arg uint64, msg string) {
	p.obs.ring.Record(kind, p.rank, arg, msg)
}

// tracePost records a sampled post event. Arg is the wire-correlated
// RID — the one the target's delivery event will carry — and Arg2 the
// local RID the initiator's completion/reap events will carry, so the
// merged exporter can stitch post → remote apply → ack/reap into one
// flow. Peer names the target rank.
//
//photon:hotpath
func (p *Photon) tracePost(peer int, arg, arg2 uint64, msg string) {
	p.obs.ring.RecordFull(trace.KindPost, p.rank, peer, arg, arg2, 0, msg)
}

// traceDelivery records a ledger-delivery event. Entries that carried
// a wire trace context become span-link events (KindLink) holding the
// initiator's rank and post timestamp — the initiator already paid the
// sampling draw, so these always land. Untraced entries record a plain
// KindLedger event that still names the sender, subject to this rank's
// own sampling stream: a sampled cluster stays sampled on the receive
// side even when senders run dark.
//
//photon:hotpath
func (p *Photon) traceDelivery(sender int, ev *polledEvent, arg uint64, msg string) {
	if ev.hasCtx {
		p.obs.ring.RecordLink(trace.KindLink, p.rank, ev.origin, arg, ev.ctxNS, msg)
		return
	}
	o := &p.obs
	if !o.ring.Enabled() {
		return
	}
	if o.mask != 0 && o.delSeq.Add(1)&o.mask != 0 {
		return
	}
	o.ring.RecordLink(trace.KindLedger, p.rank, sender, arg, 0, msg)
}

// opDone records the initiator-side end of a sampled op: the
// backend-complete trace event plus the post→completion latencies.
// remoteVis marks ops whose signaled completion also fences remote
// visibility (the ledger write orders behind the data on an RC
// channel), closing the post→remote-delivery distribution too.
func (p *Photon) opDone(op *pendingOp, msg string) {
	if op.postNS == 0 {
		return
	}
	lat := nowNanos() - op.postNS
	p.traceEv(trace.KindComplete, op.rid, msg)
	if r := p.obs.reg; r.Enabled() {
		r.RecordOp(op.mkind, metrics.StageInitiator, lat)
		if op.remoteVis {
			r.RecordOp(op.mkind, metrics.StageRemote, lat)
		}
	}
}

// MetricsRegistry returns the registry this instance records into, or
// nil when metrics are disabled.
func (p *Photon) MetricsRegistry() *metrics.Registry { return p.obs.reg }

// PeerClockOffset reports the transport's estimate of rank's wall
// clock minus this process's, in nanoseconds, with the RTT of the
// sample behind it (see Backend.ClockOffset). The self rank is
// trivially synchronized; until the transport has an estimate ok is
// false and callers should fall back to offset 0 (co-located
// processes) or an external source. Feed the result into trace.PeerDump.OffsetNS when
// stitching per-rank rings into one merged timeline.
func (p *Photon) PeerClockOffset(rank int) (offsetNS, rttNS int64, ok bool) {
	if rank == p.rank {
		return 0, 0, true
	}
	return p.be.ClockOffset(rank)
}

// counters names every engine counter once, reporting each through
// set: the Stats fields under their snake_case names, completion-ring
// high-water marks, parked deferred work, progress activity and the
// fault plane's counters (always reported, 0 while it is disarmed).
// Every source is an atomic, so it takes no lock: Metrics and the
// flight recorder (which runs under the engine mutex) both use it.
func (p *Photon) counters(set func(name string, v int64)) {
	s := p.Stats()
	set("puts_direct", s.PutsDirect)
	set("puts_packed", s.PutsPacked)
	set("gets", s.Gets)
	set("rdzv_sends", s.RdzvSends)
	set("rdzv_recvs", s.RdzvRecvs)
	set("atomics", s.Atomics)
	set("credit_writes", s.CreditWrites)
	set("progress_calls", s.ProgressCalls)
	set("deferred_writes", s.DeferredWrites)
	set("entry_pool_hits", s.EntryPoolHits)
	set("entry_pool_misses", s.EntryPoolMisses)
	set("ring_overflows", s.RingOverflows)
	set("batch_posts", s.BatchPosts)
	set("batched_ops", s.BatchedOps)

	eng := &p.eng
	set("local_cq_highwater", eng.localCQ.hw.Load())
	set("remote_cq_highwater", eng.remoteCQ.hw.Load())
	set("deferred_parked", eng.parked.Load())
	set("credit_hint_pending", eng.creditHintTotal.Load())
	set("engine_reaps", eng.reaps.Load())
	set("engine_sweeps", eng.sweeps.Load())

	set("ops_timed_out", p.opsTimedOut.Load())
	set("peer_suspect_transitions", p.suspectTransitions.Load())
	set("peers_down", p.peersDown.Load())
}

// Metrics snapshots the latency registry and attaches engine gauges:
// every engine counter (see counters), per-peer credit/deferred
// gauges, transport counters and registered gauge sources. Callable
// with metrics disabled (the snapshot then carries gauges only).
func (p *Photon) Metrics() *metrics.Snapshot {
	snap := p.obs.reg.Snapshot()
	g := snap.Gauges
	set := func(name string, v int64) { g[name] = v }
	p.counters(set)

	// Per-peer gauges. consumed/lastReturned are engine and peer-mutex
	// state respectively; take the same locks the engine does so a
	// snapshot during live traffic stays race-free.
	eng := &p.eng
	eng.mu.Lock()
	for _, ps := range p.peers {
		if ps.rank == p.rank {
			continue
		}
		var consumed, unreturned int64
		ps.mu.Lock()
		for cl := 0; cl < numClasses; cl++ {
			consumed += ps.consumed[cl]
			unreturned += ps.consumed[cl] - ps.lastReturned[cl]
		}
		ps.mu.Unlock()
		prefix := fmt.Sprintf("peer%d_", ps.rank)
		g[prefix+"deferred"] = ps.deferred.Load()
		g[prefix+"entries_consumed"] = consumed
		g[prefix+"credits_unreturned"] = unreturned
	}
	eng.mu.Unlock()

	// Transport-level gauges, when the backend measures itself (the
	// TCP backend exports its data-path coalescing counters here).
	if sb, ok := p.be.(StatsBackend); ok {
		sb.TransportStats(set)
	}

	// Layered gauge sources (collectives counters and the like).
	p.obs.gaugeMu.Lock()
	var srcs []func(set func(name string, v int64))
	srcs = append(srcs, p.obs.gaugeSrcs...)
	p.obs.gaugeMu.Unlock()
	for _, fn := range srcs {
		fn(set)
	}
	return snap
}

// AddGaugeSource registers fn to contribute gauges to every Metrics
// snapshot. Layers above the engine (collectives) use it to surface
// their counters through the same snapshot without the engine knowing
// their names. fn must be safe for concurrent use.
func (p *Photon) AddGaugeSource(fn func(set func(name string, v int64))) {
	p.obs.gaugeMu.Lock()
	p.obs.gaugeSrcs = append(p.obs.gaugeSrcs, fn)
	p.obs.gaugeMu.Unlock()
}
