package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Engine sharding. Peers are partitioned across engine shards
// (rank % Config.EngineShards); each shard owns the progress-engine
// state for its peers — completion rings, deferred/credit counters,
// reusable sweep scratch — behind its own try-lock mutex, so shards
// progress concurrently on multicore hosts. The fault-tolerance plane
// stays whole-instance and runs on shard 0 (a fault sweep is never
// per-op cost; see fault.go for the cross-shard locking it does).
//
// Ordering: sharding preserves every per-peer guarantee — one peer is
// owned by exactly one shard, so its ledger sweep, deferred FIFO, and
// credit maintenance stay serialized. What sharding relaxes is
// cross-peer completion interleaving: completions for peers on
// different shards are harvested independently, and backend-CQ reaping
// is work-stealing (any shard may drain the transport queue), so two
// local completions toward different peers may surface in either
// order. Completions are keyed by RID, never by position, so callers
// are insensitive to this by construction.
type engineShard struct {
	idx   int
	peers []*peerState // the peers this shard owns (rank % shards == idx)

	//photon:lock shard 20
	mu sync.Mutex // serializes this shard's engine (try-lock entry)

	// Harvested completions for this shard's peers, split so producers
	// and consumers do not share a lock (see ring.go).
	localCQ  *compRing
	remoteCQ *compRing

	// parked mirrors the sum of the owned peers' deferred counts and
	// creditHintTotal the sum of their consumedHint counters, so a
	// fully idle shard round returns after two atomic loads without
	// touching any per-peer state.
	parked          atomic.Int64
	creditHintTotal atomic.Int64

	lastAct uint64 // arena activity counter at last ledger sweep (shard mu)

	// wake parks this shard's background runner; fanned out by the
	// notifier on every backend event (capacity 1, non-blocking sends).
	wake chan struct{}

	// Reusable sweep scratch, serialized by the shard mutex.
	pollScratch []polledEvent
	reapScratch [64]BackendCompletion
	wireScratch []wireOp
	reqScratch  []WriteReq

	// Per-shard activity gauges (engine_shard{i}_reaps/_sweeps).
	reaps  atomic.Int64 // backend completions handled by this shard
	sweeps atomic.Int64 // productive progress rounds on this shard
}

// kick nudges the shard's runner latch (non-blocking, coalescing).
//
//photon:hotpath
func (s *engineShard) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// initShards builds the shard set and assigns peers. Called by Init
// after the peer table exists.
func (p *Photon) initShards() {
	n := p.cfg.EngineShards
	p.shards = make([]*engineShard, n)
	for i := 0; i < n; i++ {
		p.shards[i] = &engineShard{
			idx:         i,
			localCQ:     newCompRing(p.cfg.CompQueueDepth),
			remoteCQ:    newCompRing(p.cfg.CompQueueDepth),
			wake:        make(chan struct{}, 1),
			wireScratch: make([]wireOp, 0, wireBatchMax),
			reqScratch:  make([]WriteReq, 0, wireBatchMax),
		}
	}
	for _, ps := range p.peers {
		s := p.shards[ps.rank%n]
		ps.shard = s
		s.peers = append(s.peers, ps)
	}
}

// NumShards reports the engine shard count (Config.EngineShards).
func (p *Photon) NumShards() int { return len(p.shards) }

// ProgressShard drives one engine shard: it reaps backend completions,
// polls the owned peers' ledgers, retries their deferred work, and
// performs credit maintenance, returning the number of events handled.
// Distinct shards progress concurrently; concurrent callers of the
// same shard coalesce (one runs, others return 0 immediately). Shard 0
// additionally runs the fault sweep. Out-of-range indices return 0.
//
//photon:hotpath
func (p *Photon) ProgressShard(i int) int {
	if i < 0 || i >= len(p.shards) {
		return 0
	}
	p.stats.progress.Add(1)
	p.traceShard(i, 0, true, "shard.enter")
	return p.progressShard(p.shards[i])
}

// StartProgress launches the background progress mode: one runner
// goroutine per shard, each driving its shard and parking on the
// shard's notify latch between dry rounds. Idempotent; the runners
// stop when the instance is closed. With runners active the caller
// may still drive Progress explicitly — callers coalesce per shard.
func (p *Photon) StartProgress() {
	if p.closed.Load() || p.runnersOn.Swap(true) {
		return
	}
	for _, s := range p.shards {
		p.runWG.Add(1)
		go p.runShard(s)
	}
}

// runShard is one shard's background runner loop: between dry rounds
// it parks on the shard latch, which the notifier kicks on every
// backend event (goroutine-handoff wakeups, parkGrace-bounded).
func (p *Photon) runShard(s *engineShard) {
	defer p.runWG.Done()
	var park *time.Timer
	idle := 0
	for !p.closed.Load() {
		p.stats.progress.Add(1)
		if p.progressShard(s) > 0 {
			idle = 0
			continue
		}
		idle++
		if park == nil {
			park = time.NewTimer(parkGrace)
		} else {
			park.Reset(parkGrace)
		}
		p.traceShard(s.idx, uint64(idle), false, "shard.park")
		select {
		case <-s.wake:
			if !park.Stop() {
				<-park.C
			}
			p.traceShard(s.idx, 0, false, "shard.wake")
		case <-park.C:
		}
	}
	if park != nil {
		park.Stop()
	}
}

// notifier fans one backend activity event out to every consumer: each
// shard's runner latch, the BackendNotify compatibility latch, and
// every subscribed blocking waiter. Each waiter owns a private
// capacity-1 channel for the duration of its wait, so a kick consumed
// by one waiter can never starve another — the fairness hole of a
// single shared notify channel. Channels are recycled through a free
// list, keeping steady-state blocking waits allocation-free.
type notifier struct {
	p      *Photon
	extern chan struct{} // BackendNotify consumers (capacity 1)

	//photon:lock notifier 90
	mu    sync.Mutex
	subs  []chan struct{}
	free  []chan struct{}
	nSubs atomic.Int32
}

// fanout delivers one activity event to every consumer. It is the sink
// installed with Backend.SetWakeSink and runs on the backend's
// event-producing goroutine, so it must stay non-blocking.
//
//photon:hotpath
func (nf *notifier) fanout() {
	for _, s := range nf.p.shards {
		s.kick()
	}
	select {
	case nf.extern <- struct{}{}:
	default:
	}
	if nf.nSubs.Load() == 0 {
		return
	}
	nf.mu.Lock() //photon:allow hotpathalloc -- subscriber list lock; only taken when a blocking waiter is actually parked
	for _, ch := range nf.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	nf.mu.Unlock()
}

// subscribe hands out a private wake channel, registered for fanout.
func (nf *notifier) subscribe() chan struct{} {
	nf.mu.Lock()
	var ch chan struct{}
	if n := len(nf.free); n > 0 {
		ch = nf.free[n-1]
		nf.free[n-1] = nil
		nf.free = nf.free[:n-1]
	} else {
		ch = make(chan struct{}, 1)
	}
	nf.subs = append(nf.subs, ch)
	nf.mu.Unlock()
	nf.nSubs.Add(1)
	return ch
}

// unsubscribe retires a wake channel back to the free list, draining
// any stale token so the next subscriber starts clean.
func (nf *notifier) unsubscribe(ch chan struct{}) {
	nf.mu.Lock()
	for i, c := range nf.subs {
		if c == ch {
			last := len(nf.subs) - 1
			nf.subs[i] = nf.subs[last]
			nf.subs[last] = nil
			nf.subs = nf.subs[:last]
			break
		}
	}
	select {
	case <-ch:
	default:
	}
	nf.free = append(nf.free, ch)
	nf.mu.Unlock()
	nf.nSubs.Add(-1)
}
