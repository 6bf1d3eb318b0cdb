// Package trace provides a low-overhead, fixed-capacity event ring used
// to debug and profile the Photon middleware. Events are recorded into a
// lock-free-ish per-ring slot array guarded by an atomic cursor; readers
// snapshot the ring without stopping writers.
//
// Tracing is off by default; enabling it costs one atomic add plus a few
// stores per event, cheap enough to leave in protocol hot paths during
// ablation runs.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds used by the Photon stack.
const (
	KindNone     Kind = iota
	KindPost          // work request posted to a queue pair
	KindComplete      // completion reaped from a CQ
	KindLedger        // ledger slot written or consumed
	KindProtocol      // protocol state transition (RTS/CTS/FIN)
	KindProgress      // progress-engine iteration
	KindUser          // application-defined
	KindReap          // completion handed to the application (Probe/Test/Wait)
	KindLink          // span link: remote delivery carrying the initiator's context
	_                 // 9 is retired
	_                 // 10 is retired (was KindShard); a new kind takes 11
)

var kindNames = [...]string{
	KindNone: "none", KindPost: "post", KindComplete: "complete", KindLedger: "ledger",
	KindProtocol: "protocol", KindProgress: "progress", KindUser: "user", KindReap: "reap",
	KindLink: "link",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	Seq  uint64 // global sequence number, monotonically increasing
	When time.Time
	Kind Kind
	Rank int // locality the event refers to (-1 if n/a)
	Peer int // the other side of a cross-peer event: target rank on
	//             a post, origin rank on a delivery (-1 if n/a)
	Arg    uint64 // kind-specific argument (RID, slot index, ...)
	Arg2   uint64 // secondary correlation id (local RID on a post; 0 if n/a)
	PeerNS int64  // initiator's post timestamp in the origin clock, carried
	//              by the wire trace context (0 = no context)
	Msg string // static-ish label; avoid per-event formatting in hot paths
}

// Ring is a bounded trace buffer. The zero value is disabled; create
// with NewRing.
type Ring struct {
	enabled atomic.Bool
	cursor  atomic.Uint64
	slots   []slot
	mask    uint64
}

type slot struct {
	//photon:lock traceslot 10
	mu sync.Mutex
	ev Event
	ok bool
}

// NewRing creates a ring holding capacity events (rounded up to a power
// of two, minimum 16). The ring starts disabled.
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Enable turns recording on or off.
func (r *Ring) Enable(on bool) { r.enabled.Store(on) }

// Enabled reports whether the ring is recording.
func (r *Ring) Enabled() bool { return r.enabled.Load() }

// Record stores one event if the ring is enabled. Safe for concurrent
// use.
func (r *Ring) Record(kind Kind, rank int, arg uint64, msg string) {
	r.RecordFull(kind, rank, -1, arg, 0, 0, msg)
}

// RecordLink stores a cross-peer span-link event: a delivery or apply
// whose initiator is peer, carrying the initiator's post timestamp
// peerNS (0 when the wire frame had no trace context).
func (r *Ring) RecordLink(kind Kind, rank, peer int, arg uint64, peerNS int64, msg string) {
	r.RecordFull(kind, rank, peer, arg, 0, peerNS, msg)
}

// RecordFull is the fully-general entry point; Record and RecordLink
// delegate here. Safe for concurrent use.
func (r *Ring) RecordFull(kind Kind, rank, peer int, arg, arg2 uint64, peerNS int64, msg string) {
	if !r.enabled.Load() {
		return
	}
	seq := r.cursor.Add(1) - 1
	s := &r.slots[seq&r.mask]
	s.mu.Lock()
	// Under wrap, a slow writer holding seq can lose the race to a fast
	// writer holding seq+capacity that maps to the same slot. Keep the newest
	// event: overwriting it with the stale one would leave Snapshot with
	// a hole at the head of the retained window.
	if !s.ok || s.ev.Seq <= seq {
		s.ev = Event{Seq: seq, When: time.Now(), Kind: kind, Rank: rank, Peer: peer, Arg: arg, Arg2: arg2, PeerNS: peerNS, Msg: msg}
		s.ok = true
	}
	s.mu.Unlock()
}

// Len returns how many events are currently retained (at most the
// ring's capacity).
func (r *Ring) Len() int {
	n := r.cursor.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot returns retained events ordered by sequence number.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.ok {
			out = append(out, s.ev)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump renders the snapshot as text, one event per line.
func (r *Ring) Dump() string {
	evs := r.Snapshot()
	var b strings.Builder
	for _, e := range evs {
		if e.Peer >= 0 {
			fmt.Fprintf(&b, "%8d %-9s rank=%-3d arg=%-8d peer=%-3d %s\n", e.Seq, e.Kind, e.Rank, e.Arg, e.Peer, e.Msg)
		} else {
			fmt.Fprintf(&b, "%8d %-9s rank=%-3d arg=%-8d %s\n", e.Seq, e.Kind, e.Rank, e.Arg, e.Msg)
		}
	}
	return b.String()
}
