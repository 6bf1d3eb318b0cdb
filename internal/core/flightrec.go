package core

import (
	"fmt"
	"io"
	"time"

	"photon/internal/flight"
	"photon/internal/trace"
)

// Flight-recorder capture (see package flight for the black box
// itself). Armed by Config.FlightRecords; the fault sweep calls
// captureFlight on every healthy→degraded and →down transition.
//
// captureFlight runs inside pollHealth, which holds the engine mutex.
// It therefore must NOT call Photon.Metrics() — that locks the engine
// and would self-deadlock — and instead reads only lock-free sources:
// the engine counters (Photon.counters), the trace ring snapshot, the
// metrics registry (atomic buckets), per-peer health atomics, and the
// backend's TransportStats (which the StatsBackend contract requires
// to be safe during operation). Allocation here is fine; transitions are rare,
// cold events.

// flightWindow is how many of the most recent trace-ring events each
// flight record retains.
const flightWindow = 256

// captureFlight snapshots the engine into the flight recorder at one
// peer-health transition. No-op when the recorder is unarmed.
func (p *Photon) captureFlight(ps *peerState, from, to PeerHealth) {
	p.captureRecord(ps, from, to, "")
}

// CaptureEvent records a reason-tagged flight snapshot outside the
// health state machine — the collectives layer arms it on a collective
// abort so the black box holds the failing round even when the peer's
// own down-transition capture raced past it. peer is the rank the event
// is about; reads only lock-free sources, so it is safe from any
// goroutine, with or without engine locks held. No-op when the recorder
// is unarmed or peer is out of range.
func (p *Photon) CaptureEvent(peer int, reason string) {
	if p.flightRec == nil || peer < 0 || peer >= p.size {
		return
	}
	ps := p.peers[peer]
	st := PeerHealth(ps.health.Load())
	p.captureRecord(ps, st, st, reason)
}

func (p *Photon) captureRecord(ps *peerState, from, to PeerHealth, reason string) {
	fr := p.flightRec
	if fr == nil {
		return
	}
	rec := flight.Record{
		WhenNS: time.Now().UnixNano(),
		Rank:   p.rank,
		Peer:   ps.rank,
		From:   from.String(),
		To:     to.String(),
		Reason: reason,
		Gauges: map[string]int64{},
	}
	set := func(name string, v int64) { rec.Gauges[name] = v }
	p.counters(set)
	if p.obs.ring != nil {
		rec.Events = p.obs.ring.Snapshot()
	}
	if p.obs.reg != nil {
		snap := p.obs.reg.Snapshot()
		for i := range snap.Hists {
			rec.Hists = append(rec.Hists, snap.Hists[i].Hist.Summary(snap.Hists[i].Name))
		}
	}
	if sb, ok := p.be.(StatsBackend); ok {
		sb.TransportStats(set)
	}
	for _, peer := range p.peers {
		if peer.rank == p.rank {
			continue
		}
		st := PeerHealth(peer.health.Load())
		if peer == ps {
			st = to // this transition's store may not have landed yet
		}
		rec.Health = append(rec.Health, flight.PeerHealthInfo{
			Rank:             peer.rank,
			State:            st.String(),
			LastTransitionNS: peer.lastTransitionNS.Load(),
		})
	}
	fr.Add(rec)
	p.traceEv(trace.KindProtocol, uint64(ps.rank), "flight.capture")
}

// FlightRecorder returns the fault flight recorder, or nil when
// Config.FlightRecords is zero. Use it to install an auto-dump hook
// (Recorder.SetHook) or inspect records programmatically.
func (p *Photon) FlightRecorder() *flight.Recorder { return p.flightRec }

// FlightDump writes the flight recorder's contents as indented JSON.
// It is safe to call at any time, including while the engine is live.
func (p *Photon) FlightDump(w io.Writer) error {
	if p.flightRec == nil {
		return fmt.Errorf("photon: flight recorder disabled (Config.FlightRecords == 0)")
	}
	return p.flightRec.WriteJSON(w)
}

// PeerLastTransitionNS returns the wall-clock UnixNano of the peer's
// last health transition, or 0 if it never transitioned.
func (p *Photon) PeerLastTransitionNS(rank int) int64 {
	if rank < 0 || rank >= p.size {
		return 0
	}
	return p.peers[rank].lastTransitionNS.Load()
}
