package tcp

import (
	"fmt"
	"sync/atomic"
)

// connStats holds one connection's data-path counters; the writer and
// reader goroutines update them with atomics so Stats() can snapshot
// concurrently.
type connStats struct {
	flushes   atomic.Int64 // Write syscalls issued
	framesOut atomic.Int64 // frames coalesced into those writes
	bytesOut  atomic.Int64
	readCalls atomic.Int64 // Read syscalls issued (buffered-reader fills)
	framesIn  atomic.Int64
	bytesIn   atomic.Int64

	signaledAcked atomic.Int64 // our signaled writes completed by peer acks
	acksPiggy     atomic.Int64 // acks conveyed on flushes carrying data frames
	acksSolo      atomic.Int64 // acks conveyed by pure standalone-ack flushes
	ackFrames     atomic.Int64 // standalone ack frames emitted
	nacksSent     atomic.Int64 // failed signaled writes nacked to the initiator

	heartbeats   atomic.Int64 // liveness probes sent (suppressed ones excluded)
	reconnects   atomic.Int64 // connections re-established after a loss
	retxFrames   atomic.Int64 // window frames replayed after reconnects
	clockSamples atomic.Int64 // accepted (min-RTT) clock-offset samples
}

// DataPathStats is a point-in-time snapshot of the TCP data path,
// either per connection (PeerStats) or aggregated (Stats). The raw
// counters quantify the coalescing the writer achieved: frames and
// bytes per Flushes/ReadCalls show how much rides each syscall, and
// AcksPiggybacked against AcksStandalone what fraction of cumulative
// acks traveled on frames that were going to the peer anyway.
type DataPathStats struct {
	Flushes   int64
	FramesOut int64
	BytesOut  int64
	ReadCalls int64
	FramesIn  int64
	BytesIn   int64

	SignaledAcked   int64
	AcksPiggybacked int64
	AcksStandalone  int64
	AckFramesSent   int64
	NacksSent       int64

	Heartbeats       int64
	Reconnects       int64
	RetransmitFrames int64
	ClockSamples     int64

	// WindowPeak is the deepest any send window has been: the most
	// write frames held unacknowledged toward one peer (a maximum, not
	// a sum, across connections).
	WindowPeak int64
}

func (s *DataPathStats) add(c *connStats) {
	s.Flushes += c.flushes.Load()
	s.FramesOut += c.framesOut.Load()
	s.BytesOut += c.bytesOut.Load()
	s.ReadCalls += c.readCalls.Load()
	s.FramesIn += c.framesIn.Load()
	s.BytesIn += c.bytesIn.Load()
	s.SignaledAcked += c.signaledAcked.Load()
	s.AcksPiggybacked += c.acksPiggy.Load()
	s.AcksStandalone += c.acksSolo.Load()
	s.AckFramesSent += c.ackFrames.Load()
	s.NacksSent += c.nacksSent.Load()
	s.Heartbeats += c.heartbeats.Load()
	s.Reconnects += c.reconnects.Load()
	s.RetransmitFrames += c.retxFrames.Load()
	s.ClockSamples += c.clockSamples.Load()
}

// Stats aggregates the data-path counters across every connection.
func (b *Backend) Stats() DataPathStats {
	var s DataPathStats
	for i := range b.cstats {
		s.add(&b.cstats[i])
		s.WindowPeak = max(s.WindowPeak, int64(b.windows[i].peak()))
	}
	return s
}

// PeerStats snapshots one connection's counters (zero for self/bad rank).
func (b *Backend) PeerStats(peer int) DataPathStats {
	var s DataPathStats
	if peer >= 0 && peer < len(b.cstats) {
		s.add(&b.cstats[peer])
		s.WindowPeak = int64(b.windows[peer].peak())
	}
	return s
}

// TransportStats implements core.StatsBackend: the aggregate counters
// surface as tcp_* gauges in Photon.Metrics() snapshots.
func (b *Backend) TransportStats(yield func(name string, value int64)) {
	s := b.Stats()
	yield("tcp_flushes", s.Flushes)
	yield("tcp_frames_out", s.FramesOut)
	yield("tcp_bytes_out", s.BytesOut)
	yield("tcp_read_calls", s.ReadCalls)
	yield("tcp_frames_in", s.FramesIn)
	yield("tcp_bytes_in", s.BytesIn)
	yield("tcp_signaled_acked", s.SignaledAcked)
	yield("tcp_acks_piggybacked", s.AcksPiggybacked)
	yield("tcp_acks_standalone", s.AcksStandalone)
	yield("tcp_ack_frames", s.AckFramesSent)
	yield("tcp_nacks", s.NacksSent)
	yield("tcp_heartbeats", s.Heartbeats)
	yield("tcp_reconnects", s.Reconnects)
	yield("tcp_retransmit_frames", s.RetransmitFrames)
	yield("tcp_clock_samples", s.ClockSamples)
	yield("tcp_window_peak", s.WindowPeak)
	// Per-peer clock-sync gauges, exported only once a sample exists so
	// dashboards can distinguish "no estimate" from "zero offset".
	for peer, lk := range b.links {
		if lk == nil {
			continue
		}
		if off, rtt, ok := b.ClockOffset(peer); ok {
			yield(fmt.Sprintf("tcp_peer%d_clock_offset_ns", peer), off)
			yield(fmt.Sprintf("tcp_peer%d_clock_rtt_ns", peer), rtt)
		}
	}
}
