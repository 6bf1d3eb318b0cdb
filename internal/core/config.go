package core

import (
	"fmt"
	"time"

	"photon/internal/ledger"
	"photon/internal/trace"
)

// Ledger classes. Every peer pair maintains one ledger per class in
// each direction.
const (
	classPWC   = iota // completion identifiers (direct PWC/GWC notify)
	classEager        // packed small messages (RID + payload inline)
	classSys          // middleware control: RTS / FIN for rendezvous
	numClasses
)

// Fixed entry sizes for the non-eager classes.
const (
	pwcEntrySize = 32 // 8 header + 1 type + 8 rid (+ pad)
	sysEntrySize = 64 // 8 header + rtsLen worst case (+ pad)
)

// Config tunes the Photon engine. The zero value selects defaults.
type Config struct {
	// LedgerSlots is the slot count of each per-peer ledger — PWC,
	// eager and sys alike (default 64).
	LedgerSlots int
	// EagerEntrySize is the full eager entry size in bytes, including
	// the 8-byte ledger header and 9-byte packed header (default
	// 1024). Packed payload capacity is EagerEntrySize-17, which is
	// also the eager threshold: Send packs payloads up to it inline
	// and larger ones use the rendezvous protocol.
	EagerEntrySize int
	// RdzvSlabSize is the registered staging arena for inbound
	// rendezvous transfers (default 4 MiB).
	RdzvSlabSize int
	// CreditBatch delays credit-return writes until this many entries
	// of a ledger have been consumed (default LedgerSlots/4, min 1).
	// 1 returns every credit immediately (ablation: explicit
	// per-entry credit traffic).
	CreditBatch int
	// ForceRendezvous disables the packed eager path in Send
	// (ablation knob for the E6 crossover study).
	ForceRendezvous bool
	// HeartbeatInterval arms the transport's failure detector (on
	// backends implementing HealthBackend): links idle longer than the
	// interval carry a heartbeat frame, suppressed while data flows.
	// Zero (the default) disables liveness tracking entirely — no
	// heartbeat traffic, no peer state machine, no per-frame clock
	// reads.
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a peer may stay silent before the
	// detector reports it suspect (default 4×HeartbeatInterval). It
	// must be at least HeartbeatInterval, or every gap between
	// heartbeats would trip the detector.
	SuspectAfter time.Duration
	// OpTimeout bounds every signaled operation: ops still in flight
	// after it are swept by Progress into error completions carrying
	// ErrTimeout, so waiters never wedge on a dead rank. Zero (the
	// default) disables the sweep. When set, blocking waits without an
	// explicit timeout are implicitly bounded by 2×OpTimeout.
	OpTimeout time.Duration

	// Trace, when non-nil, receives this instance's op-lifecycle events;
	// without it nothing is recorded. The ring must also be Enabled: a
	// disabled ring keeps every record site at one atomic load and zero
	// allocations.
	Trace *trace.Ring
	// TraceSampleShift samples 1 in 2^shift posted ops into the trace
	// ring and latency histograms (0 = every op). Sampling is decided
	// at post time, so a sampled op contributes its whole initiator
	// lifecycle; target-side ledger/reap events are not sampled (the
	// target cannot know what the initiator chose).
	TraceSampleShift int
	// Metrics enables the per-instance latency/gauge registry, exposed
	// by Photon.Metrics. Off by default: recording costs two atomic
	// adds per op phase (still allocation-free).
	Metrics bool
	// FlightRecords arms the fault flight recorder: every
	// healthy→suspect and →down peer transition snapshots the last 256
	// trace events, the metrics registry, and the per-peer health
	// counters into a bounded in-memory black box holding up to
	// FlightRecords records (Photon.FlightRecorder / FlightDump). Zero
	// (the default) disables recording. Snapshots run on the fault
	// plane, never on the op hot path.
	FlightRecords int
}

func (c *Config) setDefaults() error {
	if c.LedgerSlots == 0 {
		c.LedgerSlots = 64
	}
	if c.EagerEntrySize == 0 {
		c.EagerEntrySize = 1024
	}
	if c.LedgerSlots < 1 {
		return fmt.Errorf("photon: ledger slots must be positive")
	}
	if c.EagerEntrySize < ledger.HeaderSize+packedHdrSize+1 {
		return fmt.Errorf("photon: eager entry size %d too small", c.EagerEntrySize)
	}
	if c.RdzvSlabSize < 0 || c.CreditBatch < 0 {
		return fmt.Errorf("photon: rendezvous slab size %d and credit batch %d must be non-negative", c.RdzvSlabSize, c.CreditBatch)
	}
	if c.RdzvSlabSize == 0 {
		c.RdzvSlabSize = 4 << 20
	}
	if c.CreditBatch == 0 {
		c.CreditBatch = c.LedgerSlots / 4
		if c.CreditBatch < 1 {
			c.CreditBatch = 1
		}
	}
	if c.TraceSampleShift < 0 || c.TraceSampleShift > 62 {
		return fmt.Errorf("photon: trace sample shift %d out of range [0, 62]", c.TraceSampleShift)
	}
	if c.HeartbeatInterval < 0 || c.SuspectAfter < 0 || c.OpTimeout < 0 {
		return fmt.Errorf("photon: fault-tolerance intervals must be non-negative")
	}
	if c.HeartbeatInterval > 0 && c.SuspectAfter == 0 {
		c.SuspectAfter = 4 * c.HeartbeatInterval
	}
	if c.HeartbeatInterval > 0 && c.SuspectAfter < c.HeartbeatInterval {
		return fmt.Errorf("photon: SuspectAfter %v shorter than HeartbeatInterval %v", c.SuspectAfter, c.HeartbeatInterval)
	}
	if c.FlightRecords < 0 {
		return fmt.Errorf("photon: flight-recorder bound must be non-negative")
	}
	return nil
}

// entrySize returns the wire entry size for a ledger class.
func (c *Config) entrySize(class int) int {
	switch class {
	case classPWC:
		return pwcEntrySize
	case classEager:
		return c.EagerEntrySize
	case classSys:
		return sysEntrySize
	}
	panic("photon: bad ledger class")
}

// packedCap is the largest payload a packed eager entry carries: the
// eager threshold.
func (c *Config) packedCap() int {
	return c.EagerEntrySize - ledger.HeaderSize - packedHdrSize
}

// classBytes returns the backing-store size of one ledger of the class.
func (c *Config) classBytes(class int) int {
	return c.entrySize(class) * c.LedgerSlots
}

// perPeerBytes is the arena footprint of all receive ledgers for one
// peer.
func (c *Config) perPeerBytes() int {
	total := 0
	for cl := 0; cl < numClasses; cl++ {
		total += c.classBytes(cl)
	}
	return total
}

// classOffset returns the offset of a class's ledger within the
// per-peer region.
func (c *Config) classOffset(class int) int {
	off := 0
	for cl := 0; cl < class; cl++ {
		off += c.classBytes(cl)
	}
	return off
}
