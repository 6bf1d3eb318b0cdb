// Package metrics is the aggregation half of Photon's observability
// plane. Where internal/trace records individual op-lifecycle events,
// this package accumulates latency distributions and engine gauges:
// post→initiator-completion and post→remote-delivery per op kind,
// progress-engine phase timing, and whatever gauges the engine folds
// into a snapshot.
//
// Recording is designed for protocol hot paths: each observation is
// two atomic adds into a shard chosen from the caller's stack address,
// so concurrent ranks in one process do not bounce a shared cache
// line, and nothing allocates. Reporting merges the shards into
// stats.Histogram values, so quantiles and rendering are shared with
// the benchmark harness.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"photon/internal/stats"
)

// OpKind classifies an operation for latency accounting.
type OpKind uint8

// Op kinds tracked by the engine.
const (
	OpPut OpKind = iota
	OpGet
	OpSend
	OpAtomic
	numOps
)

var opNames = [...]string{"put", "get", "send", "atomic"}

// String returns the lowercase op name.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Stage distinguishes the two latency endpoints of one op.
type Stage uint8

// Latency stages: post→initiator completion (the local RID becoming
// reapable) and post→remote delivery (the target's ledger write, as
// observed through the signaled completion that fences it).
const (
	StageInitiator Stage = iota
	StageRemote
	numStages
)

var stageNames = [...]string{"initiator", "remote"}

// String returns the lowercase stage name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// CollKind classifies a collective operation for latency accounting.
type CollKind uint8

// Collective kinds tracked by the collectives layer.
const (
	CollBarrier CollKind = iota
	CollBcast
	CollReduce
	CollAllreduce
	CollGather
	CollAllgather
	CollAlltoall
	// CollAbort is not a collective call kind: its histogram records
	// detection→abort latency (peer-down latch to the survivor's
	// ErrCommRevoked return) when a collective is revoked.
	CollAbort
	numColls
)

var collNames = [...]string{"barrier", "bcast", "reduce", "allreduce", "gather", "allgather", "alltoall", "abort"}

// String returns the lowercase collective name.
func (k CollKind) String() string {
	if int(k) < len(collNames) {
		return collNames[k]
	}
	return fmt.Sprintf("coll(%d)", uint8(k))
}

// Phase classifies time spent inside the progress engine.
type Phase uint8

// Progress-engine phases.
const (
	PhaseReap  Phase = iota // draining backend CQs and resolving tokens
	PhaseSweep              // polling peer ledgers and dispatching entries
	PhaseIdle               // Progress calls that found nothing to do
	numPhases
)

var phaseNames = [...]string{"reap", "sweep", "idle"}

// String returns the lowercase phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// latShards is the number of independent accumulators per histogram.
// Power of two; 8 covers typical in-process rank counts without
// noticeable false sharing.
const latShards = 8

// latShard is one lock-free accumulator: per-bucket observation
// counts and nanosecond sums. The bucket layout mirrors
// stats.Histogram's log-linear scheme exactly.
type latShard struct {
	count [stats.NumBuckets]atomic.Int64
	sum   [stats.NumBuckets]atomic.Int64
}

// LatHist is a lock-free log-linear latency histogram. The zero value
// is ready to use. Record never allocates.
type LatHist struct {
	shards [latShards]latShard
}

// Record adds one nanosecond observation.
func (h *LatHist) Record(ns int64) {
	// Shard on the caller's stack address: goroutines get distinct
	// stacks, so concurrent recorders usually hit distinct shards. The
	// pointer never escapes and is only hashed, never dereferenced.
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) & (latShards - 1)
	b := stats.Bucket(ns)
	s := &h.shards[i]
	s.count[b].Add(1)
	s.sum[b].Add(ns)
}

// MergeInto folds the shards into a stats.Histogram. Concurrent
// Record calls may or may not be included; each shard bucket is read
// once, so counts and sums stay mutually consistent per bucket.
func (h *LatHist) MergeInto(dst *stats.Histogram) {
	for si := range h.shards {
		s := &h.shards[si]
		for b := 0; b < stats.NumBuckets; b++ {
			c := s.count[b].Load()
			if c == 0 {
				continue
			}
			dst.AccumulateBucket(b, c, float64(s.sum[b].Load()))
		}
	}
}

// N returns the total observation count across shards.
func (h *LatHist) N() int64 {
	var n int64
	for si := range h.shards {
		s := &h.shards[si]
		for b := 0; b < stats.NumBuckets; b++ {
			n += s.count[b].Load()
		}
	}
	return n
}

// Registry is the per-engine metrics sink (Collector merges several).
// All Record methods are safe for concurrent use, never
// allocate, and are no-ops on a nil or disabled registry — callers on
// hot paths gate on Enabled first so the disabled cost is one atomic
// load.
type Registry struct {
	enabled atomic.Bool
	ops     [numOps][numStages]LatHist
	phases  [numPhases]LatHist
	colls   [numColls]LatHist
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.enabled.Store(true)
	return r
}

// Enable turns recording on or off.
func (r *Registry) Enable(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry accepts observations. A nil
// registry reports false.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// RecordOp adds one op-latency observation.
func (r *Registry) RecordOp(k OpKind, st Stage, ns int64) {
	if !r.Enabled() || k >= numOps || st >= numStages {
		return
	}
	r.ops[k][st].Record(ns)
}

// RecordColl adds one whole-collective latency observation.
func (r *Registry) RecordColl(k CollKind, ns int64) {
	if !r.Enabled() || k >= numColls {
		return
	}
	r.colls[k].Record(ns)
}

// RecordPhase adds one progress-phase duration observation.
func (r *Registry) RecordPhase(p Phase, ns int64) {
	if !r.Enabled() || p >= numPhases {
		return
	}
	r.phases[p].Record(ns)
}

// NamedHist pairs a merged histogram with its metric identity.
type NamedHist struct {
	Name   string // e.g. "photon_op_latency_ns{op=put,stage=remote}"
	Metric string // Prometheus metric family, e.g. "photon_op_latency_ns"
	Labels string // rendered label pairs, e.g. `op="put",stage="remote"`
	Hist   stats.Histogram
}

// Snapshot is a point-in-time copy of every non-empty histogram plus
// the gauges the engine attached. Snapshots are plain values: render,
// export, or diff them freely.
type Snapshot struct {
	Hists  []NamedHist
	Gauges *stats.CounterSet
}

// Snapshot merges all shards and returns the current state. Gauges
// start empty; Photon.Metrics attaches engine gauges before returning
// the snapshot to the application.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Gauges: stats.NewCounterSet()}
	if r == nil {
		return snap
	}
	for k := OpKind(0); k < numOps; k++ {
		for st := Stage(0); st < numStages; st++ {
			var h stats.Histogram
			r.ops[k][st].MergeInto(&h)
			if h.N() == 0 {
				continue
			}
			labels := fmt.Sprintf("op=%q,stage=%q", k.String(), st.String())
			snap.Hists = append(snap.Hists, NamedHist{
				Name:   fmt.Sprintf("%s/%s", k, st),
				Metric: "photon_op_latency_ns",
				Labels: labels,
				Hist:   h,
			})
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		var h stats.Histogram
		r.phases[p].MergeInto(&h)
		if h.N() == 0 {
			continue
		}
		snap.Hists = append(snap.Hists, NamedHist{
			Name:   fmt.Sprintf("progress/%s", p),
			Metric: "photon_progress_phase_ns",
			Labels: fmt.Sprintf("phase=%q", p.String()),
			Hist:   h,
		})
	}
	for k := CollKind(0); k < numColls; k++ {
		var h stats.Histogram
		r.colls[k].MergeInto(&h)
		if h.N() == 0 {
			continue
		}
		snap.Hists = append(snap.Hists, NamedHist{
			Name:   fmt.Sprintf("coll/%s", k),
			Metric: "photon_coll_latency_ns",
			Labels: fmt.Sprintf("kind=%q", k.String()),
			Hist:   h,
		})
	}
	return snap
}

// Render prints the snapshot as aligned text: one histogram line per
// metric (count, mean, p50/p90/p99 in microseconds) followed by the
// gauge block.
func (s *Snapshot) Render() string {
	var b strings.Builder
	if len(s.Hists) > 0 {
		t := stats.NewTable("latency (us)", "metric", "n", "mean", "p50", "p90", "p99", "max")
		for i := range s.Hists {
			h := &s.Hists[i].Hist
			t.Row(s.Hists[i].Name, h.N(),
				h.Mean()/1e3,
				float64(h.Quantile(0.50))/1e3,
				float64(h.Quantile(0.90))/1e3,
				float64(h.Quantile(0.99))/1e3,
				float64(h.Quantile(1))/1e3)
		}
		b.WriteString(t.Render())
	} else {
		b.WriteString("# latency (us)\n(no observations)\n")
	}
	if s.Gauges != nil && len(s.Gauges.Names()) > 0 {
		b.WriteString("# gauges\n")
		b.WriteString(s.Gauges.Render())
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): each histogram as a *_bucket /
// *_sum / *_count family with log-linear `le` bounds, each gauge as
// an untyped sample.
func (s *Snapshot) WritePrometheus(b *strings.Builder) {
	families := map[string]bool{}
	for i := range s.Hists {
		nh := &s.Hists[i]
		if !families[nh.Metric] {
			families[nh.Metric] = true
			fmt.Fprintf(b, "# TYPE %s histogram\n", nh.Metric)
		}
		writePromHist(b, nh)
	}
	if s.Gauges == nil {
		return
	}
	names := s.Gauges.Names()
	sort.Strings(names)
	for _, n := range names {
		v, _ := s.Gauges.Get(n)
		metric := "photon_" + promSanitize(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", metric, metric, v)
	}
}

func writePromHist(b *strings.Builder, nh *NamedHist) {
	h := &nh.Hist
	var cum int64
	var sum float64
	for bk := 0; bk < stats.NumBuckets; bk++ {
		c := h.BucketCount(bk)
		if c == 0 {
			continue
		}
		cum += c
		_, hi := stats.BucketBounds(bk)
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%d\"} %d\n", nh.Metric, nh.Labels, hi, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", nh.Metric, nh.Labels, h.N())
	sum = h.Mean() * float64(h.N())
	fmt.Fprintf(b, "%s_sum{%s} %g\n", nh.Metric, nh.Labels, sum)
	fmt.Fprintf(b, "%s_count{%s} %d\n", nh.Metric, nh.Labels, h.N())
}

func promSanitize(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
