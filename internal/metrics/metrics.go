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
// line, and nothing allocates. Reporting merges the shards into plain
// Hist values — per-bucket counts and nanosecond sums — which is also
// the form snapshots travel in between peers.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"unsafe"

	"photon/internal/flight"
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

// Log-linear bucket layout (HDR-histogram style). Observations below
// linearCutoff nanoseconds get one bucket per nanosecond; above it,
// each power-of-two octave is split into subPerOctave linear
// sub-buckets, so relative bucket width never exceeds 1/subPerOctave
// (12.5%). At the 4 µs range typical of shm puts a bucket is 512 ns
// wide.
const (
	linearCutoff = 32 // identity buckets for ns in [0, 32)
	subBits      = 3
	subPerOctave = 1 << subBits

	// numBuckets covers int64 nanoseconds: 32 linear buckets plus 8
	// sub-buckets for each octave 2^5..2^62.
	numBuckets = linearCutoff + (62-5+1)*subPerOctave
)

// bucket returns the bucket index an observation of ns nanoseconds
// falls into (non-positive observations land in bucket 0).
func bucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	if ns < linearCutoff {
		return int(ns)
	}
	o := bits.Len64(uint64(ns)) - 1 // octave, >= 5
	sub := int((uint64(ns) >> uint(o-subBits)) & (subPerOctave - 1))
	return linearCutoff + (o-5)*subPerOctave + sub
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b <= 0 {
		return 0, 1
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	if b < linearCutoff {
		return int64(b), int64(b) + 1
	}
	o := 5 + (b-linearCutoff)/subPerOctave
	sub := (b - linearCutoff) % subPerOctave
	shift := uint(o - subBits)
	lo = int64(subPerOctave+sub) << shift
	width := int64(1) << shift
	if lo > math.MaxInt64-width {
		return lo, math.MaxInt64
	}
	return lo, lo + width
}

// Hist is a merged latency histogram: per-bucket observation counts
// and nanosecond sums over the log-linear layout, covering 1ns..~292y
// with <=12.5% bucket width. Sums make the mean exact and let peers'
// histograms merge exactly. The zero value is empty; a Hist is a plain
// value, not safe for concurrent mutation (LatHist is the recorder).
type Hist struct {
	n      int64
	counts [numBuckets]int64
	sums   [numBuckets]float64
}

// add folds n observations totaling sum nanoseconds into bucket b. It
// is the one entry point for bucket data, including bytes a remote
// peer sent to /snapshot: b is clamped into range and n <= 0 ignored.
func (h *Hist) add(b int, n int64, sum float64) {
	if n <= 0 {
		return
	}
	b = min(max(b, 0), numBuckets-1)
	h.counts[b] += n
	h.sums[b] += sum
	h.n += n
}

// Merge folds every observation of o into h.
func (h *Hist) Merge(o *Hist) {
	for b, c := range o.counts {
		h.add(b, c, o.sums[b])
	}
}

// N returns the total number of observations.
func (h *Hist) N() int64 { return h.n }

// Mean returns the mean in nanoseconds, or 0 if empty.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for _, s := range h.sums {
		sum += s
	}
	return sum / float64(h.n)
}

// Quantile returns an approximate q-quantile (0<=q<=1) in nanoseconds.
// Within the bucket containing the q-th observation the estimate
// interpolates linearly by the observation's rank between the bucket
// bounds — with log-linear buckets the bounds are at most 12.5% apart,
// so the interpolation error is bounded by the bucket width rather
// than a full octave (frac = 1 recovers the upper bound, so
// Quantile(1) still dominates the max sample).
func (h *Hist) Quantile(q float64) int64 {
	total := h.n
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > target {
			lo, hi := bucketBounds(i)
			if hi == math.MaxInt64 {
				return math.MaxInt64
			}
			frac := float64(target-(cum-c)+1) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
	}
	return math.MaxInt64
}

// Summary reduces h to its headline numbers — the one reduction the
// text render, /vars and flight records all report.
func (h *Hist) Summary(name string) flight.HistSummary {
	return flight.HistSummary{
		Name:   name,
		N:      h.N(),
		MeanNS: h.Mean(),
		P50NS:  h.Quantile(0.50),
		P90NS:  h.Quantile(0.90),
		P99NS:  h.Quantile(0.99),
		MaxNS:  h.Quantile(1),
	}
}

// latShards is the number of independent accumulators per histogram.
// Power of two; 8 covers typical in-process rank counts without
// noticeable false sharing.
const latShards = 8

// latShard is one lock-free accumulator: per-bucket observation
// counts and nanosecond sums in Hist's bucket layout.
type latShard struct {
	count [numBuckets]atomic.Int64
	sum   [numBuckets]atomic.Int64
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
	b := bucket(ns)
	s := &h.shards[i]
	s.count[b].Add(1)
	s.sum[b].Add(ns)
}

// MergeInto folds the shards into dst. Concurrent Record calls may or
// may not be included; each shard bucket is read once, so counts and
// sums stay mutually consistent per bucket.
func (h *LatHist) MergeInto(dst *Hist) {
	for si := range h.shards {
		s := &h.shards[si]
		for b := 0; b < numBuckets; b++ {
			if c := s.count[b].Load(); c != 0 {
				dst.add(b, c, float64(s.sum[b].Load()))
			}
		}
	}
}

// N returns the total observation count across shards.
func (h *LatHist) N() int64 {
	var n int64
	for si := range h.shards {
		s := &h.shards[si]
		for b := 0; b < numBuckets; b++ {
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
	Hist   Hist
}

// Snapshot is a point-in-time copy of every non-empty histogram plus
// the gauges the engine attached. Snapshots are plain values: render,
// export, or diff them freely. Gauges are reported in sorted name order
// everywhere they are printed.
type Snapshot struct {
	Hists  []NamedHist
	Gauges map[string]int64
}

// Snapshot merges all shards and returns the current state. Gauges
// start empty; Photon.Metrics attaches engine gauges before returning
// the snapshot to the application.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Gauges: map[string]int64{}}
	if r == nil {
		return snap
	}
	for k := OpKind(0); k < numOps; k++ {
		for st := Stage(0); st < numStages; st++ {
			var h Hist
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
		var h Hist
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
		var h Hist
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
// metric (count, mean, p50/p90/p99/max in microseconds) followed by the
// gauge block.
func (s *Snapshot) Render() string {
	var b strings.Builder
	b.WriteString("# latency (us)\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	if len(s.Hists) == 0 {
		b.WriteString("(no observations)\n")
	} else {
		fmt.Fprintln(tw, "metric\tn\tmean\tp50\tp90\tp99\tmax")
	}
	for i := range s.Hists {
		m := s.Hists[i].Hist.Summary(s.Hists[i].Name)
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n", m.Name, m.N, m.MeanNS/1e3,
			float64(m.P50NS)/1e3, float64(m.P90NS)/1e3, float64(m.P99NS)/1e3, float64(m.MaxNS)/1e3)
	}
	tw.Flush()
	if len(s.Gauges) > 0 {
		b.WriteString("# gauges\n")
		for _, n := range sortedNames(s.Gauges) {
			fmt.Fprintf(tw, "%s\t%d\n", n, s.Gauges[n])
		}
		tw.Flush()
	}
	return b.String()
}

// sortedNames returns the gauge names in sorted order.
func sortedNames(g map[string]int64) []string {
	names := make([]string, 0, len(g))
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
	for _, n := range sortedNames(s.Gauges) {
		metric := "photon_" + promSanitize(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", metric, metric, s.Gauges[n])
	}
}

func writePromHist(b *strings.Builder, nh *NamedHist) {
	h := &nh.Hist
	var cum int64
	for bk, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := bucketBounds(bk)
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%d\"} %d\n", nh.Metric, nh.Labels, hi, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", nh.Metric, nh.Labels, h.N())
	fmt.Fprintf(b, "%s_sum{%s} %g\n", nh.Metric, nh.Labels, h.Mean()*float64(h.N()))
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
