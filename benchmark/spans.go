package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The benchmark's own span recorder. A traced repetition wraps every
// call the harness makes into the product in a span: name, start, end,
// the op span that caused it, and the op id. Spans stay in memory and
// are written out when the run ends. The product is not instrumented —
// spans inside the program are a later change — so a span's duration is
// the time the caller spent inside that exported function.

// span names double as the classes the per-layer span metrics are
// computed over.
const (
	spanOp = "op" // one workload op; parent of the call spans below

	spanPut      = "core.PutBlocking"
	spanSend     = "core.SendBlocking"
	spanGet      = "core.GetWithCompletion"
	spanFetchAdd = "core.FetchAdd"

	spanWaitRemote = "core.WaitRemote"
	spanWaitLocal  = "core.WaitLocal"
	spanPopRemote  = "core.PopRemote"
	spanPopLocal   = "core.PopLocal"
	spanProgress   = "core.Progress"

	spanAllreduce16  = "collectives.AllreduceInPlace/16"
	spanAllreduce64K = "collectives.AllreduceInPlace/8192"
	spanBarrier      = "collectives.Barrier"

	spanStencil = "apps.RunStencilPhoton"
	spanBFS     = "apps.RunBFSParcels"
)

type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Op     int64  `json:"op"`     // op id shared by an op span and its children
	Parent int32  `json:"parent"` // index of the op span in this rank's list, -1 for op spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one rank's goroutine; it is not shared, so
// recording takes no lock. A nil tracer records nothing: untraced
// repetitions pass nil and pay one predictable branch per call.
type tracer struct {
	rank  int
	epoch time.Time
	spans []span
	cur   int32 // open op span, -1 outside any op
	curOp int64
}

// op opens the span of workload op id and returns its index.
func (t *tracer) op(id int64) int32 {
	if t == nil {
		return -1
	}
	t.curOp = id
	t.spans = append(t.spans, span{Name: spanOp, Rank: t.rank, Op: id, Parent: -1, Start: int64(time.Since(t.epoch))})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

// begin opens a call span under the current op.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Rank: t.rank, Op: t.curOp, Parent: t.cur, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span i; closing an op span leaves the tracer outside any op.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	if i == t.cur {
		t.cur = -1
	}
}

// tracerSet is the tracers of one traced repetition, one per rank.
type tracerSet struct {
	ranks []*tracer
}

func newTracerSet(n int) *tracerSet {
	ts := &tracerSet{ranks: make([]*tracer, n)}
	epoch := time.Now()
	for r := range ts.ranks {
		ts.ranks[r] = &tracer{rank: r, epoch: epoch, cur: -1}
	}
	return ts
}

// rank returns rank r's tracer, nil (recording nothing) for a nil set.
func (ts *tracerSet) rank(r int) *tracer {
	if ts == nil {
		return nil
	}
	return ts.ranks[r]
}

// spanMetrics reduces a traced repetition to time-in-call per op: for
// every op span, the durations of its child spans are summed per class,
// and the median over the ops that have a child of the class is
// reported. A class no op of this workload touched is absent.
func (ts *tracerSet) spanMetrics() map[string]float64 {
	classes := map[string]string{
		spanPut: "core.post_us_p50", spanSend: "core.post_us_p50",
		spanGet: "core.post_us_p50", spanFetchAdd: "core.post_us_p50",
		spanWaitRemote: "core.wait_us_p50", spanWaitLocal: "core.wait_us_p50",
		spanPopRemote: "core.wait_us_p50", spanPopLocal: "core.wait_us_p50",
		spanProgress:     "core.progress_us_p50",
		spanAllreduce16:  "collectives.allreduce16_us_p50",
		spanAllreduce64K: "collectives.allreduce64K_us_p50",
		spanBarrier:      "collectives.barrier_us_p50",
		spanStencil:      "apps.stencil.call_us_p50",
		spanBFS:          "apps.bfs.call_us_p50",
	}
	perClass := map[string][]int64{}
	for _, t := range ts.ranks {
		sums := map[string]map[int32]int64{} // metric -> op span index -> ns
		for _, s := range t.spans {
			m, ok := classes[s.Name]
			if !ok || s.Parent < 0 {
				continue
			}
			if sums[m] == nil {
				sums[m] = map[int32]int64{}
			}
			sums[m][s.Parent] += s.End - s.Start
		}
		for m, byOp := range sums {
			for _, ns := range byOp {
				perClass[m] = append(perClass[m], ns)
			}
		}
	}
	out := map[string]float64{}
	for m, v := range perClass {
		out[m] = float64(percentile(sortedCopy(v), 50)) / 1e3
	}
	return out
}

// traceFileSpanCap bounds the spans written per rank: a quarter-length
// ping-pong repetition records several hundred thousand, and the file
// is for reading a few ops, not for statistics (those use every span).
const traceFileSpanCap = 20000

// write stores the spans as JSON under dir/trace-<workload>.json.
func (ts *tracerSet) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type file struct {
		Workload   string `json:"workload"`
		TotalSpans int    `json:"total_spans"`
		Truncated  bool   `json:"truncated"`
		Spans      []span `json:"spans"`
	}
	f := file{Workload: workload}
	for _, t := range ts.ranks {
		f.TotalSpans += len(t.spans)
		keep := t.spans
		if len(keep) > traceFileSpanCap {
			keep = keep[:traceFileSpanCap]
			f.Truncated = true
		}
		f.Spans = append(f.Spans, keep...)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
