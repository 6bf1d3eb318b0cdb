// Package flight is Photon's fault flight recorder: a bounded
// in-memory black box that captures the engine's state at the moment
// the fault plane sees a peer degrade. Each record snapshots the tail
// of the trace ring (the last W op-lifecycle events — what the engine
// was doing), the metrics registry (latency summaries and gauges —
// how it was doing), and the per-peer health table (who else was
// degraded). Records accumulate FIFO up to a cap, so the black box
// after an incident holds the first transitions, not just the last.
//
// Recording runs on the fault plane — peer-health transitions are
// rare, cold events — so snapshots may allocate freely; nothing here
// is ever on an op hot path. The recorder itself is a plain
// mutex-guarded ring, safe for concurrent Add and Snapshot callers.
package flight

import (
	"encoding/json"
	"io"
	"sync"

	"photon/internal/trace"
)

// HistSummary is one latency histogram reduced to its headline
// numbers (full bucket data stays with the metrics plane; the black
// box wants a compact, human-readable residue).
type HistSummary struct {
	Name   string  `json:"name"`
	N      int64   `json:"n"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P90NS  int64   `json:"p90_ns"`
	P99NS  int64   `json:"p99_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// PeerHealthInfo is one row of the health table at snapshot time.
type PeerHealthInfo struct {
	Rank             int    `json:"rank"`
	State            string `json:"state"`
	LastTransitionNS int64  `json:"last_transition_ns,omitempty"` // UnixNano; 0 = never
}

// Record is one flight-recorder entry: the engine state captured at a
// single peer-health transition.
type Record struct {
	Seq    uint64 `json:"seq"`
	WhenNS int64  `json:"when_ns"` // wall clock UnixNano at capture
	Rank   int    `json:"rank"`    // observing rank
	Peer   int    `json:"peer"`    // peer that transitioned
	From   string `json:"from"`
	To     string `json:"to"`
	Reason string `json:"reason,omitempty"` // non-health trigger (e.g. collective abort)

	Events []trace.Event    `json:"-"` // last-W trace events (JSON via eventJSON)
	Gauges map[string]int64 `json:"gauges,omitempty"`
	Hists  []HistSummary    `json:"hists,omitempty"`
	Health []PeerHealthInfo `json:"health,omitempty"`
}

// Recorder is the bounded black box. The zero value is unusable; use
// NewRecorder.
type Recorder struct {
	//photon:lock flight 10
	mu     sync.Mutex
	recs   []Record
	max    int
	window int
	seq    uint64
	hook   func(Record)
}

// NewRecorder builds a recorder holding up to maxRecords records, each
// retaining up to window trace events.
func NewRecorder(maxRecords, window int) *Recorder {
	if maxRecords < 1 {
		maxRecords = 1
	}
	if window < 0 {
		window = 0
	}
	return &Recorder{max: maxRecords, window: window}
}

// SetHook installs fn to run (on the recording goroutine) after every
// Add — the chaos harness hangs its auto-dump here. Pass nil to clear.
func (r *Recorder) SetHook(fn func(Record)) {
	r.mu.Lock()
	r.hook = fn
	r.mu.Unlock()
}

// Add appends one record, trimming its event list to the window,
// assigning its sequence number, and evicting the oldest record past
// the cap. The installed hook, if any, runs before Add returns.
func (r *Recorder) Add(rec Record) {
	if len(rec.Events) > r.window {
		rec.Events = rec.Events[len(rec.Events)-r.window:]
	}
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	r.recs = append(r.recs, rec)
	if len(r.recs) > r.max {
		// Shift rather than reslice so evicted records are released.
		copy(r.recs, r.recs[len(r.recs)-r.max:])
		r.recs = r.recs[:r.max]
	}
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		hook(rec)
	}
}

// Records returns a copy of the stored records, oldest first.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.recs...)
}

// eventJSON is the readable JSON form of one trace event.
type eventJSON struct {
	Seq    uint64 `json:"seq"`
	TNS    int64  `json:"t_ns"` // UnixNano
	Kind   string `json:"kind"`
	Rank   int    `json:"rank"`
	Peer   int    `json:"peer,omitempty"`
	Arg    uint64 `json:"arg"`
	Arg2   uint64 `json:"arg2,omitempty"`
	PeerNS int64  `json:"peer_ns,omitempty"`
	Msg    string `json:"msg"`
}

// recordJSON wraps Record with the converted event list.
type recordJSON struct {
	Record
	Events []eventJSON `json:"events"`
}

// WriteJSON dumps every stored record as indented JSON, oldest first,
// with trace events converted to a readable form (kind names, UnixNano
// timestamps).
func (r *Recorder) WriteJSON(w io.Writer) error {
	recs := r.Records()
	out := struct {
		Records []recordJSON `json:"records"`
	}{Records: make([]recordJSON, 0, len(recs))}
	for i := range recs {
		rj := recordJSON{Record: recs[i]}
		for _, ev := range recs[i].Events {
			rj.Events = append(rj.Events, eventJSON{
				Seq:    ev.Seq,
				TNS:    ev.When.UnixNano(),
				Kind:   ev.Kind.String(),
				Rank:   ev.Rank,
				Peer:   ev.Peer,
				Arg:    ev.Arg,
				Arg2:   ev.Arg2,
				PeerNS: ev.PeerNS,
				Msg:    ev.Msg,
			})
		}
		out.Records = append(out.Records, rj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
