package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (the "JSON Array Format" consumed by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name  string                 `json:"name"`
	Cat   string                 `json:"cat,omitempty"`
	Phase string                 `json:"ph"`
	TS    float64                `json:"ts"` // microseconds
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	ID    string                 `json:"id,omitempty"`
	Scope string                 `json:"s,omitempty"`
	BP    string                 `json:"bp,omitempty"` // flow binding point ("e" on finish)
	Args  map[string]interface{} `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// PeerDump is one peer's ring snapshot plus the clock offset that maps
// its local timestamps into the merged (reference) clock: OffsetNS is
// added to every nanosecond timestamp this peer recorded. Offsets come
// from heartbeat RTT estimation (Photon.PeerClockOffset) for real
// transports and are zero for co-located in-process peers that share
// one clock.
type PeerDump struct {
	Rank     int
	OffsetNS int64
	Events   []Event
}

// mergedEvent pairs an event with its owning peer, its adjusted
// (offset-corrected) absolute nanosecond timestamp and, for a link
// event, 1 + the index of the chain it resolves (0 for none).
type mergedEvent struct {
	ev    Event
	rank  int
	adjNS int64
	chain int
}

// chain is one causal path: indices into the merged event list for the
// origin post, the remote link delivery and the origin's closing
// complete/reap (-1 when not seen).
type chain struct {
	post, link, end int
}

// chainKey indexes open chains by origin rank and RID.
type chainKey struct {
	rank int
	rid  uint64
}

// WriteChromeJSONMerged renders trace events as Chrome trace-event JSON,
// to be opened in chrome://tracing or Perfetto. It takes one PeerDump
// per rank: a cluster's per-process rings with their clock offsets, or
// one shared in-process ring split on Event.Rank with every offset 0.
// Each peer renders as a process lane (pid = rank+1), every event as an
// instant, on one axis after the offset correction.
//
// Every KindPost with a non-zero Arg opens a causal chain. A remote op
// posts Arg = wire RID and Arg2 = local RID: the chain takes the
// target's first KindLink delivery with Peer = origin and the same Arg,
// then closes at the origin's first later KindComplete/KindReap whose
// Arg is the local RID. A local-only op (a get, an atomic, a put with
// no remote RID) posts Arg = Arg2 = local RID and no delivery is
// traced: its chain closes at the origin's first later complete/reap
// carrying that RID. Each chain that reached a link or a close is
// emitted as a Chrome flow (ph "s" → "t" → "f"), so an op renders as
// one causally-linked lane: post → remote apply → ack/reap.
func WriteChromeJSONMerged(w io.Writer, peers []PeerDump) error {
	var all []mergedEvent
	for _, p := range peers {
		for _, e := range p.Events {
			all = append(all, mergedEvent{ev: e, rank: p.Rank, adjNS: e.When.UnixNano() + p.OffsetNS})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].adjNS != all[j].adjNS {
			return all[i].adjNS < all[j].adjNS
		}
		if all[i].rank != all[j].rank {
			return all[i].rank < all[j].rank
		}
		return all[i].ev.Seq < all[j].ev.Seq
	})

	out := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if len(all) == 0 {
		return enc.Encode(&out)
	}
	t0 := all[0].adjNS
	ts := func(m *mergedEvent) float64 { return float64(m.adjNS-t0) / 1e3 }

	// Process-name metadata, one lane per peer, sorted by rank.
	ranks := append([]PeerDump(nil), peers...)
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].Rank < ranks[j].Rank })
	for _, p := range ranks {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   p.Rank + 1,
			Args:  map[string]interface{}{"name": fmt.Sprintf("rank %d", p.Rank)},
		})
	}

	chains := resolveChains(all)

	// Instants for every event (annotated with link context), then
	// the resolved flows in post order.
	for i := range all {
		m := &all[i]
		args := map[string]interface{}{"seq": m.ev.Seq, "arg": m.ev.Arg, "rank": m.rank}
		if m.ev.Peer >= 0 {
			args["peer"] = m.ev.Peer
		}
		if m.ev.Arg2 != 0 {
			args["arg2"] = m.ev.Arg2
		}
		if m.ev.Kind == KindLink {
			if m.chain > 0 {
				// One-way delay estimate after clock correction.
				args["wire_delay_ns"] = m.adjNS - all[chains[m.chain-1].post].adjNS
			}
			if m.ev.PeerNS != 0 {
				args["ctx_post_ns"] = m.ev.PeerNS
			}
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  m.ev.Msg,
			Cat:   m.ev.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    ts(m),
			PID:   m.rank + 1,
			TID:   int(m.ev.Kind),
			Args:  args,
		})
	}
	flows := 0
	for _, c := range chains {
		last := c.end
		if last < 0 {
			last = c.link
		}
		if last < 0 {
			continue
		}
		p := &all[c.post]
		id := fmt.Sprintf("f%d", flows)
		flows++
		args := map[string]interface{}{"origin": p.rank, "rid": p.ev.Arg}
		flow := func(m *mergedEvent, ph, bp string) {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: m.ev.Msg, Cat: "flow", Phase: ph, BP: bp, TS: ts(m),
				PID: m.rank + 1, TID: int(m.ev.Kind), ID: id, Args: args,
			})
		}
		flow(p, "s", "")
		if c.link >= 0 && c.link != last {
			flow(&all[c.link], "t", "")
		}
		flow(&all[last], "f", "e")
	}
	return enc.Encode(&out)
}

// resolveChains opens one chain per post with a non-zero Arg and
// resolves it in two passes over the time-ordered events, each open
// chain indexed by (rank, RID) so every event costs one map lookup.
// Links first: a link takes the oldest chain posted by its origin with
// its Arg, and the link event is tagged with that chain. Then closes: a
// complete/reap takes the oldest chain posted on its own rank whose
// local RID is its Arg and that is due — its link already seen, or a
// local-only chain (no link, Arg == Arg2).
func resolveChains(all []mergedEvent) []chain {
	var chains []chain
	awaitLink := make(map[chainKey][]int)
	for i := range all {
		m := &all[i]
		switch {
		case m.ev.Kind == KindPost && m.ev.Arg != 0:
			k := chainKey{m.rank, m.ev.Arg}
			awaitLink[k] = append(awaitLink[k], len(chains))
			chains = append(chains, chain{post: i, link: -1, end: -1})
		case m.ev.Kind == KindLink && m.ev.Peer >= 0:
			k := chainKey{m.ev.Peer, m.ev.Arg}
			if q := awaitLink[k]; len(q) > 0 {
				chains[q[0]].link = i
				m.chain = q[0] + 1
				awaitLink[k] = q[1:]
			}
		}
	}

	awaitEnd := make(map[chainKey][]int)
	next := 0 // chains are in post order
	for i := range all {
		m := &all[i]
		switch m.ev.Kind {
		case KindPost:
			if next == len(chains) || chains[next].post != i {
				continue
			}
			if e := &m.ev; e.Arg2 != 0 && (chains[next].link >= 0 || e.Arg == e.Arg2) {
				k := chainKey{m.rank, e.Arg2}
				awaitEnd[k] = append(awaitEnd[k], next)
			}
			next++
		case KindComplete, KindReap:
			k := chainKey{m.rank, m.ev.Arg}
			q := awaitEnd[k]
			for j, ci := range q {
				if chains[ci].link < i { // -1 for a local-only chain
					chains[ci].end = i
					awaitEnd[k] = append(q[:j], q[j+1:]...)
					break
				}
			}
		}
	}
	return chains
}
