package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// This file is the cluster half of the metrics plane: a Collector
// pulls every peer's registry snapshot — over the debug HTTP endpoint
// for remote processes, through an in-process function for co-located
// ranks — and folds them into one ClusterSnapshot. Histograms merge
// exactly: the wire format carries per-bucket counts and nanosecond
// sums, so the cluster-level mean and quantiles are computed from the
// union of observations, not from averaged summaries. Collection is
// strictly off the op hot path (it runs on the caller's goroutine and
// whatever HTTP handlers the peers already serve).

// WireBucket is one non-empty histogram bucket on the wire.
type WireBucket struct {
	B   int     `json:"b"`   // bucket index (Hist's log-linear layout)
	N   int64   `json:"n"`   // observation count
	Sum float64 `json:"sum"` // nanosecond sum
}

// WireHist is the bucket-level JSON form of one named histogram.
type WireHist struct {
	Name    string       `json:"name"`
	Metric  string       `json:"metric"`
	Labels  string       `json:"labels"`
	Buckets []WireBucket `json:"buckets"`
}

// WireSnapshot is the bucket-level JSON form of a Snapshot, served at
// /snapshot and consumed by Collector. Unlike /vars it preserves full
// bucket resolution, which is what makes cross-peer merges exact.
type WireSnapshot struct {
	Hists  []WireHist       `json:"hists"`
	Gauges map[string]int64 `json:"gauges"`
}

// Wire converts a snapshot to its bucket-level wire form.
func (s *Snapshot) Wire() *WireSnapshot {
	w := &WireSnapshot{Gauges: s.Gauges}
	for i := range s.Hists {
		nh := &s.Hists[i]
		wh := WireHist{Name: nh.Name, Metric: nh.Metric, Labels: nh.Labels}
		for b, c := range nh.Hist.counts {
			if c != 0 {
				wh.Buckets = append(wh.Buckets, WireBucket{B: b, N: c, Sum: nh.Hist.sums[b]})
			}
		}
		w.Hists = append(w.Hists, wh)
	}
	return w
}

// Snapshot converts a wire snapshot back into the in-memory form.
// Bucket data goes through Hist.add, so out-of-range indices and
// non-positive counts from a remote peer are clamped or dropped.
func (w *WireSnapshot) Snapshot() *Snapshot {
	s := &Snapshot{Gauges: w.Gauges}
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	for i := range w.Hists {
		wh := &w.Hists[i]
		nh := NamedHist{Name: wh.Name, Metric: wh.Metric, Labels: wh.Labels}
		for _, bk := range wh.Buckets {
			nh.Hist.add(bk.B, bk.N, bk.Sum)
		}
		s.Hists = append(s.Hists, nh)
	}
	return s
}

// PeerSource describes where one peer's snapshot comes from: an
// in-process Snap function (co-located ranks — the shm cluster, or the
// local rank itself) or the base URL of the peer's debug endpoint
// (remote processes; the collector GETs URL+"/snapshot"). Snap wins
// when both are set.
type PeerSource struct {
	Rank int
	URL  string
	Snap func() *Snapshot
}

// PeerMetrics is one peer's scrape result.
type PeerMetrics struct {
	Rank int
	Snap *Snapshot // nil when the scrape failed
	Err  error
}

// PeerQuantile ranks one peer by a histogram quantile (TopK output).
type PeerQuantile struct {
	Rank       int
	N          int64
	QuantileNS int64
}

// ClusterSnapshot is one collection round: every peer's snapshot plus
// the exact cross-peer merge.
type ClusterSnapshot struct {
	Peers  []PeerMetrics
	Merged *Snapshot // histograms merged bucket-exact; gauges summed
}

// Collector pulls peer snapshots and aggregates them.
type Collector struct {
	sources []PeerSource
	client  *http.Client
}

// NewCollector builds a collector over the given peer sources.
func NewCollector(sources []PeerSource) *Collector {
	return &Collector{
		sources: append([]PeerSource(nil), sources...),
		client:  &http.Client{Timeout: 5 * time.Second},
	}
}

// Collect scrapes every source in parallel and merges the results.
// Unreachable peers appear in Peers with Err set and are excluded from
// the merge; Collect itself never fails.
func (c *Collector) Collect() *ClusterSnapshot {
	peers := make([]PeerMetrics, len(c.sources))
	var wg sync.WaitGroup
	for i := range c.sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			peers[i] = c.scrape(&c.sources[i])
		}(i)
	}
	wg.Wait()
	cs := &ClusterSnapshot{Peers: peers}
	cs.merge()
	return cs
}

func (c *Collector) scrape(src *PeerSource) PeerMetrics {
	pm := PeerMetrics{Rank: src.Rank}
	if src.Snap != nil {
		pm.Snap = src.Snap()
		return pm
	}
	if src.URL == "" {
		pm.Err = fmt.Errorf("metrics: peer %d has no source", src.Rank)
		return pm
	}
	resp, err := c.client.Get(strings.TrimRight(src.URL, "/") + "/snapshot")
	if err != nil {
		pm.Err = err
		return pm
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		pm.Err = fmt.Errorf("metrics: peer %d: HTTP %d", src.Rank, resp.StatusCode)
		return pm
	}
	var w WireSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
		pm.Err = fmt.Errorf("metrics: peer %d: %w", src.Rank, err)
		return pm
	}
	pm.Snap = w.Snapshot()
	return pm
}

// merge folds every reachable peer into Merged: histograms accumulate
// bucket-by-bucket (counts and sums, so cluster means are exact) and
// gauges sum across peers. Per-peer gauge values stay available in
// Peers for tables that need them unsummed.
func (cs *ClusterSnapshot) merge() {
	merged := &Snapshot{Gauges: map[string]int64{}}
	idx := map[string]int{}
	for _, pm := range cs.Peers {
		if pm.Snap == nil {
			continue
		}
		for i := range pm.Snap.Hists {
			src := &pm.Snap.Hists[i]
			j, ok := idx[src.Name]
			if !ok {
				j = len(merged.Hists)
				idx[src.Name] = j
				merged.Hists = append(merged.Hists, NamedHist{
					Name: src.Name, Metric: src.Metric, Labels: src.Labels,
				})
			}
			merged.Hists[j].Hist.Merge(&src.Hist)
		}
		for n, v := range pm.Snap.Gauges {
			merged.Gauges[n] += v
		}
	}
	cs.Merged = merged
}

// TopK ranks the reachable peers by quantile q of the named histogram,
// slowest first, returning at most k entries. Peers without the
// histogram are skipped.
func (cs *ClusterSnapshot) TopK(hist string, q float64, k int) []PeerQuantile {
	var out []PeerQuantile
	for _, pm := range cs.Peers {
		if pm.Snap == nil {
			continue
		}
		for i := range pm.Snap.Hists {
			if nh := &pm.Snap.Hists[i]; nh.Name == hist {
				out = append(out, PeerQuantile{
					Rank:       pm.Rank,
					N:          nh.Hist.N(),
					QuantileNS: nh.Hist.Quantile(q),
				})
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].QuantileNS != out[j].QuantileNS {
			return out[i].QuantileNS > out[j].QuantileNS
		}
		return out[i].Rank < out[j].Rank
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Render prints the cluster snapshot: a reachability line, the merged
// latency/gauge block, a per-peer gauge table for a few headline
// gauges, and the slowest-peer ranking for every op histogram present.
func (cs *ClusterSnapshot) Render() string {
	var b strings.Builder
	up := 0
	for _, pm := range cs.Peers {
		if pm.Snap != nil {
			up++
		}
	}
	fmt.Fprintf(&b, "# cluster: %d/%d peers reachable\n", up, len(cs.Peers))
	for _, pm := range cs.Peers {
		if pm.Err != nil {
			fmt.Fprintf(&b, "  peer %d unreachable: %v\n", pm.Rank, pm.Err)
		}
	}
	if cs.Merged != nil {
		b.WriteString(cs.Merged.Render())
	}
	// Slowest-peer ranking per op histogram, p99.
	seen := map[string]bool{}
	for _, pm := range cs.Peers {
		if pm.Snap == nil {
			continue
		}
		for i := range pm.Snap.Hists {
			name := pm.Snap.Hists[i].Name
			if seen[name] || !strings.Contains(name, "/") || strings.HasPrefix(name, "progress/") {
				continue
			}
			seen[name] = true
			fmt.Fprintf(&b, "# slowest peers: %s p99 (us)\n", name)
			tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
			fmt.Fprintln(tw, "rank\tn\tp99")
			for _, pq := range cs.TopK(name, 0.99, 3) {
				fmt.Fprintf(tw, "%d\t%d\t%.3f\n", pq.Rank, pq.N, float64(pq.QuantileNS)/1e3)
			}
			tw.Flush()
		}
	}
	return b.String()
}

// WriteJSON emits the cluster snapshot — per-peer wire snapshots plus
// the merge — as indented JSON.
func (cs *ClusterSnapshot) WriteJSON(w io.Writer) error {
	type peerJSON struct {
		Rank int           `json:"rank"`
		Err  string        `json:"err,omitempty"`
		Snap *WireSnapshot `json:"snap,omitempty"`
	}
	out := struct {
		Peers  []peerJSON    `json:"peers"`
		Merged *WireSnapshot `json:"merged"`
	}{}
	for _, pm := range cs.Peers {
		pj := peerJSON{Rank: pm.Rank}
		if pm.Err != nil {
			pj.Err = pm.Err.Error()
		}
		if pm.Snap != nil {
			pj.Snap = pm.Snap.Wire()
		}
		out.Peers = append(out.Peers, pj)
	}
	if cs.Merged != nil {
		out.Merged = cs.Merged.Wire()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
