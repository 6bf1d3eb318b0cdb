package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"

	"photon/internal/flight"
	"photon/internal/trace"
)

// Server is the optional debug HTTP endpoint: Prometheus text at
// /metrics, a JSON snapshot at /vars, a bucket-level JSON snapshot at
// /snapshot (the collector's scrape target), Go runtime expvars at
// /debug/vars, a Chrome trace-event dump at /trace, and — once
// SetCollector arms it — the cluster-wide aggregation at /cluster. It
// is meant for benchmark and example binaries behind a -debug flag,
// not for production exposure.
type Server struct {
	ln        net.Listener
	srv       *http.Server
	collector atomic.Pointer[Collector]
}

// SetCollector arms the /cluster endpoint: each request runs one
// Collect round over the collector's peer sources and renders the
// result (text, or JSON with ?format=json).
func (s *Server) SetCollector(c *Collector) { s.collector.Store(c) }

// Serve binds addr (e.g. "127.0.0.1:0") and serves the debug plane in
// a background goroutine. snap is called per request and must be safe
// for concurrent use; rings maps a label (usually "rank0") to a trace
// ring whose merged snapshot backs /trace. Either may be nil/empty.
func Serve(addr string, snap func() *Snapshot, rings map[string]*trace.Ring) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "photon debug endpoint")
		fmt.Fprintln(w, "  /metrics     Prometheus text exposition")
		fmt.Fprintln(w, "  /vars        metrics snapshot as JSON")
		fmt.Fprintln(w, "  /snapshot    bucket-level JSON snapshot (collector scrape target)")
		fmt.Fprintln(w, "  /cluster     cluster-wide aggregation (when a collector is armed)")
		fmt.Fprintln(w, "  /debug/vars  Go runtime expvars")
		fmt.Fprintln(w, "  /trace       Chrome trace-event JSON (open in Perfetto)")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if snap != nil {
			snap().WritePrometheus(&b)
		}
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := map[string]interface{}{}
		if snap != nil {
			s := snap()
			hists := map[string]flight.HistSummary{}
			for i := range s.Hists {
				hists[s.Hists[i].Name] = s.Hists[i].Hist.Summary(s.Hists[i].Name)
			}
			out["hists"] = hists
			out["gauges"] = s.Gauges
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(out)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ws := &WireSnapshot{Gauges: map[string]int64{}}
		if snap != nil {
			ws = snap().Wire()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(ws)
	})
	s := &Server{ln: ln}
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		c := s.collector.Load()
		if c == nil {
			http.Error(w, "no collector armed (Server.SetCollector)", http.StatusNotFound)
			return
		}
		cs := c.Collect()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			cs.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, cs.Render())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var evs []trace.Event
		for _, ring := range rings {
			if ring != nil {
				evs = append(evs, ring.Snapshot()...)
			}
		}
		trace.WriteChromeJSONMerged(w, peerDumps(evs))
	})
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// peerDumps splits in-process trace events into one dump per rank for
// the merged exporter. The ranks share this process's clock, so every
// offset is 0.
func peerDumps(evs []trace.Event) []trace.PeerDump {
	var dumps []trace.PeerDump
	at := make(map[int]int)
	for _, e := range evs {
		i, ok := at[e.Rank]
		if !ok {
			i = len(dumps)
			at[e.Rank] = i
			dumps = append(dumps, trace.PeerDump{Rank: e.Rank})
		}
		dumps[i].Events = append(dumps[i].Events, e)
	}
	return dumps
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
