package apps

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"photon/internal/runtime"
)

// BFSResult reports one breadth-first-search run.
type BFSResult struct {
	Vertices    int
	Edges       int64
	Visited     int64
	Depth       int
	Elapsed     time.Duration
	TEPS        float64 // traversed edges per second
	ParcelsSent int64
}

// BFSConfig parameterizes the random graph and the traversal.
type BFSConfig struct {
	// Vertices is the global vertex count (must divide evenly by the
	// rank count).
	Vertices int
	// Degree is the average out-degree of the random graph.
	Degree int
	// Seed fixes the graph.
	Seed int64
	// Root is the starting vertex.
	Root int
}

// bfsBatch caps vertices per relaxation parcel.
const bfsBatch = 64

func (c *BFSConfig) validate(ranks int) error {
	if c.Vertices <= 0 || c.Degree < 0 {
		return fmt.Errorf("apps: bad BFS geometry %+v", *c)
	}
	if c.Vertices%ranks != 0 {
		return fmt.Errorf("apps: %d vertices not divisible by %d ranks", c.Vertices, ranks)
	}
	if c.Root < 0 || c.Root >= c.Vertices {
		return fmt.Errorf("apps: root %d out of range", c.Root)
	}
	return nil
}

// GenGraph deterministically generates the adjacency lists of the whole
// random graph (Erdos-Renyi-ish with fixed per-vertex degree). Both the
// distributed run and the serial reference call it, so they agree
// exactly.
func GenGraph(vertices, degree int, seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int32, vertices)
	// One slab holds every list; each vertex's slice is capped at its
	// own degree entries, so an append to it copies out instead of
	// running into its neighbor's.
	slab := make([]int32, vertices*degree)
	for i := range slab {
		slab[i] = int32(rng.Intn(vertices))
	}
	for v := range adj {
		adj[v] = slab[v*degree : (v+1)*degree : (v+1)*degree]
	}
	return adj
}

// BFSSerial computes reference distances.
func BFSSerial(adj [][]int32, root int) []int32 {
	dist := make([]int32, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	frontier := []int32{int32(root)}
	level := int32(0)
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			for _, w := range adj[v] {
				if dist[w] == -1 {
					dist[w] = level + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
		level++
	}
	return dist
}

// bfsRankState is one rank's BFS state, mutated by the visit action.
type bfsRankState struct {
	//photon:lock bfsrank 10
	mu      sync.Mutex
	dist    []int32 // local vertices
	next    []int32 // next frontier (global IDs)
	perRank int
	rank    int
}

// RunBFSParcels runs level-synchronous BFS as a parcel-driven
// computation on the HPX-lite runtime: frontier expansion sends visit
// parcels to vertex owners; level boundaries are runtime barriers plus
// a frontier-count reduction via Call futures. Every rank's locality
// must already be started. Returns each rank's result (identical
// aggregates) plus the distance vector assembled at rank 0.
func RunBFSParcels(locs []*runtime.Locality, cfg BFSConfig) (BFSResult, []int32, error) {
	n := len(locs)
	if err := cfg.validate(n); err != nil {
		return BFSResult{}, nil, err
	}
	perRank := cfg.Vertices / n
	full := GenGraph(cfg.Vertices, cfg.Degree, cfg.Seed)
	var edges int64
	for _, a := range full {
		edges += int64(len(a))
	}

	states := make([]*bfsRankState, n)
	for r := 0; r < n; r++ {
		st := &bfsRankState{dist: make([]int32, perRank), perRank: perRank, rank: r}
		for i := range st.dist {
			st.dist[i] = -1
		}
		states[r] = st
	}

	// The visit action: payload = [level4][count4][vertexIDs...].
	for r, l := range locs {
		st := states[r]
		if _, err := l.RegisterAction(actVisit, func(ctx *runtime.Context) ([]byte, error) {
			lo := st.rank * st.perRank
			level, ids, err := decodeVisit(ctx.Payload, lo, st.perRank)
			if err != nil {
				return nil, err
			}
			st.mu.Lock()
			for i := 0; i < len(ids); i += 4 {
				v := int32(binary.LittleEndian.Uint32(ids[i:]))
				lv := int(v) - lo
				if st.dist[lv] == -1 {
					st.dist[lv] = level
					st.next = append(st.next, v)
				}
			}
			st.mu.Unlock()
			return nil, nil
		}); err != nil {
			return BFSResult{}, nil, err
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			l := locs[r]
			st := states[r]

			// Seed the root.
			var frontier []int32
			if cfg.Root/perRank == r {
				st.dist[cfg.Root%perRank] = 0
				frontier = []int32{int32(cfg.Root)}
			}
			level := int32(0)
			// Scratch reused across batches and levels: Call copies the
			// parcel body before it returns.
			buckets := make([][]int32, n)
			body := make([]byte, visitHdrLen+4*bfsBatch)
			var futs []*runtime.Future
			flush := func(owner int) error {
				b := buckets[owner]
				if len(b) == 0 {
					return nil
				}
				msg := body[:visitHdrLen+4*len(b)]
				binary.LittleEndian.PutUint32(msg[0:], uint32(level+1))
				binary.LittleEndian.PutUint32(msg[4:], uint32(len(b)))
				for i, v := range b {
					binary.LittleEndian.PutUint32(msg[visitHdrLen+i*4:], uint32(v))
				}
				f, err := l.Call(owner, visitID, msg)
				if err != nil {
					return err
				}
				futs = append(futs, f)
				buckets[owner] = b[:0]
				return nil
			}
			for {
				// Expand: bucket neighbors by owner, flush batches
				// with Call so we know they executed before the
				// barrier.
				futs = futs[:0]
				for _, v := range frontier {
					for _, w := range full[v] {
						owner := int(w) / perRank
						buckets[owner] = append(buckets[owner], w)
						if len(buckets[owner]) >= bfsBatch {
							if err := flush(owner); err != nil {
								errs[r] = err
								return
							}
						}
					}
				}
				for owner := range buckets {
					if err := flush(owner); err != nil {
						errs[r] = err
						return
					}
				}
				for _, f := range futs {
					if _, err := f.Wait(bfsWait); err != nil {
						errs[r] = err
						return
					}
				}
				if err := l.Barrier(); err != nil {
					errs[r] = err
					return
				}
				// Collect the next local frontier and agree on the
				// global size.
				st.mu.Lock()
				frontier = st.next
				st.next = nil
				st.mu.Unlock()
				total, err := allreduceCount(l, len(frontier))
				if err != nil {
					errs[r] = err
					return
				}
				if total == 0 {
					return
				}
				level++
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return BFSResult{}, nil, err
		}
	}

	// Assemble distances and aggregates.
	dist := make([]int32, cfg.Vertices)
	var visited int64
	depth := int32(0)
	for r := 0; r < n; r++ {
		states[r].mu.Lock()
		copy(dist[r*perRank:], states[r].dist)
		states[r].mu.Unlock()
	}
	var traversed int64
	for v, d := range dist {
		if d >= 0 {
			visited++
			traversed += int64(len(full[v]))
			if d > depth {
				depth = d
			}
		}
	}
	var sent int64
	for _, l := range locs {
		sent += l.Counters().ParcelsSent
	}
	teps := 0.0
	if elapsed > 0 {
		teps = float64(traversed) / elapsed.Seconds()
	}
	return BFSResult{
		Vertices:    cfg.Vertices,
		Edges:       edges,
		Visited:     visited,
		Depth:       int(depth),
		Elapsed:     elapsed,
		TEPS:        teps,
		ParcelsSent: sent,
	}, dist, nil
}

// allreduceCount sums a per-rank count across the job using the
// runtime's call machinery (a tiny tree would be overkill at these rank
// counts; rank 0 accumulates and broadcasts through the barrier-style
// blocking handler registered lazily below).
func allreduceCount(l *runtime.Locality, count int) (int, error) {
	var body [sumLen]byte
	binary.LittleEndian.PutUint64(body[:], uint64(count))
	f, err := l.Call(0, sumID, body[:])
	if err != nil {
		return 0, err
	}
	out, err := f.Wait(bfsWait)
	if err != nil {
		return 0, err
	}
	if len(out) < sumLen {
		return 0, fmt.Errorf("apps: short sum reply")
	}
	return int(binary.LittleEndian.Uint64(out)), nil
}

// bfsWait bounds each wait of a traversal.
const bfsWait = 30 * time.Second

// Parcel body lengths shared by the encoders and the short-body checks.
const (
	visitHdrLen = 4 + 4 // level4 | count4; count vertex IDs follow
	sumLen      = 8     // count8, in the request and in the reply
)

// decodeVisit parses a visit parcel body, level4 | count4 | count
// vertex IDs of 4 bytes each, at the rank owning global vertices
// [lo, lo+perRank). It returns the level and the encoded IDs, and
// rejects a body whose length does not match its count and any vertex
// outside that range, so the handler can index its local state by
// every ID it is given.
func decodeVisit(p []byte, lo, perRank int) (level int32, ids []byte, err error) {
	if len(p) < visitHdrLen {
		return 0, nil, fmt.Errorf("apps: visit parcel of %d bytes, header is %d", len(p), visitHdrLen)
	}
	count := binary.LittleEndian.Uint32(p[4:])
	ids = p[visitHdrLen:]
	if uint64(len(ids)) != 4*uint64(count) {
		return 0, nil, fmt.Errorf("apps: visit parcel carries %d bytes of vertices, count %d", len(ids), count)
	}
	for i := 0; i < len(ids); i += 4 {
		if v := int(binary.LittleEndian.Uint32(ids[i:])); v < lo || v >= lo+perRank {
			return 0, nil, fmt.Errorf("apps: visit of vertex %d, this rank owns [%d, %d)", v, lo, lo+perRank)
		}
	}
	return int32(binary.LittleEndian.Uint32(p)), ids, nil
}

// The BFS actions and their IDs, hashed once.
const (
	actVisit = "bfs_visit"
	actSum   = "bfs_sum"
)

var (
	visitID = runtime.ActionIDFor(actVisit)
	sumID   = runtime.ActionIDFor(actSum)
)

// sumState implements a reusable blocking sum-reduction at rank 0.
// Generations are implicit in arrival order: every rank calls exactly
// once per level and cannot start the next level until the current sum
// resolves, so arrivals pair up by count.
type sumState struct {
	//photon:lock bfssum 20
	mu       sync.Mutex
	arrivals int
	cur      *sumGen
}

type sumGen struct {
	total uint64
	done  chan struct{}
}

// RegisterBFSActions installs the reduction action; RunBFSParcels
// requires it to have been registered on every locality before Start.
func RegisterBFSActions(l *runtime.Locality) error {
	st := &sumState{}
	size := l.Size()
	_, err := l.RegisterAction(actSum, func(ctx *runtime.Context) ([]byte, error) {
		if len(ctx.Payload) < sumLen {
			return nil, fmt.Errorf("apps: short sum parcel")
		}
		v := binary.LittleEndian.Uint64(ctx.Payload)
		st.mu.Lock()
		if st.cur == nil {
			st.cur = &sumGen{done: make(chan struct{})}
		}
		g := st.cur
		g.total += v
		st.arrivals++
		if st.arrivals == size {
			st.arrivals = 0
			st.cur = nil
			close(g.done)
		}
		st.mu.Unlock()
		// Bounded like every other wait of the traversal: a rank that
		// failed never arrives, and a handler that waits forever would
		// hold up Locality.Shutdown.
		t := time.NewTimer(bfsWait)
		defer t.Stop()
		select {
		case <-g.done:
		case <-t.C:
			return nil, fmt.Errorf("apps: bfs sum: %w", runtime.ErrTimeout)
		}
		out := make([]byte, sumLen)
		binary.LittleEndian.PutUint64(out, g.total)
		return out, nil
	})
	return err
}
