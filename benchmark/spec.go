package main

// The benchmark's definition as data: the end-to-end metrics with their
// bounds, and every per-layer metric with its unit, its source and the
// end-to-end metric it should move. BENCHMARK.json (the driver's file)
// holds the names, units, directions and bounds and nothing else — its
// schema has no room for the rest — and TestSpecMatchesBenchmarkJSON
// keeps the two in step. benchmark/README.md carries the prose.

const (
	lower  = "lower"
	higher = "higher"
)

type e2eMetric struct {
	name   string
	unit   string
	better string
	// bound is the share of the reference median by which the metric may
	// get worse before a change counts as a regression.
	bound float64
	// median: the run reports the median of its repetitions (set-up
	// metrics); otherwise the mean of the three best. See Summary.
	median bool
	def    string
}

// endToEnd lists the metrics every workload reports on an untraced run.
// fail_ratio is the ninth: the driver's schema carries it as the
// attempted/failed fields of the result line (a metric that is always 0
// has no spread to bound), so it is reported and compared by this
// program but is not an entry of BENCHMARK.json's end_to_end list.
var endToEnd = []e2eMetric{
	{"setup_s", "s", lower, 0.25, true, "set-up clock start to first timed op: boot, core.Init on every rank, buffer registration and exchange, Comm/Locality construction, fixed warm-up"},
	{"setup_live_MiB", "MiB", lower, 0.10, true, "HeapInuse after a forced GC at the end of set-up"},
	{"lat_p50_us", "us", lower, 0.25, false, "median per-op latency from per-op timestamps"},
	{"lat_tail_us", "us", lower, 0.25, false, "tail per-op latency: p99 where the run has at least 1000 samples, else the highest percentile with ten samples beyond it"},
	{"ops_per_s", "1/s", higher, 0.25, false, "completed, verified ops per second of the timed phase (bfs_parcels: TEPS)"},
	{"goodput_MiB_s", "MiB/s", higher, 0.25, false, "verified payload bytes delivered per second; headers, ledger entries, credits, acks and retransmits excluded"},
	{"cpu_us_per_op", "us", lower, 0.25, false, "process user+system CPU over the timed phase per op"},
	{"allocs_per_op_plus1", "count", lower, 0.02, false, "1 + heap allocations (MemStats.Mallocs delta) over the timed phase per op; the offset keeps an allocation-free path measurable as a ratio, where the bound then reads +0.02 allocations per op"},
}

const failRatio = "fail_ratio" // ops that errored, timed out or failed verification / ops attempted; any rise is a regression

func e2eByName(name string) *e2eMetric {
	for i := range endToEnd {
		if endToEnd[i].name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

// Sources of a per-layer metric.
const (
	srcLadder = "ladder" // the same quantity driven through each layer's own API
	srcCount  = "count"  // exported counter delta over a timed phase, per op
	srcSpan   = "span"   // time inside a product call, from a traced repetition
)

type layerMetric struct {
	name   string
	unit   string
	better string
	source string
	// exact marks counts fixed by the protocol and the op sequence alone;
	// the others (progress calls, wakes, flushes) depend on scheduling.
	exact bool
	// moves is the prediction a later claim is checked against.
	moves string
}

const (
	movesPerMsg = "lat_p50_us on put8_pingpong, then allreduce_step, stencil_halo and ops_per_s on bfs_parcels; not goodput_MiB_s on put64k_stream"
	movesBytes  = "goodput_MiB_s on put64k_stream and rma_mix_shm, the 64 KiB leg of allreduce_step; not lat_p50_us on put8_pingpong"
	movesRate   = "ops_per_s and cpu_us_per_op on send8_rate_tcp; not put8_pingpong (depth 1: nothing to batch)"
	movesShm    = "ops_per_s and lat_tail_us on rma_mix_shm; not the vsim workloads"
	movesColl   = "lat_p50_us and lat_tail_us on allreduce_step; not put8_pingpong"
	movesRT     = "ops_per_s on bfs_parcels; not stencil_halo (no runtime)"
	movesSten   = "lat_p50_us on stencil_halo; nothing else"
	movesAlloc  = "allocs_per_op on every workload, then lat_tail_us through GC"
	movesNone   = "comparator or observer cost; moves no workload by itself"
)

var perLayer = []layerMetric{
	// Ladder: post a signaled write, see its completion at the initiator.
	{"fabric.wr_rtt_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"fabric.wr_rtt_64K_us", "us", lower, srcLadder, false, movesBytes},
	{"nicsim.wr_rtt_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"nicsim.wr_rtt_64K_us", "us", lower, srcLadder, false, movesBytes},
	{"backend.vsim.wr_rtt_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"backend.vsim.wr_rtt_64K_us", "us", lower, srcLadder, false, movesBytes},
	{"backend.tcp.wr_rtt_8B_us", "us", lower, srcLadder, false, movesRate},
	{"backend.tcp.wr_rtt_64K_us", "us", lower, srcLadder, false, movesRate},
	{"backend.shm.wr_rtt_8B_us", "us", lower, srcLadder, false, movesShm},
	{"backend.shm.wr_rtt_64K_us", "us", lower, srcLadder, false, movesShm},
	{"core.wr_rtt_vsim_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"core.wr_rtt_vsim_64K_us", "us", lower, srcLadder, false, movesBytes},
	{"core.wr_rtt_tcp_8B_us", "us", lower, srcLadder, false, movesRate},
	{"core.wr_rtt_shm_8B_us", "us", lower, srcLadder, false, movesShm},
	// Self time: rung minus the rung below.
	{"nicsim.self_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"nicsim.self_64K_us", "us", lower, srcLadder, false, movesBytes},
	{"backend.vsim.self_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"backend.vsim.self_64K_us", "us", lower, srcLadder, false, movesBytes},
	{"backend.tcp.self_8B_us", "us", lower, srcLadder, false, movesRate},
	{"backend.shm.self_8B_us", "us", lower, srcLadder, false, movesShm},
	{"core.self_vsim_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"core.self_vsim_64K_us", "us", lower, srcLadder, false, movesBytes},
	{"core.self_tcp_8B_us", "us", lower, srcLadder, false, movesRate},
	{"core.self_shm_8B_us", "us", lower, srcLadder, false, movesShm},
	// In-memory rungs.
	{"ledger.cycle_ns", "ns", lower, srcLadder, false, movesPerMsg},
	{"mem.bufpool_getput_ns", "ns", lower, srcLadder, false, movesBytes},
	{"mem.slab_allocfree_ns", "ns", lower, srcLadder, false, movesBytes},
	// Remote-notification rungs on core.
	{"core.pwc_oneway_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"core.send_oneway_8B_us", "us", lower, srcLadder, false, movesPerMsg},
	{"core.send_oneway_32K_us", "us", lower, srcLadder, false, movesShm},
	{"core.get_rtt_8B_us", "us", lower, srcLadder, false, movesShm},
	{"core.fadd_rtt_us", "us", lower, srcLadder, false, movesShm},
	{"core.progress_idle_ns", "ns", lower, srcLadder, false, movesPerMsg},
	// Upper rungs.
	{"collectives.barrier_p50_us", "us", lower, srcLadder, false, movesColl},
	{"collectives.allreduce16_p50_us", "us", lower, srcLadder, false, movesColl},
	{"collectives.allreduce64K_p50_us", "us", lower, srcLadder, false, movesColl},
	{"runtime.apply_oneway_us", "us", lower, srcLadder, false, movesRT},
	{"runtime.call_rtt_us", "us", lower, srcLadder, false, movesRT},
	{"runtime.self_apply_us", "us", lower, srcLadder, false, movesRT},
	{"runtime.gas_get_rtt_us", "us", lower, srcLadder, false, movesRT},
	{"runtime.apply_us_p50", "us", lower, srcLadder, false, movesRT},
	{"runtime.future_wait_us_p50", "us", lower, srcLadder, false, movesRT},
	// Comparators.
	{"msg.sendrecv_oneway_8B_us", "us", lower, srcLadder, false, movesNone},
	{"msg.sendrecv_oneway_64K_us", "us", lower, srcLadder, false, movesNone},
	{"apps.stencil.baseline_iter_us", "us", lower, srcLadder, false, movesNone},
	{"apps.stencil.photon_over_baseline", "ratio", lower, srcLadder, false, movesSten},
	{"apps.stencil.compute_us", "us", lower, srcLadder, false, movesNone},
	{"apps.stencil.comm_us", "us", lower, srcLadder, false, movesSten},
	{"apps.bfs.mteps_r2", "1/us", higher, srcLadder, false, movesRT},
	{"apps.bfs.r4_over_r2", "ratio", higher, srcLadder, false, movesRT},
	{"apps.gups.kups", "1/ms", higher, srcLadder, false, movesShm},
	{"apps.gups.baseline_kups", "1/ms", higher, srcLadder, false, movesNone},
	{"obs.put8_lit_over_dark", "ratio", lower, srcLadder, false, movesNone},

	// Boundary counts over the workload's timed phase.
	{"fabric.frames_per_op", "count", lower, srcCount, false, movesPerMsg},
	{"fabric.wire_bytes_per_payload_byte", "ratio", lower, srcCount, false, movesBytes},
	{"fabric.max_queued", "count", lower, srcCount, false, movesBytes},
	{"nicsim.sends_posted_per_op", "count", lower, srcCount, false, movesPerMsg},
	{"nicsim.completions_per_op", "count", lower, srcCount, false, movesPerMsg},
	{"backend.tcp.flushes_per_op", "count", lower, srcCount, false, movesRate},
	{"backend.tcp.frames_per_flush", "count", higher, srcCount, false, movesRate},
	{"backend.tcp.reads_per_op", "count", lower, srcCount, false, movesRate},
	{"backend.tcp.ack_piggyback_ratio", "ratio", higher, srcCount, false, movesRate},
	{"backend.shm.ring_full_spins_per_op", "count", lower, srcCount, false, movesShm},
	{"backend.shm.agent_wakes_per_op", "count", lower, srcCount, false, movesShm},
	{"core.progress_calls_per_op", "count", lower, srcCount, false, movesPerMsg},
	{"core.credit_writes_per_op", "count", lower, srcCount, false, movesRate},
	{"core.batched_ops_per_post", "count", higher, srcCount, false, movesRate},
	{"core.deferred_per_op", "count", lower, srcCount, false, movesRate},
	{"core.packed_put_ratio", "ratio", higher, srcCount, true, movesPerMsg},
	{"core.rdzv_per_op", "count", lower, srcCount, true, movesShm},
	{"core.ring_overflows", "count", lower, srcCount, false, movesAlloc},
	{"core.entry_pool_miss_ratio", "ratio", lower, srcCount, false, movesAlloc},
	{"runtime.parcels_per_op", "count", lower, srcCount, true, movesRT},

	// Time inside product calls, from the traced repetition.
	{"core.post_us_p50", "us", lower, srcSpan, false, movesPerMsg},
	{"core.wait_us_p50", "us", lower, srcSpan, false, movesPerMsg},
	{"core.progress_us_p50", "us", lower, srcSpan, false, movesPerMsg},
	{"collectives.allreduce16_us_p50", "us", lower, srcSpan, false, movesColl},
	{"collectives.allreduce64K_us_p50", "us", lower, srcSpan, false, movesColl},
	{"collectives.barrier_us_p50", "us", lower, srcSpan, false, movesColl},
	{"apps.stencil.call_us_p50", "us", lower, srcSpan, false, movesSten},
	{"apps.bfs.call_us_p50", "us", lower, srcSpan, false, movesRT},
	{"trace_overhead_ratio", "ratio", lower, srcSpan, false, movesNone},
}

func layerByName(name string) *layerMetric {
	for i := range perLayer {
		if perLayer[i].name == name {
			return &perLayer[i]
		}
	}
	return nil
}

// expectedCount is a primitive count the protocol fixes: stating each
// high-level op as a count of primitives makes a regression show up as
// a changed count before it shows up as a noisy time. want derives the
// value from the run's other counts, so a tuning change (credit batch,
// ledger size) does not trip it; only a protocol change does. Counts
// that depend on the generated inputs come from the workload itself
// (recorder.expect).
type expectedCount struct {
	workload string
	metric   string
	formula  string
	why      string
	want     func(counts map[string]float64) float64
}

var expectedCounts = []expectedCount{
	{"put8_pingpong", "core.packed_put_ratio", "1", "an 8 B put with a remote RID is one packed ledger write",
		func(map[string]float64) float64 { return 1 }},
	{"put8_pingpong", "nicsim.sends_posted_per_op", "1 + core.credit_writes_per_op", "packed put = 1 write, plus the credit-return writes",
		func(c map[string]float64) float64 { return 1 + c["core.credit_writes_per_op"] }},
	{"put8_pingpong", "core.rdzv_per_op", "0", "nothing above the eager threshold",
		func(map[string]float64) float64 { return 0 }},
	{"put64k_stream", "core.packed_put_ratio", "0", "a 64 KiB put is a data write plus a notification entry, never packed",
		func(map[string]float64) float64 { return 0 }},
	{"put64k_stream", "nicsim.sends_posted_per_op", "2 + core.credit_writes_per_op", "direct put = data write + ledger entry, plus the credit-return writes",
		func(c map[string]float64) float64 { return 2 + c["core.credit_writes_per_op"] }},
	{"send8_rate_tcp", "core.packed_put_ratio", "1", "an 8 B send is one packed eager entry",
		func(map[string]float64) float64 { return 1 }},
	{"send8_rate_tcp", "core.rdzv_per_op", "0", "nothing above the eager threshold",
		func(map[string]float64) float64 { return 0 }},
	{"stencil_halo", "core.rdzv_per_op", "0", "halo rows travel as puts, never as rendezvous sends",
		func(map[string]float64) float64 { return 0 }},
	{"allreduce_step", "core.rdzv_per_op", "24", "the 64 KiB ring allreduce moves 16 KiB segments: 4 ranks x (3 reduce-scatter + 3 allgather) rendezvous sends, each RTS + target read + FIN",
		func(map[string]float64) float64 { return 24 }},
	{"allreduce_step", "nicsim.completions_per_op", "32", "24 rendezvous reads plus the 8 recursive-doubling puts of the 16-double allreduce (4 ranks x 2 rounds) complete signaled",
		func(map[string]float64) float64 { return 32 }},
}
