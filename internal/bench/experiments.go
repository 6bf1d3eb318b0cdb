package bench

import (
	"fmt"
	"time"

	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/msg"
)

// Report is one experiment's regenerated output: the text tables that
// correspond to the reconstructed paper artifact.
type Report struct {
	ID     string
	Title  string
	Tables []*Table
}

// Render prints the full report as text.
func (r *Report) Render() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	return out
}

// experiment is one registry row: the ID the CLI selects by, the title
// its report is printed under, and the routine that regenerates it.
type experiment struct {
	id, title string
	run       func(scale float64) (*Report, error)
}

// registry is the one table of reconstructed experiments, in paper
// order. An experiment is here only if no workload or per-layer metric
// of the repository benchmark (BENCHMARK.json) reports its quantity.
var registry = []experiment{
	{"E1", "Fig 1: put latency vs message size (PWC / send / two-sided)", runE1},
	{"E2", "Fig 2: get latency vs message size (GWC / two-sided pull)", runE2},
	{"E3", "Fig 3: streaming bandwidth vs message size", runE3},
	{"E4", "Fig 4: 8-byte message rate vs injector threads", runE4},
	{"E5", "Fig 5: completion-notification overhead (ledger vs matching)", runE5},
	{"E6", "Table 1: eager/rendezvous crossover sweep", runE6},
	{"E7", "Table 2: ledger-size sensitivity + credit-policy ablation", runE7},
	{"E12", "Fig 9: remote atomics latency and pipelined rate", runE12},
	{"E13", "fault injection & recovery: link severs, frame loss, heartbeat sweep", runE13},
	{"E17", "failure-aware collectives: kill->abort latency, shrink vs restart goodput", runE17},
}

// Experiments lists the runnable experiment IDs in registry order.
func Experiments() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment. scale (0 < scale <= 1 typical) shrinks
// iteration counts for quick runs; 1.0 is the full reconstruction.
func Run(id string, scale float64) (*Report, error) {
	if scale <= 0 {
		scale = 1
	}
	for _, e := range registry {
		if e.id != id {
			continue
		}
		rep, err := e.run(scale)
		if err != nil {
			return nil, err
		}
		rep.ID, rep.Title = e.id, e.title
		return rep, nil
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments())
}

// warmProcess runs a short untimed traffic burst on scratch
// environments so the first recorded row of a latency experiment is
// not measuring heap growth and cold stacks.
func warmProcess(iters int) {
	if e, err := NewEnv(2, fabric.Model{}, core.Config{}, msg.Config{}); err == nil {
		if _, descs, _, err := e.SharedBuffers(4096); err == nil {
			_, _ = PingPongPWC(e.Phs, descs, 8, iters)
			_, _ = PingPongBaseline(e.MsgJob, 8, iters)
			_, _ = PingPongSend(e.Phs, 8, iters)
		}
		e.Close()
	}
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 8 {
		n = 8
	}
	return n
}

// latModel is the non-zero delay model used where the experiment wants
// network-like timing rather than raw software overhead.
var latModel = fabric.Model{Latency: 2 * time.Microsecond, GapPerByte: time.Nanosecond / 2}

// runE1 — Fig. 1: put latency vs. message size.
func runE1(scale float64) (*Report, error) {
	warmProcess(scaled(100, scale))
	e, err := NewEnv(2, fabric.Model{}, core.Config{}, msg.Config{})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	_, descs, _, err := e.SharedBuffers(128 * 1024)
	if err != nil {
		return nil, err
	}
	iters := scaled(400, scale)
	s := NewTable("Fig 1 (reconstructed): one-way put latency (us) vs size (B)",
		"size", "photon-pwc", "photon-send", "baseline-sendrecv")
	for _, size := range sizes(8, 64*1024) {
		pwc, err := PingPongPWC(e.Phs, descs, size, iters)
		if err != nil {
			return nil, fmt.Errorf("pwc size %d: %w", size, err)
		}
		snd, err := PingPongSend(e.Phs, size, iters)
		if err != nil {
			return nil, fmt.Errorf("send size %d: %w", size, err)
		}
		base, err := PingPongBaseline(e.MsgJob, size, iters)
		if err != nil {
			return nil, fmt.Errorf("baseline size %d: %w", size, err)
		}
		s.Row(size, us(pwc), us(snd), us(base))
	}
	return &Report{Tables: []*Table{s}}, nil
}

// runE2 — Fig. 2: get latency vs. message size.
func runE2(scale float64) (*Report, error) {
	warmProcess(scaled(100, scale))
	e, err := NewEnv(2, fabric.Model{}, core.Config{}, msg.Config{})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	_, descs, _, err := e.SharedBuffers(128 * 1024)
	if err != nil {
		return nil, err
	}
	iters := scaled(400, scale)
	s := NewTable("Fig 2 (reconstructed): get latency (us) vs size (B)",
		"size", "photon-gwc", "baseline-pull")
	for _, size := range sizes(8, 64*1024) {
		g, err := GetLatencyGWC(e.Phs, descs, size, iters)
		if err != nil {
			return nil, err
		}
		b, err := GetLatencyBaseline(e.MsgJob, size, iters)
		if err != nil {
			return nil, err
		}
		s.Row(size, us(g), us(b))
	}
	return &Report{Tables: []*Table{s}}, nil
}

// runE3 — Fig. 3: streaming bandwidth vs. message size.
func runE3(scale float64) (*Report, error) {
	e, err := NewEnv(2, fabric.Model{}, core.Config{LedgerSlots: 256}, msg.Config{RecvSlots: 256})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	_, descs, _, err := e.SharedBuffers(1 << 20)
	if err != nil {
		return nil, err
	}
	iters := scaled(200, scale)
	const window = 16
	s := NewTable("Fig 3 (reconstructed): streaming bandwidth (MiB/s) vs size (B)",
		"size", "photon-pwc", "baseline-sendrecv")
	for _, size := range sizes(1024, 1<<20) {
		p, err := StreamBandwidthPWC(e.Phs, descs, size, window, iters)
		if err != nil {
			return nil, err
		}
		b, err := StreamBandwidthBaseline(e.MsgJob, size, window, iters)
		if err != nil {
			return nil, err
		}
		s.Row(size, p/(1<<20), b/(1<<20))
	}
	return &Report{Tables: []*Table{s}}, nil
}

// runE4 — Fig. 4: small-message rate vs. injector threads.
func runE4(scale float64) (*Report, error) {
	per := scaled(2000, scale)
	s := NewTable("Fig 4 (reconstructed): 8-byte message rate (Kmsg/s) vs injector threads",
		"threads", "photon-pwc", "baseline-sendrecv")
	for _, threads := range []int{1, 2, 4, 8} {
		e, err := NewEnv(2, fabric.Model{}, core.Config{LedgerSlots: 512}, msg.Config{RecvSlots: 512})
		if err != nil {
			return nil, err
		}
		p, err := MessageRatePWC(e.Phs, threads, per)
		if err != nil {
			e.Close()
			return nil, err
		}
		b, err := MessageRateBaseline(e.MsgJob, threads, per)
		e.Close()
		if err != nil {
			return nil, err
		}
		s.Row(threads, p/1e3, b/1e3)
	}
	return &Report{Tables: []*Table{s}}, nil
}

// runE5 — Fig. 5: completion-notification overhead: Photon's O(1)
// ledger probe against two-sided matching whose cost grows with the
// depth of the posted-receive queue (the asymmetry message-driven
// runtimes care about — they keep many outstanding receives).
func runE5(scale float64) (*Report, error) {
	iters := scaled(400, scale)
	warmProcess(iters / 2)
	t := NewTable("Fig 5 (reconstructed): notification latency (us) vs posted-receive queue depth",
		"posted-receives", "photon-ledger-probe", "baseline-match", "baseline/photon")
	for _, clutter := range []int{0, 64, 256, 1024} {
		e, err := NewEnv(2, fabric.Model{}, core.Config{}, msg.Config{})
		if err != nil {
			return nil, err
		}
		_, descs, _, err := e.SharedBuffers(4096)
		if err != nil {
			e.Close()
			return nil, err
		}
		p, err := NotifyLatencyPWC(e.Phs, descs, iters)
		if err != nil {
			e.Close()
			return nil, err
		}
		b, err := PingPongBaselineCluttered(e.MsgJob, 1, iters, clutter)
		e.Close()
		if err != nil {
			return nil, err
		}
		t.Row(clutter, us(p), us(b), float64(b)/float64(p))
	}
	return &Report{Tables: []*Table{t}}, nil
}

// runE6 — Table 1: eager/rendezvous crossover.
func runE6(scale float64) (*Report, error) {
	warmProcess(scaled(100, scale))
	iters := scaled(300, scale)
	// Eager entries large enough to pack every probed size.
	eagerCfg := core.Config{EagerEntrySize: 64 * 1024, LedgerSlots: 32}
	rdzvCfg := core.Config{ForceRendezvous: true}
	eEager, err := NewPhotonOnly(2, fabric.Model{}, eagerCfg)
	if err != nil {
		return nil, err
	}
	defer eEager.Close()
	eRdzv, err := NewPhotonOnly(2, fabric.Model{}, rdzvCfg)
	if err != nil {
		return nil, err
	}
	defer eRdzv.Close()
	t := NewTable("Table 1 (reconstructed): eager vs rendezvous latency (us) by size",
		"size", "eager-packed", "rendezvous", "winner")
	crossover := -1
	for _, size := range sizes(64, 32*1024) {
		le, err := PingPongSend(eEager.Phs, size, iters)
		if err != nil {
			return nil, err
		}
		lr, err := PingPongSend(eRdzv.Phs, size, iters)
		if err != nil {
			return nil, err
		}
		winner := "eager"
		if lr < le {
			winner = "rendezvous"
			if crossover < 0 {
				crossover = size
			}
		}
		t.Row(size, us(le), us(lr), winner)
	}
	if crossover > 0 {
		t.Row("crossover", "-", "-", fmt.Sprintf("~%dB", crossover))
	}
	return &Report{Tables: []*Table{t}}, nil
}

// runE7 — Table 2: ledger-size sensitivity under saturation, with the
// credit-return policy ablation.
func runE7(scale float64) (*Report, error) {
	iters := scaled(3000, scale)
	s := NewTable("Table 2 (reconstructed): saturated 8B send throughput (Kmsg/s) vs ledger slots",
		"slots", "batched-credits", "per-entry-credits")
	for _, slots := range []int{2, 4, 8, 16, 32, 64, 128} {
		batched, err := throughputWithConfig(core.Config{LedgerSlots: slots}, iters)
		if err != nil {
			return nil, fmt.Errorf("slots %d: %w", slots, err)
		}
		perEntry, err := throughputWithConfig(core.Config{LedgerSlots: slots, CreditBatch: 1}, iters)
		if err != nil {
			return nil, fmt.Errorf("slots %d batch1: %w", slots, err)
		}
		s.Row(slots, batched/1e3, perEntry/1e3)
	}
	return &Report{Tables: []*Table{s}}, nil
}

func throughputWithConfig(cfg core.Config, iters int) (float64, error) {
	e, err := NewPhotonOnly(2, fabric.Model{}, cfg)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	return SaturatedSendThroughput(e.Phs, 8, iters)
}

// runE12 — Fig. 9: remote atomics vs two-sided emulation.
func runE12(scale float64) (*Report, error) {
	iters := scaled(500, scale)
	e, err := NewEnv(2, fabric.Model{}, core.Config{}, msg.Config{})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	_, descs, _, err := e.SharedBuffers(64)
	if err != nil {
		return nil, err
	}
	lat, err := AtomicLatency(e.Phs, descs, iters)
	if err != nil {
		return nil, err
	}
	blat, err := AtomicUpdateBaseline(e.MsgJob, iters)
	if err != nil {
		return nil, err
	}
	t := NewTable("Fig 9a (reconstructed): remote update latency (us)",
		"method", "latency-us")
	t.Row("photon-fetch-add", us(lat))
	t.Row("baseline-req-ack", us(blat))

	s := NewTable("Fig 9b (reconstructed): pipelined fetch-add rate (Kops/s) vs window",
		"window", "photon-fetch-add")
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		r, err := AtomicRate(e.Phs, descs, w, iters)
		if err != nil {
			return nil, err
		}
		s.Row(w, r/1e3)
	}
	return &Report{Tables: []*Table{s, t}}, nil
}

// runE13 — fault injection & recovery (no paper figure: the paper
// asserts fault tolerance qualitatively; this quantifies the
// reconstruction's machinery). Three measurements: how long a severed
// TCP link takes to carry traffic again as the heartbeat interval
// varies, sustained send goodput while a saboteur severs the link
// periodically, and the contrast case — frames lost above the
// transport, where no retransmit window exists and goodput collapses
// onto the OpTimeout sweep.
func runE13(scale float64) (*Report, error) {
	trials := scaled(8, scale)
	rec := NewTable("E13a: recovery time after link sever vs heartbeat interval (TCP, 1ms backoff)",
		"heartbeat", "mean-recovery-ms", "max-recovery-ms")
	for _, hb := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		mean, max, err := SeverRecoveryTime(hb, trials)
		if err != nil {
			return nil, fmt.Errorf("E13a hb %v: %w", hb, err)
		}
		rec.Row(hb.String(), ms(mean), ms(max))
	}
	iters := scaled(4000, scale)
	good := NewTable("E13b: sustained 8B send goodput (Kmsg/s) under periodic link severs (TCP)",
		"fault-injection", "Kmsg/s")
	for _, every := range []time.Duration{0, 100 * time.Millisecond, 25 * time.Millisecond} {
		rate, err := GoodputUnderSevers(iters, every)
		if err != nil {
			return nil, fmt.Errorf("E13b sever %v: %w", every, err)
		}
		label := "none"
		if every > 0 {
			label = "sever every " + every.String()
		}
		good.Row(label, rate/1e3)
	}
	loss := NewTable("E13c: goodput when frames are lost above the transport (vsim + chaos, OpTimeout 150ms)",
		"drop-rate", "sends-ok", "goodput-Kmsg/s")
	sends := scaled(600, scale)
	for _, p := range []float64{0, 0.01} {
		ok, rate, err := LossyGoodput(sends, p)
		if err != nil {
			return nil, fmt.Errorf("E13c drop %.2f: %w", p, err)
		}
		loss.Row(fmt.Sprintf("%.0f%%", p*100), fmt.Sprintf("%d/%d", ok, sends), rate/1e3)
	}
	return &Report{Tables: []*Table{rec, good, loss}}, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
