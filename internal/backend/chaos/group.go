package chaos

import (
	"sync"
	"time"

	"photon/internal/core"
)

// Group coordinates fault state across every rank of one chaos-wrapped
// job, modelling whole-process death the way a cluster sees it: from
// the instant a rank is killed its traffic is blackholed everywhere
// (frames already on the wire may still land, new ones never do), and
// after the group's detection delay every surviving rank's failure
// detector reports the corpse down and posts toward it fail fast with
// core.ErrPeerDown. The delay stands in for heartbeat-interval ×
// miss-budget on a real transport, so detection→abort latency can be
// swept as an experiment axis without wiring real heartbeats through
// the in-process fabrics.
//
// A killed rank sees the inverse: its own backend blackholes all posts
// and reports every peer down, so the victim's collective also aborts
// promptly instead of spinning — its error is simply not asserted on.
//
// Kill latches are terminal, matching the engine's health machine.
type Group struct {
	detectNS int64

	//photon:lock chaosgroup 12
	mu   sync.Mutex
	dead map[int]int64 // rank -> kill wall-clock UnixNano (first kill wins)
}

// NewGroup builds a group whose kills become detectable after detect.
// A zero or negative detect makes detection immediate.
func NewGroup(detect time.Duration) *Group {
	return &Group{detectNS: int64(detect), dead: make(map[int]int64)}
}

// Kill latches rank dead as of now. Idempotent: a second kill keeps the
// first kill time.
func (g *Group) Kill(rank int) {
	now := time.Now().UnixNano()
	g.mu.Lock()
	if _, dup := g.dead[rank]; !dup {
		g.dead[rank] = now
	}
	g.mu.Unlock()
}

// Killed reports whether rank has been killed (regardless of whether
// detectors can see it yet).
func (g *Group) Killed(rank int) bool {
	g.mu.Lock()
	_, ok := g.dead[rank]
	g.mu.Unlock()
	return ok
}

// KilledAtNS returns the wall-clock UnixNano of rank's kill, or 0.
func (g *Group) KilledAtNS(rank int) int64 {
	g.mu.Lock()
	ns := g.dead[rank]
	g.mu.Unlock()
	return ns
}

// status classifies rank: dead means killed (traffic toward it is
// blackholed), detected means the detection delay has also elapsed
// (posts fail fast and PeerHealth reports down).
func (g *Group) status(rank int) (dead, detected bool) {
	g.mu.Lock()
	ns, ok := g.dead[rank]
	g.mu.Unlock()
	if !ok {
		return false, false
	}
	return true, time.Now().UnixNano() >= ns+g.detectNS
}

// Trigger state on Backend: deterministic crash/partition at the Nth
// posted write from this rank. Counters are atomics so concurrent
// posters race benignly — the trigger fires exactly once, on
// whichever post crosses zero.

// CrashAfterOps arms self-death at the n-th PostWrite from this rank
// (n >= 1). Requires a group (WrapGroup); firing latches this rank
// dead in it, mid-round from the peers' point of view.
func (b *Backend) CrashAfterOps(n int) {
	b.crashIn.Store(int64(n))
}

// tick advances the armed op-count trigger by one posted write.
func (b *Backend) tick() {
	if b.crashIn.Load() > 0 && b.crashIn.Add(-1) == 0 {
		if b.group != nil {
			b.group.Kill(b.inner.Rank())
		}
	}
}

// groupGate is the group-death check run before the per-backend plan:
// a killed self blackholes everything, a detected corpse fails fast,
// an undetected one blackholes. It takes only the group's own lock,
// never nested under b.mu.
func (b *Backend) groupGate(rank int) (drop bool, err error) {
	if b.group == nil {
		return false, nil
	}
	self := b.inner.Rank()
	if rank == self {
		return false, nil
	}
	if b.group.Killed(self) {
		return true, nil
	}
	dead, detected := b.group.status(rank)
	if detected {
		return false, core.ErrPeerDown
	}
	if dead {
		return true, nil
	}
	return false, nil
}
