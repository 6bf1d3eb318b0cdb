// Package errs holds error sentinels shared across Photon's layers.
//
// The dependency graph forbids a single home higher up: the two-sided
// baseline (msg) does not import core, so it cannot wrap a sentinel
// defined there, yet callers
// want one errors.Is target that matches a timeout no matter which
// layer produced it. The root sentinels therefore live here, below
// everything; core aliases them under its public names (core.ErrTimeout
// is this package's ErrTimeout, the same object) and the other layers
// wrap them with layer-specific messages. errors.Is against the core
// name then matches timeouts from msg and runtime alike.
package errs

import "errors"

// ErrTimeout is the root timeout sentinel. core.ErrTimeout aliases it;
// msg.ErrTimeout and runtime.ErrTimeout wrap it.
var ErrTimeout = errors.New("photon: wait timed out")

// ErrPeerDown is the root dead-peer sentinel: a peer's transport could
// not be recovered within the reconnect budget, or the failure detector
// latched it down (terminal). core.ErrPeerDown aliases it; error
// completions and fail-fast posts toward a down peer wrap it.
var ErrPeerDown = errors.New("photon: peer down")

// ErrRevoked is the root communicator-revocation sentinel: a collective
// observed a member's death (directly or via a revocation notice) and
// the communicator's current epoch is permanently unusable.
// collectives.ErrCommRevoked aliases it; concrete revocations wrap both
// this and ErrPeerDown, naming the failed rank.
var ErrRevoked = errors.New("photon: communicator revoked")
