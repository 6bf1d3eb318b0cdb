package errs_test

import (
	"errors"
	"fmt"
	"testing"

	"photon/internal/core"
	"photon/internal/errs"
	"photon/internal/msg"
	"photon/internal/runtime"
)

// One errors.Is target must match a timeout no matter which layer
// produced it: core aliases the root, the other layers wrap it.
func TestTimeoutMatchesAcrossLayers(t *testing.T) {
	layered := map[string]error{
		"core":    core.ErrTimeout,
		"msg":     msg.ErrTimeout,
		"runtime": runtime.ErrTimeout,
	}
	for layer, err := range layered {
		if !errors.Is(err, core.ErrTimeout) {
			t.Errorf("%s.ErrTimeout does not match core.ErrTimeout", layer)
		}
		if !errors.Is(err, errs.ErrTimeout) {
			t.Errorf("%s.ErrTimeout does not match the root sentinel", layer)
		}
	}
	// Wrapping chains built by callers keep matching.
	wrapped := fmt.Errorf("op 7 on rank 3: %w", msg.ErrTimeout)
	if !errors.Is(wrapped, core.ErrTimeout) {
		t.Error("wrapped msg timeout lost the core.ErrTimeout identity")
	}
	// The alias is an identity, not a copy: code that compares directly
	// (err == core.ErrTimeout, as some older call sites do) still works
	// for errors produced against either name.
	if core.ErrTimeout != errs.ErrTimeout {
		t.Error("core.ErrTimeout is not the root sentinel object")
	}
	// Unrelated errors must not match.
	if errors.Is(msg.ErrClosed, core.ErrTimeout) {
		t.Error("ErrClosed matches ErrTimeout")
	}
}
