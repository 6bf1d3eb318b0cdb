package fabric

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackpressureSaturatesOneLink drives a link with a tiny queue far
// past its depth while the receiver's handler is held shut. Send must
// block (not error, not drop), the high-water mark must show the queue
// actually filled, and once the handler opens every frame must still
// arrive — backpressure, not deadlock.
func TestBackpressureSaturatesOneLink(t *testing.T) {
	const (
		depth = 8
		total = 200
	)
	f := New(2, Model{QueueDepth: depth, PerFrame: 20 * time.Microsecond})
	defer f.Close()
	gate := make(chan struct{})
	var delivered atomic.Int64
	if err := f.Attach(1, func(Frame) {
		<-gate
		delivered.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := f.Send(0, 1, []byte{byte(i)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	// With the handler shut the queue fills to depth whatever the
	// delivery goroutine's speed, and the sender blocks behind it.
	deadline := time.Now().Add(10 * time.Second)
	for f.Stats(0, 1).MaxQueued < depth {
		if time.Now().After(deadline) {
			t.Fatalf("high-water %d never reached depth %d", f.Stats(0, 1).MaxQueued, depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-sent:
		t.Fatalf("sender finished past a full queue (err %v): Send did not block", err)
	default:
	}
	close(gate)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	f.Close() // waits out every delivery
	if got := delivered.Load(); got != total {
		t.Fatalf("delivered %d frames, want %d", got, total)
	}
	st := f.Stats(0, 1)
	if st.Frames != total {
		t.Errorf("link frames = %d, want %d", st.Frames, total)
	}
	if st.MaxQueued > depth {
		t.Errorf("high-water %d exceeds queue depth %d", st.MaxQueued, depth)
	}
}

// TestBackpressureHandlerReentry saturates the forward link while the
// receiver's handler re-enters Send to ACK every frame on the reverse
// link — the exact shape the simulated NIC uses. The reverse link has
// room (its receiver only counts), so delivery keeps draining the
// saturated direction: the documented deadlock-freedom argument for
// one-direction congestion.
func TestBackpressureHandlerReentry(t *testing.T) {
	const (
		depth = 4
		total = 100
	)
	f := New(2, Model{QueueDepth: depth, PerFrame: 10 * time.Microsecond})
	defer f.Close()
	var acks atomic.Int64
	if err := f.Attach(0, func(Frame) { acks.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach(1, func(fr Frame) {
		if err := f.Send(1, 0, []byte{fr.Data[0]}); err != nil {
			t.Errorf("ack send: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if err := f.Send(0, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender wedged: saturated link with re-entrant ACKs deadlocked")
	}
	deadline := time.Now().Add(10 * time.Second)
	for acks.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d acks arrived", acks.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrySendFullLinkRefuses: with the receiver's handler held shut,
// TrySend fills a link to its depth and then returns ErrFull at once,
// leaving the frame with the caller; once the handler opens, exactly
// the accepted frames arrive, in order.
func TestTrySendFullLinkRefuses(t *testing.T) {
	const depth = 4
	f := New(2, Model{QueueDepth: depth})
	defer f.Close()
	gate := make(chan struct{})
	got := make(chan byte, 2*depth)
	if err := f.AttachTry(1, func(fr Frame, inline bool) bool {
		if inline {
			select {
			case <-gate:
			default:
				return false // shut: the delivery goroutine waits instead
			}
		}
		<-gate
		got <- fr.Data[0]
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Frame 0 is refused on the sender's goroutine and taken by the
	// delivery goroutine, which then waits on the gate; the next depth
	// frames fill the queue.
	if err := f.TrySend(0, 1, []byte{0}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); f.Stats(0, 1).Frames == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first frame never left the queue")
		}
		time.Sleep(50 * time.Microsecond)
	}
	for i := 1; i <= depth; i++ {
		if err := f.TrySend(0, 1, []byte{byte(i)}); err != nil {
			t.Fatalf("frame %d into a queue with room: %v", i, err)
		}
	}
	refused := []byte{0xEE}
	done := make(chan error, 1)
	go func() { done <- f.TrySend(0, 1, refused) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFull) {
			t.Fatalf("TrySend on a full link: %v, want ErrFull", err)
		}
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("TrySend blocked on a full link")
	}
	if hw := f.Stats(0, 1).MaxQueued; hw != depth {
		t.Errorf("high-water %d, want the depth %d", hw, depth)
	}
	close(gate)
	for i := 0; i <= depth; i++ {
		select {
		case b := <-got:
			if b != byte(i) {
				t.Fatalf("frame %d arrived as %d", i, b)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	f.Close()
	if len(got) != 0 {
		t.Fatalf("%d frames past the accepted ones arrived", len(got))
	}
}

// TestTrySendFaultAndClose: TrySend consults the fault predicate (a
// dropped frame is accepted and never delivered), checks node indices,
// and fails with ErrClosed once the fabric is closed.
func TestTrySendFaultAndClose(t *testing.T) {
	f := New(2, Model{})
	var delivered atomic.Int64
	if err := f.Attach(1, func(Frame) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	f.SetFault(func(src, dst int) bool { return dst == 1 })
	if err := f.TrySend(0, 1, []byte{1}); err != nil {
		t.Fatalf("dropped frame: %v, want nil", err)
	}
	f.SetFault(nil)
	if err := f.TrySend(0, 2, []byte{1}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("bad node: %v", err)
	}
	f.Close()
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d dropped frames delivered", n)
	}
	if st := f.Stats(0, 1); st.Frames != 0 {
		t.Fatalf("dropped frame counted on the link: %+v", st)
	}
	if err := f.TrySend(0, 1, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySend after Close: %v, want ErrClosed", err)
	}
}
