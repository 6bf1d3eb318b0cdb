package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDeliverBasic(t *testing.T) {
	f := New(2, Model{})
	defer f.Close()
	got := make(chan Frame, 1)
	if err := f.Attach(1, func(fr Frame) { got <- fr }); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case fr := <-got:
		if fr.Src != 0 || fr.Dst != 1 || string(fr.Data) != "hello" {
			t.Fatalf("bad frame %+v", fr)
		}
	case <-time.After(time.Second):
		t.Fatal("frame not delivered")
	}
}

func TestInOrderDelivery(t *testing.T) {
	f := New(2, Model{})
	defer f.Close()
	const n = 1000
	var mu sync.Mutex
	var seen []byte
	done := make(chan struct{})
	f.Attach(1, func(fr Frame) {
		mu.Lock()
		seen = append(seen, fr.Data[0])
		if len(seen) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	for i, b := range seen {
		if b != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, b)
		}
	}
}

func TestSelfSend(t *testing.T) {
	f := New(1, Model{})
	defer f.Close()
	got := make(chan Frame, 1)
	f.Attach(0, func(fr Frame) { got <- fr })
	f.Send(0, 0, []byte{42})
	fr := <-got
	if fr.Src != 0 || fr.Dst != 0 || fr.Data[0] != 42 {
		t.Fatalf("self frame wrong: %+v", fr)
	}
}

func TestBadNode(t *testing.T) {
	f := New(2, Model{})
	defer f.Close()
	if err := f.Send(0, 5, nil); err != ErrBadNode {
		t.Fatalf("Send to bad node: %v", err)
	}
	if err := f.Send(-1, 0, nil); err != ErrBadNode {
		t.Fatalf("Send from bad node: %v", err)
	}
	if err := f.Attach(9, nil); err != ErrBadNode {
		t.Fatalf("Attach bad node: %v", err)
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, Model{})
}

func TestLatencyModel(t *testing.T) {
	const lat = 2 * time.Millisecond
	f := New(2, Model{Latency: lat})
	defer f.Close()
	got := make(chan time.Time, 1)
	f.Attach(1, func(Frame) { got <- time.Now() })
	start := time.Now()
	f.Send(0, 1, []byte{1})
	arr := <-got
	if d := arr.Sub(start); d < lat {
		t.Fatalf("frame arrived after %v, want >= %v", d, lat)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1us per byte; a 1000-byte frame should take >= 1ms.
	f := New(2, Model{GapPerByte: time.Microsecond})
	defer f.Close()
	got := make(chan time.Time, 1)
	f.Attach(1, func(Frame) { got <- time.Now() })
	start := time.Now()
	f.Send(0, 1, make([]byte, 1000))
	arr := <-got
	if d := arr.Sub(start); d < time.Millisecond {
		t.Fatalf("serialization took %v, want >= 1ms", d)
	}
}

func TestPipelining(t *testing.T) {
	// With high latency but fast serialization, k frames should all
	// arrive in about one latency, not k latencies.
	const lat = 20 * time.Millisecond
	f := New(2, Model{Latency: lat})
	defer f.Close()
	const k = 10
	var n atomic.Int32
	done := make(chan time.Time, 1)
	f.Attach(1, func(Frame) {
		if n.Add(1) == k {
			done <- time.Now()
		}
	})
	start := time.Now()
	for i := 0; i < k; i++ {
		f.Send(0, 1, []byte{byte(i)})
	}
	arr := <-done
	if d := arr.Sub(start); d > 5*lat {
		t.Fatalf("k frames took %v; links are not pipelining", d)
	}
}

func TestFaultInjectionDrops(t *testing.T) {
	f := New(2, Model{})
	defer f.Close()
	var delivered atomic.Int32
	f.Attach(1, func(Frame) { delivered.Add(1) })
	f.SetFault(func(src, dst int) bool { return true })
	for i := 0; i < 10; i++ {
		if err := f.Send(0, 1, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	f.SetFault(nil)
	f.Send(0, 1, []byte{2})
	f.Close()
	if got := delivered.Load(); got != 1 {
		t.Fatalf("delivered = %d, want 1 (only post-clear frame)", got)
	}
}

func TestStats(t *testing.T) {
	f := New(3, Model{})
	defer f.Close()
	f.Attach(1, func(Frame) {})
	f.Attach(2, func(Frame) {})
	f.Send(0, 1, make([]byte, 10))
	f.Send(0, 1, make([]byte, 20))
	f.Send(0, 2, make([]byte, 5))
	f.Close()
	s01 := f.Stats(0, 1)
	if s01.Frames != 2 || s01.Bytes != 30 {
		t.Fatalf("link 0->1 stats = %+v", s01)
	}
	if s := f.Stats(1, 0); s.Frames != 0 {
		t.Fatalf("unused link stats = %+v", s)
	}
	tot := f.TotalStats()
	if tot.Frames != 3 || tot.Bytes != 35 {
		t.Fatalf("total stats = %+v", tot)
	}
}

func TestNoHandlerDropsWithoutPanic(t *testing.T) {
	f := New(2, Model{})
	defer f.Close()
	if err := f.Send(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if s := f.Stats(0, 1); s.Frames != 1 {
		t.Fatalf("frame not counted: %+v", s)
	}
}

func TestCloseDeliversQueuedThenRejects(t *testing.T) {
	f := New(2, Model{})
	var delivered atomic.Int32
	f.Attach(1, func(Frame) { delivered.Add(1) })
	for i := 0; i < 100; i++ {
		f.Send(0, 1, []byte{byte(i)})
	}
	f.Close()
	if got := delivered.Load(); got != 100 {
		t.Fatalf("delivered = %d, want 100 (queued frames flushed on close)", got)
	}
	if err := f.Send(0, 1, []byte{1}); err != ErrClosed {
		t.Fatalf("Send after close: %v, want ErrClosed", err)
	}
	if err := f.Attach(1, func(Frame) {}); err != ErrClosed {
		t.Fatalf("Attach after close: %v, want ErrClosed", err)
	}
	f.Close() // idempotent
}

func TestConcurrentSenders(t *testing.T) {
	f := New(4, Model{})
	defer f.Close()
	var delivered atomic.Int64
	for n := 0; n < 4; n++ {
		f.Attach(n, func(Frame) { delivered.Add(1) })
	}
	var wg sync.WaitGroup
	const per = 500
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			wg.Add(1)
			go func(s, d int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := f.Send(s, d, []byte{1}); err != nil {
						t.Error(err)
						return
					}
				}
			}(src, dst)
		}
	}
	wg.Wait()
	f.Close()
	if got := delivered.Load(); got != 16*per {
		t.Fatalf("delivered = %d, want %d", got, 16*per)
	}
}

func TestQueueDepthDefault(t *testing.T) {
	f := New(2, Model{})
	defer f.Close()
	if f.model.QueueDepth != DefaultQueueDepth {
		t.Fatalf("QueueDepth = %d", f.model.QueueDepth)
	}
}

func TestNumNodes(t *testing.T) {
	f := New(7, Model{})
	defer f.Close()
	if f.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d", f.NumNodes())
	}
}
