package fabric

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRefusedFrameRedelivered: a handler that refuses frame k on the
// sending goroutine is offered it again, off that goroutine, and
// every later frame on the link arrives after it, each exactly once —
// including one another goroutine sent while k was being refused.
func TestRefusedFrameRedelivered(t *testing.T) {
	const (
		n      = 200
		k      = 17
		marker = 255
	)
	f := New(2, Model{})
	defer f.Close()
	var (
		mu       sync.Mutex
		got      []byte
		refusals int
		retried  bool
	)
	if err := f.AttachTry(1, func(fr Frame, inline bool) bool {
		if fr.Data[0] == k && inline && refusals == 0 {
			refusals++
			// A frame sent while k is on the link queues behind it.
			sent := make(chan error)
			go func() { sent <- f.Send(0, 1, []byte{marker}) }()
			if err := <-sent; err != nil {
				t.Error(err)
			}
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if fr.Data[0] == k {
			retried = !inline
		}
		got = append(got, fr.Data[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if refusals != 1 || !retried {
		t.Fatalf("frame %d: %d refusals, offered again off the sender: %v", k, refusals, retried)
	}
	var want []byte
	for i := 0; i < n; i++ {
		want = append(want, byte(i))
		if i == k {
			want = append(want, marker)
		}
	}
	if string(got) != string(want) {
		t.Fatalf("delivered %v,\nwant %v", got, want)
	}
	if st := f.Stats(0, 1); st.Frames != n+1 {
		t.Fatalf("link counted %d frames, want %d (a refusal is not a delivery)", st.Frames, n+1)
	}
}

// TestLinkFIFOUnderRefusals: four goroutines send on each of the links
// 0→1 and 2→1 with Send and TrySend while node 1's handler refuses a
// random third of what it is offered on a sender's goroutine, and
// echoes every frame it accepts to its source, whose handler refuses
// at random too (the nested, one-level-deep delivery). Every frame and
// every echo arrives exactly once, each sender's in its send order,
// and per link no frame overtakes one whose send returned before its
// own send began. Run it under -race.
func TestLinkFIFOUnderRefusals(t *testing.T) {
	const (
		senders = 4
		each    = 2000
	)
	f := New(3, Model{QueueDepth: 16})
	defer f.Close()
	type key struct{ src, sender int }
	type stamp struct{ began, returned int64 }
	type delivery struct{ sender, seq int }
	var (
		clock   atomic.Int64
		stamps  = map[key][]stamp{}
		mu      sync.Mutex
		order   = map[int][]delivery{} // per link, in delivery order
		offered = map[int]map[delivery]int64{0: {}, 2: {}}
		next    = map[key]int{}
		echoed  = map[key]int{}
		echoes  atomic.Int64
		bad     atomic.Value
		refuses = func(inline bool) bool { return inline && rand.IntN(3) == 0 }
	)
	decode := func(fr Frame) (key, int) {
		return key{fr.Src, int(fr.Data[0])}, int(fr.Data[1]) | int(fr.Data[2])<<8
	}
	if err := f.AttachTry(1, func(fr Frame, inline bool) bool {
		k, seq := decode(fr)
		if inline {
			// The frame owns the link now: whatever is sent from here
			// on must arrive after it, refused or not.
			mu.Lock()
			d := delivery{k.sender, seq}
			if offered[fr.Src][d] == 0 {
				offered[fr.Src][d] = clock.Add(1)
			}
			mu.Unlock()
		}
		if refuses(inline) {
			return false
		}
		mu.Lock()
		if next[k] != seq {
			bad.CompareAndSwap(nil, "a frame arrived out of its sender's order, or twice")
		}
		next[k] = seq + 1
		order[fr.Src] = append(order[fr.Src], delivery{k.sender, seq})
		mu.Unlock()
		if err := f.Send(1, fr.Src, append([]byte(nil), fr.Data...)); err != nil {
			bad.CompareAndSwap(nil, "echo: "+err.Error())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 2} {
		if err := f.AttachTry(src, func(fr Frame, inline bool) bool {
			if refuses(inline) {
				return false
			}
			k, seq := decode(fr)
			k.src = fr.Dst
			mu.Lock()
			if echoed[k] != seq {
				bad.CompareAndSwap(nil, "an echo arrived out of its sender's order, or twice")
			}
			echoed[k] = seq + 1
			mu.Unlock()
			echoes.Add(1)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []int{0, 2} {
		for s := 0; s < senders; s++ {
			stamps[key{src, s}] = make([]stamp, each)
		}
	}
	var wg sync.WaitGroup
	for _, src := range []int{0, 2} {
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(src, s int, st []stamp) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					data := []byte{byte(s), byte(i), byte(i >> 8)}
					st[i].began = clock.Add(1)
					var err error
					if i%2 == 0 {
						err = f.Send(src, 1, data)
					} else {
						for err = f.TrySend(src, 1, data); errors.Is(err, ErrFull); err = f.TrySend(src, 1, data) {
							st[i].began = clock.Add(1) // a refused TrySend sent nothing
							time.Sleep(time.Microsecond)
						}
					}
					st[i].returned = clock.Add(1)
					if err != nil {
						bad.CompareAndSwap(nil, "send: "+err.Error())
						return
					}
				}
			}(src, s, stamps[key{src, s}])
		}
	}
	wg.Wait()
	// Close refuses the echoes of frames still queued: wait them out.
	for deadline := time.Now().Add(10 * time.Second); echoes.Load() < 2*senders*each && bad.Load() == nil; {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d echoes arrived", echoes.Load(), 2*senders*each)
		}
		time.Sleep(time.Millisecond)
	}
	f.Close()
	if v := bad.Load(); v != nil {
		t.Fatal(v)
	}
	for _, src := range []int{0, 2} {
		for s := 0; s < senders; s++ {
			k := key{src, s}
			if next[k] != each || echoed[k] != each {
				t.Fatalf("sender %d on %d→1: %d frames and %d echoes arrived, want %d", s, src, next[k], echoed[k], each)
			}
		}
		// Walking the deliveries backwards, track the earliest moment a
		// frame delivered later was known to be on the link (its send
		// returned, or its handler was first offered it): a frame
		// whose send began after that overtook it.
		d := order[src]
		minReturned := int64(1<<63 - 1)
		for i := len(d) - 1; i >= 0; i-- {
			st := stamps[key{src, d[i].sender}][d[i].seq]
			if st.began > minReturned {
				t.Fatalf("link %d→1: sender %d's frame %d was delivered after a frame sent later", src, d[i].sender, d[i].seq)
			}
			minReturned = min(minReturned, st.returned)
			if at := offered[src][d[i]]; at != 0 {
				minReturned = min(minReturned, at)
			}
		}
	}
}

// TestIdleFabricRunsNoGoroutine: a zero-delay fabric starts no
// goroutine, and the delivery goroutines that queued traffic starts
// (a handler that refuses everything on the sender's goroutine) exit
// once their links drain.
func TestIdleFabricRunsNoGoroutine(t *testing.T) {
	base := settledGoroutines()
	f := New(4, Model{})
	defer f.Close()
	if n := settledGoroutines(); n > base {
		t.Fatalf("New(4) started %d goroutines", n-base)
	}
	var delivered atomic.Int64
	for nd := 0; nd < 4; nd++ {
		if err := f.AttachTry(nd, func(_ Frame, inline bool) bool {
			if inline {
				return false
			}
			delivered.Add(1)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if err := f.Send(src, dst, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() < 16; {
		if time.Now().After(deadline) {
			t.Fatalf("%d/16 frames delivered", delivered.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := settledGoroutines(); n > base {
		t.Fatalf("%d delivery goroutines still running on drained links", n-base)
	}
}

// settledGoroutines waits for the goroutine count to hold still (other
// tests' goroutines may still be exiting) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
