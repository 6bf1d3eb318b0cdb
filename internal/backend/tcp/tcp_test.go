package tcp_test

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/tcp"
	"photon/internal/core"
	"photon/internal/mem"
)

const waitT = 10 * time.Second

// newTCPJob boots n Photon ranks over loopback TCP in one process.
func newTCPJob(t *testing.T, n int, cfg core.Config) []*core.Photon {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	bes := make([]*tcp.Backend, n)
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			be, err := tcp.New(tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]})
			if err != nil {
				errs[r] = err
				return
			}
			bes[r] = be
			phs[r], errs[r] = core.Init(be, cfg)
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, p := range phs {
			if p != nil {
				p.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return phs
}

func TestTCPBackendConfigValidation(t *testing.T) {
	if _, err := tcp.New(tcp.Config{Rank: 0}); err == nil {
		t.Fatal("empty address book accepted")
	}
	if _, err := tcp.New(tcp.Config{Rank: 5, Addrs: []string{"x"}}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestTCPSingleRankLoopback(t *testing.T) {
	phs := newTCPJob(t, 1, core.Config{})
	if err := phs[0].Send(0, []byte("loop"), 1, 2); err != nil {
		t.Fatal(err)
	}
	rc, err := phs[0].WaitRemote(2, waitT)
	if err != nil || string(rc.Data) != "loop" {
		t.Fatalf("loopback over tcp: %v %q", err, rc.Data)
	}
}

func TestTCPPutWithCompletion(t *testing.T) {
	phs := newTCPJob(t, 2, core.Config{})
	target := make([]byte, 128)
	rb, lk, err := phs[1].RegisterBuffer(target)
	if err != nil {
		t.Fatal(err)
	}
	descs := shareDesc(t, phs, 1, rb)
	payload := []byte("photon over real sockets")
	if err := phs[0].PutWithCompletion(1, payload, descs[1], 8, 10, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(10, waitT); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(20, waitT); err != nil {
		t.Fatal(err)
	}
	lk.Lock()
	ok := bytes.Equal(target[8:8+len(payload)], payload)
	lk.Unlock()
	if !ok {
		t.Fatal("put data not visible")
	}
}

func shareDesc(t *testing.T, phs []*core.Photon, owner int, rb mem.RemoteBuffer) []mem.RemoteBuffer {
	t.Helper()
	out := make([][]mem.RemoteBuffer, len(phs))
	var wg sync.WaitGroup
	for r := range phs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			contrib := mem.RemoteBuffer{}
			if r == owner {
				contrib = rb
			}
			out[r], _ = phs[r].ExchangeBuffers(contrib)
		}(r)
	}
	wg.Wait()
	return out[0]
}

func TestTCPGetAndAtomics(t *testing.T) {
	phs := newTCPJob(t, 2, core.Config{})
	src := make([]byte, 64)
	copy(src, "tcp get payload")
	rb, _, err := phs[1].RegisterBuffer(src)
	if err != nil {
		t.Fatal(err)
	}
	descs := shareDesc(t, phs, 1, rb)
	dst := make([]byte, 15)
	if err := phs[0].GetWithCompletion(1, dst, descs[1], 0, 30, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(30, waitT); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "tcp get payload" {
		t.Fatalf("get = %q", dst)
	}
	// Fetch-add against offset 32 (8-aligned).
	if err := phs[0].FetchAdd(1, descs[1], 32, 9, 31); err != nil {
		t.Fatal(err)
	}
	lc, err := phs[0].WaitLocal(31, waitT)
	if err != nil || lc.Value != 0 {
		t.Fatalf("fadd: %v value=%d", err, lc.Value)
	}
	if err := phs[0].CompSwap(1, descs[1], 32, 9, 100, 32); err != nil {
		t.Fatal(err)
	}
	lc, err = phs[0].WaitLocal(32, waitT)
	if err != nil || lc.Value != 9 {
		t.Fatalf("cswap: %v value=%d", err, lc.Value)
	}
}

func TestTCPRendezvousLargeMessage(t *testing.T) {
	phs := newTCPJob(t, 2, core.Config{})
	big := make([]byte, 256*1024)
	for i := range big {
		big[i] = byte(i * 3)
	}
	if err := phs[0].Send(1, big, 40, 50); err != nil {
		t.Fatal(err)
	}
	var rc core.Completion
	var rerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc, rerr = phs[1].WaitRemote(50, waitT)
	}()
	if _, err := phs[0].WaitLocal(40, waitT); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil || !bytes.Equal(rc.Data, big) {
		t.Fatalf("rendezvous over tcp: %v (len %d)", rerr, len(rc.Data))
	}
}

func TestTCPThreeRanks(t *testing.T) {
	phs := newTCPJob(t, 3, core.Config{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dst := (r + 1) % 3
			for k := 0; k < 10; k++ {
				rid := uint64(r*100 + k + 1)
				if err := phs[r].SendBlocking(dst, []byte{byte(r), byte(k)}, 0, rid); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := (r + 2) % 3
			for k := 0; k < 10; k++ {
				rc, err := phs[r].WaitRemote(uint64(src*100+k+1), waitT)
				if err != nil || rc.Data[1] != byte(k) {
					t.Errorf("rank %d recv %d: %v %+v", r, k, err, rc)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestTCPRepeatedExchanges(t *testing.T) {
	phs := newTCPJob(t, 3, core.Config{})
	for iter := 0; iter < 5; iter++ {
		var wg sync.WaitGroup
		outs := make([][]mem.RemoteBuffer, 3)
		errs := make([]error, 3)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				outs[r], errs[r] = phs[r].ExchangeBuffers(mem.RemoteBuffer{Addr: uint64(iter), RKey: uint32(r)})
			}(r)
		}
		wg.Wait()
		for r := 0; r < 3; r++ {
			if errs[r] != nil {
				t.Fatalf("iter %d rank %d: %v", iter, r, errs[r])
			}
			for src := 0; src < 3; src++ {
				if outs[r][src].Addr != uint64(iter) || outs[r][src].RKey != uint32(src) {
					t.Fatalf("iter %d rank %d: desc[%d]=%+v", iter, r, src, outs[r][src])
				}
			}
		}
	}
}

func TestTCPDialFailure(t *testing.T) {
	// One rank alone with a peer that never appears.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = tcp.New(tcp.Config{
		Rank:        0,
		Addrs:       []string{ln.Addr().String(), "127.0.0.1:1"}, // port 1: connection refused
		Listener:    ln,
		DialTimeout: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial to dead peer succeeded")
	}
}
