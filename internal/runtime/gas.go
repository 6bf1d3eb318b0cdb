package runtime

import (
	"errors"
	"fmt"
	"sync"

	"photon/internal/mem"
)

// GAS errors.
var (
	ErrOutOfRange = errors.New("runtime: global address out of range")
	ErrGeometry   = errors.New("runtime: invalid global array geometry")
)

// GlobalArray is a block-cyclic-free (plain block) distributed byte
// array: element i lives on rank i/blockBytes at offset i%blockBytes.
// Puts and gets are Photon one-sided operations returning futures;
// 8-byte words additionally support remote atomics. This is the
// network-managed global address space a message-driven runtime layers
// over RMA middleware.
type GlobalArray struct {
	l          *Locality
	blockBytes int
	local      []byte
	//photon:lock gaslocal 40
	localLk sync.Locker
	descs   []mem.RemoteBuffer
}

// NewGlobalArray collectively creates an array of size*blockBytes
// bytes, one block per rank. Every rank must call it with the same
// blockBytes, in the same creation order relative to other collective
// setup.
func NewGlobalArray(l *Locality, blockBytes int) (*GlobalArray, error) {
	if blockBytes <= 0 || blockBytes%8 != 0 {
		return nil, fmt.Errorf("%w: blockBytes=%d (must be positive, 8-aligned)", ErrGeometry, blockBytes)
	}
	local := make([]byte, blockBytes)
	rb, lk, err := l.ph.RegisterBuffer(local)
	if err != nil {
		return nil, err
	}
	descs, err := l.ph.ExchangeBuffers(rb)
	if err != nil {
		return nil, err
	}
	return &GlobalArray{l: l, blockBytes: blockBytes, local: local, localLk: lk, descs: descs}, nil
}

// TotalBytes returns the global array length.
func (g *GlobalArray) TotalBytes() int { return g.blockBytes * g.l.size }

// Owner maps a global byte index to (rank, offset).
func (g *GlobalArray) Owner(index uint64) (int, uint64, error) {
	if index >= uint64(g.TotalBytes()) {
		return 0, 0, fmt.Errorf("%w: %d >= %d", ErrOutOfRange, index, g.TotalBytes())
	}
	return int(index / uint64(g.blockBytes)), index % uint64(g.blockBytes), nil
}

// Put writes data at the global index, resolving the future when the
// local buffer is reusable and the data is ordered toward visibility.
func (g *GlobalArray) Put(index uint64, data []byte) (*Future, error) {
	rank, off, err := g.Owner(index)
	if err != nil {
		return nil, err
	}
	if off+uint64(len(data)) > uint64(g.blockBytes) {
		return nil, fmt.Errorf("%w: put of %d bytes crosses block boundary", ErrOutOfRange, len(data))
	}
	rid, f := g.l.registerFutureForRID(nil)
	if err := g.l.ph.PutBlocking(rank, data, g.descs[rank], off, rid, 0); err != nil {
		g.l.takeFuture(rid &^ bitFuture)
		return nil, err
	}
	return f, nil
}

// Get reads n bytes at the global index into a fresh buffer, resolved
// by the returned future.
func (g *GlobalArray) Get(index uint64, n int) (*Future, error) {
	rank, off, err := g.Owner(index)
	if err != nil {
		return nil, err
	}
	if off+uint64(n) > uint64(g.blockBytes) {
		return nil, fmt.Errorf("%w: get of %d bytes crosses block boundary", ErrOutOfRange, n)
	}
	buf := make([]byte, n)
	rid, f := g.l.registerFutureForRID(buf)
	if err := g.l.ph.GetWithCompletion(rank, buf, g.descs[rank], off, rid, 0); err != nil {
		g.l.takeFuture(rid &^ bitFuture)
		return nil, err
	}
	return f, nil
}

// FetchAdd atomically adds delta to the 8-byte word at the global
// index (which must be 8-aligned); the future's Value is the prior
// word.
func (g *GlobalArray) FetchAdd(index uint64, delta uint64) (*Future, error) {
	rank, off, err := g.Owner(index)
	if err != nil {
		return nil, err
	}
	if off%8 != 0 {
		return nil, fmt.Errorf("%w: misaligned atomic at %d", ErrOutOfRange, index)
	}
	rid, f := g.l.registerFutureForRID(nil)
	if err := g.l.ph.FetchAdd(rank, g.descs[rank], off, delta, rid); err != nil {
		g.l.takeFuture(rid &^ bitFuture)
		return nil, err
	}
	return f, nil
}

// CompSwap atomically compare-and-swaps the 8-byte word at the global
// index; the future's Value is the prior word.
func (g *GlobalArray) CompSwap(index uint64, compare, swap uint64) (*Future, error) {
	rank, off, err := g.Owner(index)
	if err != nil {
		return nil, err
	}
	if off%8 != 0 {
		return nil, fmt.Errorf("%w: misaligned atomic at %d", ErrOutOfRange, index)
	}
	rid, f := g.l.registerFutureForRID(nil)
	if err := g.l.ph.CompSwap(rank, g.descs[rank], off, compare, swap, rid); err != nil {
		g.l.takeFuture(rid &^ bitFuture)
		return nil, err
	}
	return f, nil
}
