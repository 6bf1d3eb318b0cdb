// Package ledger implements Photon's ledgers: RDMA-addressable circular
// buffers of fixed-size entries through which one initiator delivers
// completion events (and eager payloads) directly into a target's
// memory.
//
// A ledger is asymmetric. The *receiver* owns the backing store — a
// registered buffer the remote peer may RDMA-write — and discovers new
// entries by polling local memory, never by taking an interrupt or
// matching a message. The *sender* holds only a descriptor of the
// remote buffer plus a credit count; it reserves the next slot, encodes
// an entry, and RDMA-writes it to the slot's remote address.
//
// Entry validity uses per-slot sequence numbers: the entry written into
// slot i on wrap w carries sequence w+1, so a receiver polling slot i
// accepts it exactly once — stale entries from earlier wraps and the
// zero-initialized first round are never mistaken for new arrivals.
// Because the underlying transport writes each entry with a single
// in-order RDMA write, a matching sequence number implies the whole
// entry is visible.
//
// Flow control is credit-based: the sender starts with one credit per
// slot, spends one per reservation, and regains credits when the
// receiver tells it slots were consumed (Photon returns credits either
// piggybacked on reverse-direction traffic or via explicit writes; that
// policy lives in package core).
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"photon/internal/mem"
)

// noopLocker is used when the caller provides no read-locker.
type noopLocker struct{}

func (noopLocker) Lock()   {}
func (noopLocker) Unlock() {}

// HeaderSize is the per-entry header: sequence (4 bytes) plus payload
// length (4 bytes).
const HeaderSize = 8

// MinEntrySize is the smallest usable entry (header plus 8 payload
// bytes, enough for a completion RID).
const MinEntrySize = HeaderSize + 8

// Errors returned by ledger operations.
var (
	ErrNoCredit  = errors.New("ledger: no credits (remote ledger full)")
	ErrGeometry  = errors.New("ledger: invalid geometry")
	ErrTooLarge  = errors.New("ledger: payload exceeds entry capacity")
	ErrOvershoot = errors.New("ledger: credit return exceeds outstanding entries")
)

// Entry is one received ledger entry. Payload aliases the ledger's
// backing store and is valid only until the slot is overwritten on the
// next wrap — receivers that retain payloads must copy.
type Entry struct {
	Slot    int
	Seq     uint32
	Payload []byte
}

// Reservation names the remote slot an initiator will write next.
type Reservation struct {
	Slot       int
	Seq        uint32
	RemoteAddr uint64
	RKey       uint32
}

// Encode serializes an entry (sequence + payload) into dst, which must
// be exactly one entry in size. The sequence field is written last in
// the buffer layout sense, but visibility is guaranteed by the
// transport's single-write semantics, not field order.
func Encode(dst []byte, seq uint32, payload []byte) error {
	if len(payload) > len(dst)-HeaderSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), len(dst)-HeaderSize)
	}
	binary.LittleEndian.PutUint32(dst[0:], seq)
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(payload)))
	copy(dst[HeaderSize:], payload)
	return nil
}

// EncodeHeader writes just the entry header (sequence + payload
// length) into dst. Callers that build the payload in place — directly
// in dst[HeaderSize:HeaderSize+payloadLen] — use this to skip the
// intermediate payload buffer Encode requires.
func EncodeHeader(dst []byte, seq uint32, payloadLen int) error {
	if payloadLen > len(dst)-HeaderSize {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, payloadLen, len(dst)-HeaderSize)
	}
	binary.LittleEndian.PutUint32(dst[0:], seq)
	binary.LittleEndian.PutUint32(dst[4:], uint32(payloadLen))
	return nil
}

// ---------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------

// Receiver is the polling half of a ledger, layered over a local
// registered buffer that a single remote sender RDMA-writes.
type Receiver struct {
	//photon:lock recv 20
	mu sync.Mutex
	//photon:lock dma 10
	rlk       sync.Locker // guards reads of buf against remote DMA
	buf       []byte
	entrySize int
	n         int
	head      int
	wrap      uint32
	consumed  int64 // credits not yet taken for return
}

// NewReceiver wraps buf (a subslice of registered memory) as a ledger
// of n = len(buf)/entrySize slots. len(buf) must be a positive multiple
// of entrySize and entrySize >= MinEntrySize. rlk, when non-nil, is
// held while Poll reads buf, synchronizing against the transport's
// remote writes (backends supply the registration's read-locker).
func NewReceiver(buf []byte, entrySize int, rlk sync.Locker) (*Receiver, error) {
	if entrySize < MinEntrySize || len(buf) == 0 || len(buf)%entrySize != 0 {
		return nil, fmt.Errorf("%w: buf=%d entry=%d", ErrGeometry, len(buf), entrySize)
	}
	if rlk == nil {
		rlk = noopLocker{}
	}
	return &Receiver{buf: buf, entrySize: entrySize, n: len(buf) / entrySize, rlk: rlk}, nil
}

// Poll checks the head slot for a newly arrived entry. On success it
// consumes the entry (advancing the head and accruing one returnable
// credit) and returns it; otherwise ok is false.
func (r *Receiver) Poll() (Entry, bool) {
	r.rlk.Lock()
	defer r.rlk.Unlock()
	return r.PollLocked()
}

// ReadyLocked reports whether the head slot holds a new entry without
// taking the receiver's mutex. It is safe only when all consumption is
// serialized externally (the Photon progress engine is), because it
// reads the cursor without synchronization; the caller must hold the
// read-locker.
func (r *Receiver) ReadyLocked() bool {
	off := r.head * r.entrySize
	return binary.LittleEndian.Uint32(r.buf[off:]) == r.wrap+1
}

// DecodeEntry parses one entrySize-byte ledger slot, accepting the
// entry only when its sequence word equals want (the receiver's
// current wrap + 1 — the per-slot validity rule). The returned payload
// aliases slot and is clamped to the slot's capacity even when the
// length word is corrupt, so remote writes can never steer a receiver
// out of its own slot. It is a pure function over the slot bytes (no
// receiver state) so it can be fuzzed directly.
func DecodeEntry(slot []byte, want uint32) (payload []byte, ok bool) {
	if len(slot) < MinEntrySize {
		return nil, false
	}
	if binary.LittleEndian.Uint32(slot) != want {
		return nil, false
	}
	plen := int(binary.LittleEndian.Uint32(slot[4:]))
	if plen > len(slot)-HeaderSize {
		plen = len(slot) - HeaderSize // corrupt length; clamp defensively
	}
	return slot[HeaderSize : HeaderSize+plen], true
}

// PollLocked is Poll for engines that already hold the read-locker
// passed to NewReceiver — a progress loop draining several ledgers of
// one registered arena acquires the arena lock once instead of per
// ledger. Payload aliasing rules are unchanged.
func (r *Receiver) PollLocked() (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	off := r.head * r.entrySize
	payload, ok := DecodeEntry(r.buf[off:off+r.entrySize], r.wrap+1)
	if !ok {
		return Entry{}, false
	}
	e := Entry{
		Slot:    r.head,
		Seq:     r.wrap + 1,
		Payload: payload,
	}
	r.head++
	if r.head == r.n {
		r.head = 0
		r.wrap++
	}
	r.consumed++
	return e, true
}

// TakeCredits returns and clears the count of entries consumed since
// the last call; the caller forwards this to the sender as credits.
func (r *Receiver) TakeCredits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := int(r.consumed)
	r.consumed = 0
	return c
}

// ---------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------

// Sender is the initiating half: it tracks the remote ledger's geometry
// and its own credit balance, handing out slot reservations.
type Sender struct {
	//photon:lock send 30
	mu        sync.Mutex
	remote    mem.RemoteBuffer
	entrySize int
	n         int
	tail      int
	wrap      uint32
	credits   int
}

// NewSender builds the sending half for a remote ledger described by
// rb; rb.Len must be a positive multiple of entrySize.
func NewSender(rb mem.RemoteBuffer, entrySize int) (*Sender, error) {
	if entrySize < MinEntrySize || rb.Len == 0 || rb.Len%entrySize != 0 {
		return nil, fmt.Errorf("%w: remote len=%d entry=%d", ErrGeometry, rb.Len, entrySize)
	}
	n := rb.Len / entrySize
	return &Sender{remote: rb, entrySize: entrySize, n: n, credits: n}, nil
}

// Reserve claims the next remote slot, spending one credit. The caller
// must write an encoded entry (with the returned sequence) to the
// returned remote address, in one RDMA write.
func (s *Sender) Reserve() (Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.credits == 0 {
		return Reservation{}, ErrNoCredit
	}
	s.credits--
	res := Reservation{
		Slot:       s.tail,
		Seq:        s.wrap + 1,
		RemoteAddr: s.remote.Addr + uint64(s.tail*s.entrySize),
		RKey:       s.remote.RKey,
	}
	s.tail++
	if s.tail == s.n {
		s.tail = 0
		s.wrap++
	}
	return res, nil
}

// AddCredits returns n consumed slots to the balance. Returning more
// credits than there are outstanding reservations is a protocol error.
func (s *Sender) AddCredits(n int) error {
	if n < 0 {
		return fmt.Errorf("%w: n=%d", ErrOvershoot, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.credits+n > s.n {
		return fmt.Errorf("%w: %d+%d > %d", ErrOvershoot, s.credits, n, s.n)
	}
	s.credits += n
	return nil
}
