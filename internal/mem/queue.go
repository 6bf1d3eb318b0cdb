package mem

// Queue is a FIFO on a power-of-two ring that doubles when full. Pops
// clear their slot, so nothing popped stays reachable from the ring,
// and a warm queue pushes and pops without allocating, whatever its
// park/drain pattern. It is not safe for concurrent use; each owner
// guards its queue with its own lock.
//
// The zero value is an empty queue that allocates on its first push.
type Queue[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the front element in buf
	n    int // elements queued
}

// queueMinCap is the capacity of a queue's first allocation.
const queueMinCap = 8

// NewQueue returns an empty queue with room for at least capacity
// elements before it first grows.
func NewQueue[T any](capacity int) Queue[T] {
	var q Queue[T]
	if capacity > 0 {
		q.grow(capacity)
	}
	return q
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap reports how many elements fit before the next push grows the ring.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// At returns the i-th element from the front (0 is the front). It
// panics when i is out of range.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("mem: Queue.At index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// PushBack appends v at the back.
//
//photon:hotpath
func (q *Queue[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow(2 * q.n)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront inserts v at the front.
//
//photon:hotpath
func (q *Queue[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow(2 * q.n)
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// PopFront removes and returns the front element, clearing its slot.
func (q *Queue[T]) PopFront() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// PopInto pops up to len(dst) elements from the front into dst and
// returns how many it popped.
func (q *Queue[T]) PopInto(dst []T) int {
	n := 0
	for ; n < len(dst) && q.n > 0; n++ {
		dst[n], _ = q.PopFront()
	}
	return n
}

// RemoveAt removes and returns the i-th element from the front,
// keeping the others in order; it moves the i elements ahead of it. It
// panics when i is out of range.
func (q *Queue[T]) RemoveAt(i int) T {
	v := q.At(i)
	mask := len(q.buf) - 1
	for j := i; j > 0; j-- {
		q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
	}
	q.PopFront()
	return v
}

// grow moves the queue into a ring of at least want slots (and at
// least queueMinCap), front first.
//
//photon:hotpath
func (q *Queue[T]) grow(want int) {
	c := queueMinCap
	for c < want {
		c <<= 1
	}
	buf := make([]T, c) //photon:allow hotpathalloc -- the ring doubles only when full; a warm queue never reaches this line again
	if q.n > 0 {
		k := copy(buf, q.buf[q.head:])
		if k < q.n {
			copy(buf[k:], q.buf[:q.n-k])
		}
	}
	q.buf, q.head = buf, 0
}
