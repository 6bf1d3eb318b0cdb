package mem

import (
	"math/rand"
	"testing"
)

// TestQueueModel drives a Queue and a plain slice through the same
// random mix of push-back, push-front, pop, pop-into and remove-at, from a small
// first allocation so the ring grows while wrapped. After every step
// the two must hold the same elements in the same order, and every
// slot outside the live range must be zero: a popped or removed
// element stays reachable from nowhere.
func TestQueueModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue[*int](1)
		var model []*int
		next := 0
		val := func() *int { next++; v := next; return &v }
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(11); {
			case op < 4:
				v := val()
				q.PushBack(v)
				model = append(model, v)
			case op < 6:
				v := val()
				q.PushFront(v)
				model = append([]*int{v}, model...)
			case op < 9:
				v, ok := q.PopFront()
				if ok != (len(model) > 0) {
					t.Fatalf("seed %d step %d: pop ok=%v with %d queued", seed, step, ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("seed %d step %d: popped %d, want %d", seed, step, *v, *model[0])
					}
					model = model[1:]
				}
			case op < 10:
				dst := make([]*int, rng.Intn(4))
				n := q.PopInto(dst)
				if want := min(len(dst), len(model)); n != want {
					t.Fatalf("seed %d step %d: PopInto(%d) = %d with %d queued", seed, step, len(dst), n, len(model))
				}
				for i := 0; i < n; i++ {
					if dst[i] != model[i] {
						t.Fatalf("seed %d step %d: PopInto[%d] = %d, want %d", seed, step, i, *dst[i], *model[i])
					}
				}
				model = model[n:]
			default:
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				if v := q.RemoveAt(i); v != model[i] {
					t.Fatalf("seed %d step %d: RemoveAt(%d) = %d, want %d", seed, step, i, *v, *model[i])
				}
				model = append(model[:i:i], model[i+1:]...)
			}
			checkQueue(t, &q, model)
		}
	}
}

func checkQueue(t *testing.T, q *Queue[*int], model []*int) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(model))
	}
	if c := q.Cap(); c&(c-1) != 0 || c < q.Len() {
		t.Fatalf("Cap = %d with %d queued, want a power of two that holds them", c, q.Len())
	}
	for i, want := range model {
		if got := q.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, *got, *want)
		}
	}
	for i := q.Len(); i < q.Cap(); i++ {
		if s := q.buf[(q.head+i)&(q.Cap()-1)]; s != nil {
			t.Fatalf("free slot %d still holds %d", (q.head+i)&(q.Cap()-1), *s)
		}
	}
}

// TestQueueWarmNoAlloc pins the property the queue's users rely on: once
// a queue has reached its working depth, pushing and popping (from
// either end, at any offset in the ring) allocates nothing.
func TestQueueWarmNoAlloc(t *testing.T) {
	q := NewQueue[int](0)
	cycle := func() {
		for i := 0; i < 5; i++ {
			q.PushBack(i)
		}
		q.PushFront(-1)
		q.RemoveAt(3)
		for _, ok := q.PopFront(); ok; _, ok = q.PopFront() {
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm push/pop cycle allocates %.2f times, want 0", allocs)
	}
	if q.Cap() != queueMinCap {
		t.Fatalf("Cap = %d after cycles of depth 6, want %d", q.Cap(), queueMinCap)
	}
}

// TestQueueAtOutOfRange checks that an index past the live range
// panics rather than reading a stale slot.
func TestQueueAtOutOfRange(t *testing.T) {
	q := NewQueue[int](4)
	q.PushBack(1)
	for _, i := range []int{-1, 1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a 1-element queue did not panic", i)
				}
			}()
			q.At(i)
		}()
	}
}
