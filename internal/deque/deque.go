// Package deque provides the double-ended work queue at the heart of the
// Work Stealing scheduler (Blumofe & Leiserson, JACM 1999).
//
// The owner core pushes and pops at the top (newest end), giving it local
// depth-first execution order. A thief removes from the bottom (oldest end)
// — in the paper's words, it "steals a thread from the bottom of the first
// non-empty queue it finds" — which tends to hand thieves large, old
// subcomputations and keeps steals rare.
//
// Deque here is the sequential version used inside the deterministic
// simulator, where all scheduler state is driven from one goroutine.
package deque

// Deque is a growable double-ended queue. The zero value is empty and ready
// to use. It is not safe for concurrent use.
type Deque[T any] struct {
	buf    []T
	head   int // index of oldest element (bottom, steal end)
	length int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.length }

// Reset empties the deque, retaining capacity.
func (d *Deque[T]) Reset() {
	var zero T
	for i := 0; i < d.length; i++ {
		d.buf[(d.head+i)%len(d.buf)] = zero
	}
	d.head = 0
	d.length = 0
}

func (d *Deque[T]) grow() {
	newCap := 2 * len(d.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	for i := 0; i < d.length; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}

// PushTop adds v at the newest end (owner push).
func (d *Deque[T]) PushTop(v T) {
	if d.length == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.length)%len(d.buf)] = v
	d.length++
}

// PopTop removes and returns the newest element (owner pop; LIFO).
func (d *Deque[T]) PopTop() (v T, ok bool) {
	if d.length == 0 {
		var zero T
		return zero, false
	}
	d.length--
	idx := (d.head + d.length) % len(d.buf)
	v = d.buf[idx]
	var zero T
	d.buf[idx] = zero
	return v, true
}

// PopBottom removes and returns the oldest element (thief steal; FIFO end).
func (d *Deque[T]) PopBottom() (v T, ok bool) {
	if d.length == 0 {
		var zero T
		return zero, false
	}
	v = d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.length--
	return v, true
}
