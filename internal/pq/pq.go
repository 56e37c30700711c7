// Package pq implements the priority pool used by the Parallel Depth First
// scheduler: a binary min-heap of items keyed by their 1DF (sequential
// depth-first) number. Smaller keys are higher priority, so the pool always
// hands out the ready task the sequential program would have executed
// earliest — the defining property of PDF scheduling (Blelloch, Gibbons,
// Matias, JACM 1999).
//
// container/heap is not used: the interface-based API forces an allocation
// per operation and is measurably slower in the simulator's dispatch loop.
package pq

// Item is an element with a priority key. Payload is an opaque reference
// (in the simulator, a *dag.Node).
type Item[T any] struct {
	Key     int64
	Payload T
}

// Min is a binary min-heap over Items. The zero value is an empty heap.
type Min[T any] struct {
	items []Item[T]
}

// Len returns the number of queued items.
func (h *Min[T]) Len() int { return len(h.items) }

// Reset empties the heap, retaining capacity.
func (h *Min[T]) Reset() { h.items = h.items[:0] }

// Push inserts an item.
func (h *Min[T]) Push(key int64, payload T) {
	h.items = append(h.items, Item[T]{Key: key, Payload: payload})
	h.siftUp(len(h.items) - 1)
}

// Pop removes and returns the minimum-key item. ok is false when empty.
func (h *Min[T]) Pop() (payload T, key int64, ok bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, 0, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero Item[T]
	h.items[last] = zero // release reference
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top.Payload, top.Key, true
}

func (h *Min[T]) siftUp(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Key <= item.Key {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = item
}

func (h *Min[T]) siftDown(i int) {
	item := h.items[i]
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.items[right].Key < h.items[left].Key {
			child = right
		}
		if item.Key <= h.items[child].Key {
			break
		}
		h.items[i] = h.items[child]
		i = child
	}
	h.items[i] = item
}
