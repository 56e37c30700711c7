package trace

import (
	"unsafe"

	"repro/internal/mem"
)

// Array couples a real Go slice with its simulated base address so workload
// code can compute on live data while recording the corresponding simulated
// references. Elements are 4 or 8 bytes and every base is 64-byte aligned,
// so each element is naturally aligned and one recorded access touches
// exactly one cache line of at least 8 bytes.
type Array[E int32 | int64 | float64] struct {
	Base mem.Addr
	Data []E
}

// NewArray allocates an n-element array named name in space s. The backing
// slice is tracked by the space, so Space.Freeze/Reset snapshot and restore
// its contents (the workload layer's build-once/run-many lifecycle).
func NewArray[E int32 | int64 | float64](s *mem.Space, name string, n int) Array[E] {
	var zero E
	a := Array[E]{Base: s.Alloc(name, uint64(n)*uint64(unsafe.Sizeof(zero)), 64), Data: make([]E, n)}
	mem.Track(s, a.Data)
	return a
}

// Addr returns the simulated address of element i.
func (a Array[E]) Addr(i int) mem.Addr {
	var zero E
	return a.Base + mem.Addr(i)*mem.Addr(unsafe.Sizeof(zero))
}

// Get reads element i, recording the load.
func (a Array[E]) Get(r *Recorder, i int) E {
	r.Load(a.Addr(i))
	return a.Data[i]
}

// Set writes element i, recording the store.
func (a Array[E]) Set(r *Recorder, i int, v E) {
	r.Store(a.Addr(i))
	a.Data[i] = v
}

// Slice returns a view of elements [lo, hi) sharing the same backing data
// and address mapping.
func (a Array[E]) Slice(lo, hi int) Array[E] {
	return Array[E]{Base: a.Addr(lo), Data: a.Data[lo:hi]}
}

// Len returns the element count.
func (a Array[E]) Len() int { return len(a.Data) }
