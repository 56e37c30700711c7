package trace

import (
	"testing"

	"repro/internal/mem"
)

// BenchmarkRecorder is the recording layer's cost: ns per Load, Store or
// Compute call appending into a reused buffer, as a dispatched task's
// closure makes them. In "compute" the computes follow one another, so all
// but the first of each batch coalesce into the previous action; in
// "load-compute" one op is a Load and the Compute that folds into its post.
func BenchmarkRecorder(b *testing.B) {
	const batch = 4096 // actions per Reset; a quick-sweep task records ~17K
	var r Recorder
	r.Adopt(make([]Action, 0, batch))
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				r.Reset()
			}
			r.Load(mem.Addr(4096 + 8*(i%batch)))
		}
	})
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				r.Reset()
			}
			r.Store(mem.Addr(4096 + 8*(i%batch)))
		}
	})
	b.Run("compute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				r.Reset()
			}
			r.Compute(3)
		}
	})
	b.Run("load-compute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				r.Reset()
			}
			r.Load(mem.Addr(4096 + 8*(i%batch)))
			r.Compute(3)
		}
	})
}
