package trace

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
)

// TestComputeCoalescing: a leading run of computes stays one standalone
// Compute; later runs fold into the preceding memory action's post, until
// a run outgrows maxPost and moves out, whole, into a standalone Compute
// that later computes coalesce into. Summarize counts every post as
// compute cycles and instructions.
func TestComputeCoalescing(t *testing.T) {
	var r Recorder
	r.Compute(3)
	r.Compute(4)
	r.Load(100)
	r.Compute(1)
	r.Compute(2)
	r.Store(200)
	r.Compute(maxPost - 1)
	r.Compute(1)
	r.Compute(1)
	r.Compute(5)
	r.Load(300)
	acts := r.Actions()
	if len(acts) != 5 {
		t.Fatalf("got %d actions, want 5 (coalesced): %#x", len(acts), acts)
	}
	if acts[0].Kind() != Compute || acts[0].N() != 7 {
		t.Fatalf("first action = %#x, want compute 7", acts[0])
	}
	if acts[1].Kind() != Load || acts[1].Line(kindBits) != 100>>kindBits || acts[1].Post() != 3 {
		t.Fatalf("second action = %#x, want a load of 100 with post 3", acts[1])
	}
	if acts[2].Kind() != Store || acts[2].Line(kindBits) != 200>>kindBits || acts[2].Post() != 0 {
		t.Fatalf("third action = %#x, want a store of 200 whose post moved out", acts[2])
	}
	if acts[3].Kind() != Compute || acts[3].N() != maxPost+6 {
		t.Fatalf("fourth action = %#x, want compute %d", acts[3], maxPost+6)
	}
	if acts[4].Kind() != Load || acts[4].Post() != 0 {
		t.Fatalf("last action = %#x, want a load without post", acts[4])
	}
	const cycles = 7 + 3 + maxPost + 6
	s := Summarize(acts)
	if s.ComputeCyc != cycles || s.Instructions != cycles+3 || s.Loads != 2 || s.Stores != 1 || s.Actions != 5 {
		t.Fatalf("summary %+v, want %d compute cycles, %d instructions", s, cycles, cycles+3)
	}
}

// TestComputeCoalescingPast32Bits: a coalesced run's cycle count is exact
// beyond 2^32, where a 32-bit count would wrap.
func TestComputeCoalescingPast32Bits(t *testing.T) {
	var r Recorder
	r.Compute(1<<32 - 1)
	r.Compute(2)
	for i := 0; i < 3; i++ {
		r.Compute(3_000_000_000)
	}
	const want = 1<<32 + 1 + 9_000_000_000
	acts := r.Actions()
	if len(acts) != 1 || acts[0].Kind() != Compute || acts[0].N() != want {
		t.Fatalf("actions %#x, want one compute of %d", acts, want)
	}
	if s := Summarize(acts); s.ComputeCyc != want || s.Instructions != want {
		t.Fatalf("summary %+v, want %d compute cycles and instructions", s, want)
	}
}

func TestActionIsOneWord(t *testing.T) {
	if n := unsafe.Sizeof(Action(0)); n != 8 {
		t.Fatalf("Action is %d bytes, want 8", n)
	}
	if a := Action(0); a.Kind() != Compute || a.N() != 0 || a.Instructions() != 0 {
		t.Fatalf("zero Action decodes as %v of %d, want a compute of 0", a.Kind(), a.N())
	}
}

// TestActionEncodingRoundTrip decodes the highest address any space can
// hand out — space 255, the top 8-aligned offset of its 40-bit range —
// under the largest post, and large compute counts.
func TestActionEncodingRoundTrip(t *testing.T) {
	top := mem.Addr(255)<<40 | (1<<40 - 8)
	if mem.SpaceOf(top) != 255 {
		t.Fatalf("SpaceOf(%#x) = %d, want 255", top, mem.SpaceOf(top))
	}
	if top >= 1<<postShift {
		t.Fatalf("top address %#x reaches the post bits", top)
	}
	var r Recorder
	r.Load(top)
	r.Compute(maxPost)
	r.Store(top)
	r.Compute(5)
	r.Compute(1<<40 + 3)
	acts := r.Actions()
	if len(acts) != 3 {
		t.Fatalf("got %d actions, want 3: %#x", len(acts), acts)
	}
	for i, want := range []Kind{Load, Store, Compute} {
		if acts[i].Kind() != want {
			t.Fatalf("action %d (%#x) is a %v, want a %v", i, acts[i], acts[i].Kind(), want)
		}
	}
	for shift := uint(3); shift <= 12; shift++ {
		for _, i := range []int{0, 1} {
			if got, want := acts[i].Line(shift), uint64(top)>>shift; got != want {
				t.Fatalf("%v Line(%d) = %#x, want %#x", acts[i].Kind(), shift, got, want)
			}
		}
	}
	if acts[0].Post() != maxPost || acts[0].Instructions() != 1+maxPost {
		t.Fatalf("load post %d (%d instructions), want %d", acts[0].Post(), acts[0].Instructions(), maxPost)
	}
	if acts[1].Post() != 0 || acts[2].N() != 1<<40+8 {
		t.Fatalf("store post %d, compute %d; want 0, %d", acts[1].Post(), acts[2].N(), int64(1<<40+8))
	}
}

func TestComputeZeroIgnored(t *testing.T) {
	var r Recorder
	r.Compute(0)
	r.Compute(-5)
	if len(r.Actions()) != 0 {
		t.Fatalf("zero/negative compute recorded: %v", r.Actions())
	}
}

func TestInstructionsCount(t *testing.T) {
	var r Recorder
	r.Compute(10)
	r.Load(0)
	r.Store(8)
	if got := Summarize(r.Actions()).Instructions; got != 12 {
		t.Fatalf("Instructions = %d, want 12", got)
	}
}

func TestReset(t *testing.T) {
	var r Recorder
	r.Load(1)
	r.Reset()
	if len(r.Actions()) != 0 {
		t.Fatal("Reset did not clear")
	}
	r.Compute(2)
	if len(r.Actions()) != 1 {
		t.Fatal("recorder unusable after Reset")
	}
}

func TestSummarize(t *testing.T) {
	var r Recorder
	r.Compute(5)
	r.Load(0)
	r.Load(8)
	r.Store(16)
	s := Summarize(r.Actions())
	if s.Loads != 2 || s.Stores != 1 || s.ComputeCyc != 5 || s.Instructions != 8 || s.Actions != 4 {
		t.Fatalf("bad summary: %+v", s)
	}
}

func TestInt64sRoundTrip(t *testing.T) {
	sp := mem.NewSpace(0)
	a := NewArray[int64](sp, "a", 16)
	var r Recorder
	for i := 0; i < 16; i++ {
		a.Set(&r, i, int64(i*i))
	}
	for i := 0; i < 16; i++ {
		if got := a.Get(&r, i); got != int64(i*i) {
			t.Fatalf("a[%d] = %d, want %d", i, got, i*i)
		}
	}
	s := Summarize(r.Actions())
	if s.Loads != 16 || s.Stores != 16 {
		t.Fatalf("trace mismatch: %+v", s)
	}
}

func TestInt64sAddresses(t *testing.T) {
	sp := mem.NewSpace(0)
	a := NewArray[int64](sp, "a", 8)
	if err := quick.Check(func(iRaw uint8) bool {
		i := int(iRaw % 8)
		return a.Addr(i) == a.Base+mem.Addr(i*8)
	}, nil); err != nil {
		t.Fatal(err)
	}
	// The simulator maps each access to the one line holding its address,
	// which is exact only while every element is naturally aligned.
	sp = mem.NewSpace(1)
	checkAligned(t, NewArray[int32](sp, "i32", 37), 4)
	checkAligned(t, NewArray[int64](sp, "i64", 37), 8)
	checkAligned(t, NewArray[float64](sp, "f64", 37), 8)
}

// checkAligned asserts that every element address of a, directly and through
// each of its slices, is a multiple of size, so its two low bits — where an
// Action keeps its Kind — are zero and its recorded load and store decode
// back to its address and kind.
func checkAligned[E int32 | int64 | float64](t *testing.T, a Array[E], size mem.Addr) {
	t.Helper()
	check := func(label string, b Array[E], i int) {
		t.Helper()
		addr := b.Addr(i)
		if addr%size != 0 || addr&(1<<kindBits-1) != 0 {
			t.Fatalf("%T %s.Addr(%d) = %#x, not %d-aligned", a, label, i, addr, size)
		}
		var r Recorder
		b.Set(&r, i, b.Get(&r, i))
		ld, st := r.Actions()[0], r.Actions()[1]
		if ld.Kind() != Load || st.Kind() != Store || ld.Line(kindBits) != uint64(addr)>>kindBits || st.Line(kindBits) != uint64(addr)>>kindBits {
			t.Fatalf("%T %s element %d at %#x recorded as %#x, %#x", a, label, i, addr, ld, st)
		}
	}
	for lo := 0; lo < a.Len(); lo++ {
		for hi := lo; hi <= a.Len(); hi += 7 {
			s := a.Slice(lo, hi)
			for i := 0; i < s.Len(); i++ {
				check(fmt.Sprintf("Slice(%d,%d)", lo, hi), s, i)
			}
		}
		check("", a, lo)
	}
}

func TestInt64sSlice(t *testing.T) {
	sp := mem.NewSpace(0)
	a := NewArray[int64](sp, "a", 32)
	var r Recorder
	a.Set(&r, 10, 77)
	sub := a.Slice(8, 16)
	if sub.Len() != 8 {
		t.Fatalf("slice len %d", sub.Len())
	}
	if got := sub.Get(&r, 2); got != 77 {
		t.Fatalf("slice data not shared: %d", got)
	}
	if sub.Addr(2) != a.Addr(10) {
		t.Fatalf("slice addr mapping broken: %x vs %x", sub.Addr(2), a.Addr(10))
	}
}

func TestFloat64sAndInt32s(t *testing.T) {
	sp := mem.NewSpace(0)
	f := NewArray[float64](sp, "f", 4)
	x := NewArray[int32](sp, "x", 4)
	var r Recorder
	f.Set(&r, 1, 3.5)
	x.Set(&r, 2, -9)
	if f.Get(&r, 1) != 3.5 || x.Get(&r, 2) != -9 {
		t.Fatal("typed array round trip failed")
	}
	if x.Addr(1)-x.Addr(0) != 4 {
		t.Fatalf("int32 stride = %d, want 4", x.Addr(1)-x.Addr(0))
	}
	if f.Addr(1)-f.Addr(0) != 8 {
		t.Fatalf("float64 stride = %d, want 8", f.Addr(1)-f.Addr(0))
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}
