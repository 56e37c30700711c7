package deque

import (
	"testing"
	"testing/quick"

	"repro/internal/xprng"
)

func TestEmpty(t *testing.T) {
	var d Deque[int]
	if d.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	if _, ok := d.PopTop(); ok {
		t.Fatal("PopTop on empty returned ok")
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("PopBottom on empty returned ok")
	}
}

func TestLIFOOwnerOrder(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 10; i++ {
		d.PushTop(i)
	}
	for want := 9; want >= 0; want-- {
		v, ok := d.PopTop()
		if !ok || v != want {
			t.Fatalf("PopTop got (%d,%v), want %d", v, ok, want)
		}
	}
}

func TestFIFOStealOrder(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 10; i++ {
		d.PushTop(i)
	}
	for want := 0; want < 10; want++ {
		v, ok := d.PopBottom()
		if !ok || v != want {
			t.Fatalf("PopBottom got (%d,%v), want %d", v, ok, want)
		}
	}
}

func TestMixedEndsAgainstReference(t *testing.T) {
	// Model: reference slice where index 0 = bottom (oldest).
	if err := quick.Check(func(seed uint64, opsRaw uint16) bool {
		ops := int(opsRaw)%500 + 1
		rng := xprng.New(seed)
		var d Deque[int]
		var ref []int
		next := 0
		for i := 0; i < ops; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				d.PushTop(next)
				ref = append(ref, next)
				next++
			case 2:
				v, ok := d.PopTop()
				if len(ref) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !ok || v != want {
					return false
				}
			case 3:
				v, ok := d.PopBottom()
				if len(ref) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				if !ok || v != want {
					return false
				}
			}
			if d.Len() != len(ref) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthAcrossWrap(t *testing.T) {
	var d Deque[int]
	// Force head to advance, then grow across the wrap point.
	for i := 0; i < 8; i++ {
		d.PushTop(i)
	}
	for i := 0; i < 5; i++ {
		d.PopBottom()
	}
	for i := 8; i < 40; i++ {
		d.PushTop(i)
	}
	for want := 5; want < 40; want++ {
		v, ok := d.PopBottom()
		if !ok || v != want {
			t.Fatalf("after wrap/grow: got (%d,%v), want %d", v, ok, want)
		}
	}
}

func TestReset(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 20; i++ {
		d.PushTop(i)
	}
	d.PopBottom()
	d.Reset()
	if d.Len() != 0 {
		t.Fatal("Reset left elements")
	}
	d.PushTop(42)
	if v, ok := d.PopTop(); !ok || v != 42 {
		t.Fatal("deque unusable after Reset")
	}
}

func BenchmarkPushPopTop(b *testing.B) {
	var d Deque[int]
	for i := 0; i < b.N; i++ {
		d.PushTop(i)
		if d.Len() > 32 {
			d.PopTop()
		}
	}
}
