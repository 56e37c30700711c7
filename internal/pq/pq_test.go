package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xprng"
)

func TestEmptyPop(t *testing.T) {
	var h Min[string]
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if h.Len() != 0 {
		t.Fatal("empty heap has nonzero Len")
	}
}

func TestOrdering(t *testing.T) {
	var h Min[int]
	keys := []int64{5, 1, 9, 3, 3, 7, 0, -2}
	for i, k := range keys {
		h.Push(k, i)
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		_, k, ok := h.Pop()
		if !ok || k != want {
			t.Fatalf("pop %d: got key %d ok=%v, want %d", i, k, ok, want)
		}
	}
}

func TestPayloadAssociation(t *testing.T) {
	var h Min[string]
	h.Push(2, "two")
	h.Push(1, "one")
	h.Push(3, "three")
	p, k, _ := h.Pop()
	if p != "one" || k != 1 {
		t.Fatalf("got (%q,%d), want (one,1)", p, k)
	}
}

func TestHeapPropertyRandom(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := xprng.New(seed)
		var h Min[int]
		pushed := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			k := rng.Int63n(50)
			h.Push(k, i)
			pushed = append(pushed, k)
		}
		sort.Slice(pushed, func(i, j int) bool { return pushed[i] < pushed[j] })
		for _, want := range pushed {
			_, k, ok := h.Pop()
			if !ok || k != want {
				return false
			}
		}
		_, _, ok := h.Pop()
		return !ok
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	rng := xprng.New(77)
	var h Min[int]
	var lastPopped int64 = -1 << 62
	live := 0
	for step := 0; step < 10000; step++ {
		if live == 0 || rng.Intn(2) == 0 {
			// Keys only grow over time, so popped order must be
			// non-decreasing under this access pattern.
			h.Push(int64(step), step)
			live++
		} else {
			_, k, ok := h.Pop()
			if !ok {
				t.Fatal("pop failed with live items")
			}
			if k < lastPopped {
				t.Fatalf("popped %d after %d", k, lastPopped)
			}
			lastPopped = k
			live--
		}
	}
}

func TestReset(t *testing.T) {
	var h Min[int]
	for i := 0; i < 10; i++ {
		h.Push(int64(i), i)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty heap")
	}
	h.Push(5, 5)
	if _, k, ok := h.Pop(); !ok || k != 5 {
		t.Fatal("heap unusable after Reset")
	}
}

func BenchmarkPushPop(b *testing.B) {
	var h Min[int]
	rng := xprng.New(1)
	for i := 0; i < b.N; i++ {
		h.Push(rng.Int63n(1<<30), i)
		if h.Len() > 64 {
			h.Pop()
		}
	}
}
