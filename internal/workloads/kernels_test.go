package workloads

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

func randInts(rng *xprng.PRNG, n, span int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(span))
	}
	return out
}

func TestRecordedLeafSortSortsBothTargets(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, intoScratch bool) bool {
		n := int(nRaw)%200 + 1
		rng := xprng.New(seed)
		sp := mem.NewSpace(0)
		data := trace.NewArray[int64](sp, "d", n)
		scratch := trace.NewArray[int64](sp, "s", n)
		vals := randInts(rng, n, 50) // duplicates likely
		copy(data.Data, vals)
		var r trace.Recorder
		recordedLeafSort(&r, data, scratch, intoScratch)
		got := data.Data
		if intoScratch {
			got = scratch.Data
		}
		ref := append([]int64(nil), vals...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordedLeafSortRecordsTraffic(t *testing.T) {
	sp := mem.NewSpace(0)
	data := trace.NewArray[int64](sp, "d", 64)
	scratch := trace.NewArray[int64](sp, "s", 64)
	rng := xprng.New(1)
	copy(data.Data, randInts(rng, 64, 1000))
	var r trace.Recorder
	recordedLeafSort(&r, data, scratch, false)
	s := trace.Summarize(r.Actions())
	// Bottom-up sort: ~n log n loads and n log n stores.
	minOps := int64(64 * 6) // 6 levels
	if s.Loads < minOps || s.Stores < minOps {
		t.Fatalf("leaf sort trace too small: %+v", s)
	}
}

func TestCorankSplitsAreExactMergePrefixes(t *testing.T) {
	if err := quick.Check(func(seed uint64, naRaw, nbRaw uint8) bool {
		na, nb := int(naRaw)%60+1, int(nbRaw)%60+1
		rng := xprng.New(seed)
		sp := mem.NewSpace(0)
		a := trace.NewArray[int64](sp, "a", na)
		b := trace.NewArray[int64](sp, "b", nb)
		av, bv := randInts(rng, na, 20), randInts(rng, nb, 20)
		sort.Slice(av, func(i, j int) bool { return av[i] < av[j] })
		sort.Slice(bv, func(i, j int) bool { return bv[i] < bv[j] })
		copy(a.Data, av)
		copy(b.Data, bv)
		ref := stableMerge(av, bv)
		var r trace.Recorder
		for k := 0; k <= na+nb; k++ {
			i, j := corank(&r, k, a, b)
			if i+j != k {
				return false
			}
			// The first k outputs of the merge must be exactly
			// merge(a[:i], b[:j]).
			head := stableMerge(av[:i], bv[:j])
			for x := range head {
				if head[x] != ref[x] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func stableMerge(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

func TestMergeSegmentsComposeToFullMerge(t *testing.T) {
	if err := quick.Check(func(seed uint64, naRaw, nbRaw, segRaw uint8) bool {
		na, nb := int(naRaw)%80+1, int(nbRaw)%80+1
		segLen := int(segRaw)%17 + 1
		rng := xprng.New(seed)
		sp := mem.NewSpace(0)
		a := trace.NewArray[int64](sp, "a", na)
		b := trace.NewArray[int64](sp, "b", nb)
		out := trace.NewArray[int64](sp, "o", na+nb)
		av, bv := randInts(rng, na, 15), randInts(rng, nb, 15)
		sort.Slice(av, func(i, j int) bool { return av[i] < av[j] })
		sort.Slice(bv, func(i, j int) bool { return bv[i] < bv[j] })
		copy(a.Data, av)
		copy(b.Data, bv)
		var r trace.Recorder
		for k0 := 0; k0 < na+nb; k0 += segLen {
			k1 := min(k0+segLen, na+nb)
			recordedMergeSegment(&r, a, b, out, k0, k1)
		}
		ref := stableMerge(av, bv)
		for i := range ref {
			if out.Data[i] != ref[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelPartitionInvariant(t *testing.T) {
	// counts -> offsets -> scatter must produce a valid partition of the
	// multiset: everything below the pivot first, the rest after, and the
	// two side-lengths must agree with the counts.
	if err := quick.Check(func(seed uint64, nRaw uint8, grainRaw uint8) bool {
		n := int(nRaw)%200 + 4
		grain := int(grainRaw)%32 + 1
		rng := xprng.New(seed)
		sp := mem.NewSpace(0)
		src := trace.NewArray[int64](sp, "src", n)
		dst := trace.NewArray[int64](sp, "dst", n)
		vals := randInts(rng, n, 30)
		copy(src.Data, vals)
		var r trace.Recorder
		pivot := choosePivot(&r, src, 0, n)
		blocks := splitRanges(0, n, grain)
		below := make([]int, len(blocks))
		for i, blk := range blocks {
			below[i] = countBelow(&r, src, blk.lo, blk.hi, pivot)
		}
		offB, offA := prefixOffsets(below, blocks, 0)
		for i, blk := range blocks {
			scatterBlock(&r, src, dst, blk.lo, blk.hi, pivot, offB[i], offA[i])
		}
		mid := offB[len(offB)-1] + below[len(below)-1]
		for i, v := range dst.Data {
			if i < mid && v >= pivot {
				return false
			}
			if i >= mid && v < pivot {
				return false
			}
		}
		// Multiset preserved.
		ref := append([]int64(nil), vals...)
		got := append([]int64(nil), dst.Data...)
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		for i := range ref {
			if ref[i] != got[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRangesCoverAndOrder(t *testing.T) {
	if err := quick.Check(func(nRaw uint16, spanRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		span := int(spanRaw)%64 + 1
		ranges := splitRanges(0, n, span)
		next := 0
		for _, r := range ranges {
			if r.lo != next || r.hi <= r.lo || r.hi-r.lo > span {
				return false
			}
			next = r.hi
		}
		return next == n
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockMultiplyMatchesReference(t *testing.T) {
	const n = 8
	sp := mem.NewSpace(0)
	A := trace.NewArray[float64](sp, "A", n*n)
	B := trace.NewArray[float64](sp, "B", n*n)
	C := trace.NewArray[float64](sp, "C", n*n)
	rng := xprng.New(3)
	for i := range A.Data {
		A.Data[i] = rng.Float64()
		B.Data[i] = rng.Float64()
	}
	var r trace.Recorder
	recordedBlockMultiply(&r, A, B, C, n, 0, 0, 0, 0, 0, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for k := 0; k < n; k++ {
				want += A.Data[i*n+k] * B.Data[k*n+j]
			}
			if math.Abs(C.Data[i*n+j]-want) > 1e-12 {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, C.Data[i*n+j], want)
			}
		}
	}
}

func TestIterativeFFTMatchesDFT(t *testing.T) {
	const n = 64
	sp := mem.NewSpace(0)
	arr := buf{trace.NewArray[float64](sp, "re", n), trace.NewArray[float64](sp, "im", n)}
	rng := xprng.New(5)
	inRe := make([]float64, n)
	inIm := make([]float64, n)
	for i := 0; i < n; i++ {
		inRe[i] = rng.Float64()*2 - 1
		inIm[i] = rng.Float64()*2 - 1
		arr.re.Data[i] = inRe[i]
		arr.im.Data[i] = inIm[i]
	}
	var r trace.Recorder
	recordedIterativeFFT(&r, arr, 0, n)
	for k := 0; k < n; k++ {
		var wr, wi float64
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			wr += inRe[j]*c - inIm[j]*s
			wi += inRe[j]*s + inIm[j]*c
		}
		if math.Hypot(arr.re.Data[k]-wr, arr.im.Data[k]-wi) > 1e-9*n {
			t.Fatalf("bin %d: (%v,%v), want (%v,%v)", k, arr.re.Data[k], arr.im.Data[k], wr, wi)
		}
	}
}

func TestLeafDim(t *testing.T) {
	cases := map[int]int{1: 4, 16: 4, 64: 8, 256: 16, 1024: 32, 2048: 32, 4096: 64}
	for grain, want := range cases {
		if got := leafDim(grain); got != want {
			t.Errorf("leafDim(%d) = %d, want %d", grain, got, want)
		}
	}
}

func TestMedian3(t *testing.T) {
	if median3(1, 2, 3) != 2 || median3(3, 1, 2) != 2 || median3(2, 3, 1) != 2 ||
		median3(5, 5, 1) != 5 || median3(7, 7, 7) != 7 {
		t.Fatal("median3 wrong")
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Name: "mergesort", N: 100, Grain: 10, Seed: 1}
	if s.String() == "" {
		t.Fatal("empty spec string")
	}
}
