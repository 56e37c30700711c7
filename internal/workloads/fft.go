package workloads

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// buildFFT constructs a recursive radix-2 decimation-in-time FFT of N
// complex points (stored as separate re/im float64 arrays, with a second
// buffer pair for the even/odd shuffle). Each recursion level shuffles its
// range into the scratch buffer, transforms the two halves in parallel, and
// recombines with a parallel butterfly pass cut into ~Grain-sized segments.
// Leaves run a real recorded iterative in-place FFT.
//
// Like mergesort, the FFT re-reads at each level exactly what the previous
// level just produced, so it is the paper's divide-and-conquer class:
// constructive sharing keeps that between-level reuse inside the shared L2.
func buildFFT(s Spec) *Instance {
	n := s.N // power of two >= 2, enforced by shapeErr before dispatch
	grain := s.Grain
	if grain < 4 {
		grain = 4
	}

	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	re := trace.NewArray[float64](space, "re", n)
	im := trace.NewArray[float64](space, "im", n)
	sre := trace.NewArray[float64](space, "scratch-re", n)
	sim := trace.NewArray[float64](space, "scratch-im", n)

	rng := xprng.New(s.Seed)
	for i := 0; i < n; i++ {
		re.Data[i] = rng.Float64()*2 - 1
		im.Data[i] = rng.Float64()*2 - 1
	}
	inRe := append([]float64(nil), re.Data...)
	inIm := append([]float64(nil), im.Data...)

	g := dag.New()
	root := g.AddNode("start", nil)
	fftDAG(g, root, buf{re, im}, buf{sre, sim}, 0, n, grain)

	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			return verifyFFTProbes(inRe, inIm, re.Data, im.Data, s.Seed)
		},
	}
}

// buf pairs the real and imaginary arrays of one complex buffer.
type buf struct {
	re, im trace.Array[float64]
}

// fftDAG emits tasks transforming arr[off:off+n] in place (result in arr),
// using scr[off:off+n] as shuffle space. Returns the exit node.
func fftDAG(g *dag.Graph, parent *dag.Node, arr, scr buf, off, n, grain int) *dag.Node {
	if n <= grain {
		t := g.AddNode(fmt.Sprintf("fft%d@%d", n, off), func(r *trace.Recorder) {
			recordedIterativeFFT(r, arr, off, n)
		})
		g.AddEdge(parent, t)
		return t
	}
	h := n / 2
	shuffle := g.AddNode(fmt.Sprintf("shuffle%d@%d", n, off), func(r *trace.Recorder) {
		for i := 0; i < h; i++ {
			scr.re.Set(r, off+i, arr.re.Get(r, off+2*i))
			scr.im.Set(r, off+i, arr.im.Get(r, off+2*i))
			scr.re.Set(r, off+h+i, arr.re.Get(r, off+2*i+1))
			scr.im.Set(r, off+h+i, arr.im.Get(r, off+2*i+1))
		}
	})
	g.AddEdge(parent, shuffle)
	evenExit := fftDAG(g, shuffle, scr, arr, off, h, grain)
	oddExit := fftDAG(g, shuffle, scr, arr, off+h, h, grain)

	join := g.AddNode(fmt.Sprintf("fft%d@%d.done", n, off), nil)
	nseg := (h + grain - 1) / grain
	segLen := (h + nseg - 1) / nseg
	for k0 := 0; k0 < h; k0 += segLen {
		k1 := min(k0+segLen, h)
		k0, k1 := k0, k1
		comb := g.AddNode(fmt.Sprintf("combine%d@%d[%d:%d]", n, off, k0, k1), func(r *trace.Recorder) {
			for k := k0; k < k1; k++ {
				// Twiddle w = e^{-2πik/n}; computed, not loaded.
				ang := -2 * math.Pi * float64(k) / float64(n)
				wr, wi := math.Cos(ang), math.Sin(ang)
				er := scr.re.Get(r, off+k)
				ei := scr.im.Get(r, off+k)
				or := scr.re.Get(r, off+h+k)
				oi := scr.im.Get(r, off+h+k)
				r.Compute(10) // twiddle + complex multiply-add
				tr := wr*or - wi*oi
				ti := wr*oi + wi*or
				arr.re.Set(r, off+k, er+tr)
				arr.im.Set(r, off+k, ei+ti)
				arr.re.Set(r, off+h+k, er-tr)
				arr.im.Set(r, off+h+k, ei-ti)
			}
		})
		g.AddEdge(evenExit, comb)
		g.AddEdge(oddExit, comb)
		g.AddEdge(comb, join)
	}
	return join
}

// recordedIterativeFFT is the real in-place radix-2 FFT (bit-reversal then
// butterfly sweeps) over arr[off:off+n], fully recorded.
func recordedIterativeFFT(r *trace.Recorder, arr buf, off, n int) {
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		r.Compute(2)
		if i < j {
			ri := arr.re.Get(r, off+i)
			ii := arr.im.Get(r, off+i)
			rj := arr.re.Get(r, off+j)
			ij := arr.im.Get(r, off+j)
			arr.re.Set(r, off+i, rj)
			arr.im.Set(r, off+i, ij)
			arr.re.Set(r, off+j, ri)
			arr.im.Set(r, off+j, ii)
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		for start := 0; start < n; start += length {
			for k := 0; k < length/2; k++ {
				wr := math.Cos(ang * float64(k))
				wi := math.Sin(ang * float64(k))
				i := off + start + k
				j := i + length/2
				ar := arr.re.Get(r, i)
				ai := arr.im.Get(r, i)
				br := arr.re.Get(r, j)
				bi := arr.im.Get(r, j)
				r.Compute(10)
				tr := wr*br - wi*bi
				ti := wr*bi + wi*br
				arr.re.Set(r, i, ar+tr)
				arr.im.Set(r, i, ai+ti)
				arr.re.Set(r, j, ar-tr)
				arr.im.Set(r, j, ai-ti)
			}
		}
	}
}

// verifyFFTProbes validates a handful of output bins against the direct
// O(n)-per-bin DFT definition.
func verifyFFTProbes(inRe, inIm, outRe, outIm []float64, seed uint64) error {
	n := len(inRe)
	rng := xprng.New(seed ^ 0xff7)
	bins := []int{0, 1, n / 2}
	for i := 0; i < 3; i++ {
		bins = append(bins, rng.Intn(n))
	}
	for _, k := range bins {
		var wantR, wantI float64
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			wantR += inRe[j]*c - inIm[j]*s
			wantI += inRe[j]*s + inIm[j]*c
		}
		scale := 1 + math.Hypot(wantR, wantI)
		if math.Hypot(outRe[k]-wantR, outIm[k]-wantI)/scale > 1e-7*float64(n) {
			return fmt.Errorf("fft: bin %d = (%g,%g), want (%g,%g)", k, outRe[k], outIm[k], wantR, wantI)
		}
	}
	return nil
}
