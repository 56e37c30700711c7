package core

import (
	"strings"
	"testing"

	"repro/internal/dag"
)

var testOverheads = Overheads{PDFDispatch: 40, WSPopLocal: 8, WSStealProbe: 16, WSStealXfer: 40}

// linearGraph builds a frozen chain of n nodes (so DF = creation order).
func linearGraph(n int) *dag.Graph {
	g := dag.New()
	nodes := make([]*dag.Node, n)
	for i := range nodes {
		nodes[i] = g.AddNode("n", nil)
	}
	g.Chain(nodes...)
	g.MustFreeze()
	return g
}

// wideGraph builds root -> n children -> join, frozen.
func wideGraph(n int) (*dag.Graph, []*dag.Node) {
	g := dag.New()
	root := g.AddNode("root", nil)
	join := g.AddNode("join", nil)
	kids := make([]*dag.Node, n)
	for i := range kids {
		kids[i] = g.AddNode("k", nil)
	}
	g.Fan(root, join, kids...)
	g.MustFreeze()
	return g, kids
}

func TestPDFPriorityOrder(t *testing.T) {
	g, kids := wideGraph(8)
	p := NewPDF(testOverheads)
	p.Reset(4, g)
	// Push in scrambled order; PDF must return ascending DF regardless.
	for _, i := range []int{5, 0, 7, 2, 6, 1, 4, 3} {
		p.Push(0, kids[i])
	}
	var prev int32 = -1
	for i := 0; i < 8; i++ {
		n, cost := p.Pop(CoreID(i % 4))
		if n == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		if cost != testOverheads.PDFDispatch {
			t.Fatalf("PDF dispatch cost %d, want %d", cost, testOverheads.PDFDispatch)
		}
		if n.DF <= prev {
			t.Fatalf("PDF order violated: %d after %d", n.DF, prev)
		}
		prev = n.DF
	}
	if n, _ := p.Pop(0); n != nil {
		t.Fatal("pop on empty returned a node")
	}
	s := p.Stats()
	if s.Pops != 8 || s.Pushes != 8 || s.EmptyPops != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestWSLocalLIFO(t *testing.T) {
	g, kids := wideGraph(4)
	w := NewWS(testOverheads, 1)
	w.Reset(2, g)
	for _, k := range kids {
		w.Push(0, k)
	}
	// Owner pops in LIFO order: last pushed first.
	for i := 3; i >= 0; i-- {
		n, cost := w.Pop(0)
		if n != kids[i] {
			t.Fatalf("owner pop got %v, want %v", n, kids[i])
		}
		if cost != testOverheads.WSPopLocal {
			t.Fatalf("local pop cost %d", cost)
		}
	}
}

func TestWSStealsOldest(t *testing.T) {
	g, kids := wideGraph(4)
	w := NewWS(testOverheads, 1)
	w.Reset(2, g)
	for _, k := range kids {
		w.Push(0, k)
	}
	// Core 1 is empty; it must steal the OLDEST task (kids[0]) from core 0.
	n, cost := w.Pop(1)
	if n != kids[0] {
		t.Fatalf("thief got %v, want oldest %v", n, kids[0])
	}
	if cost < testOverheads.WSPopLocal+testOverheads.WSStealProbe+testOverheads.WSStealXfer {
		t.Fatalf("steal cost %d too cheap", cost)
	}
	if w.Stats().Steals != 1 {
		t.Fatalf("steals = %d", w.Stats().Steals)
	}
}

func TestWSStealNewestVariant(t *testing.T) {
	g, kids := wideGraph(4)
	w := NewWS(testOverheads, 1)
	w.StealNewest = true
	w.Reset(2, g)
	for _, k := range kids {
		w.Push(0, k)
	}
	n, _ := w.Pop(1)
	if n != kids[3] {
		t.Fatalf("steal-newest got %v, want newest %v", n, kids[3])
	}
	if w.Name() != "ws-stealnewest" {
		t.Fatal("variant name wrong")
	}
}

func TestWSEmptyScanCost(t *testing.T) {
	g := linearGraph(3)
	w := NewWS(testOverheads, 7)
	w.Reset(4, g)
	n, cost := w.Pop(2)
	if n != nil {
		t.Fatal("empty scheduler returned work")
	}
	// Scans the 3 other queues: local pop + 3 probes.
	want := testOverheads.WSPopLocal + 3*testOverheads.WSStealProbe
	if cost != want {
		t.Fatalf("failed-steal cost %d, want %d", cost, want)
	}
	if w.Stats().FailedSteals != 1 {
		t.Fatalf("failed steals: %+v", w.Stats())
	}
}

func TestWSSingleCoreNoSelfSteal(t *testing.T) {
	g := linearGraph(2)
	w := NewWS(testOverheads, 1)
	w.Reset(1, g)
	if n, _ := w.Pop(0); n != nil {
		t.Fatal("single empty core found work")
	}
	if w.Stats().StealProbes != 0 {
		t.Fatal("single core probed itself")
	}
}

func TestWSDeterminismAcrossRuns(t *testing.T) {
	g, kids := wideGraph(6)
	runOnce := func() []dag.NodeID {
		w := NewWS(testOverheads, 99)
		w.Reset(3, g)
		for i, k := range kids {
			w.Push(CoreID(i%3), k)
		}
		var order []dag.NodeID
		for c := 0; ; c = (c + 1) % 3 {
			n, _ := w.Pop(CoreID(c))
			if n == nil {
				break
			}
			order = append(order, n.ID)
		}
		return order
	}
	a, b := runOnce(), runOnce()
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("lost tasks: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	g, kids := wideGraph(4)
	f := NewFIFO(10)
	f.Reset(2, g)
	for _, k := range kids {
		f.Push(0, k)
	}
	for i := 0; i < 4; i++ {
		n, cost := f.Pop(0)
		if n != kids[i] {
			t.Fatalf("FIFO pop %d got %v, want %v", i, n, kids[i])
		}
		if cost != 10 {
			t.Fatalf("FIFO cost %d", cost)
		}
	}
	if n, _ := f.Pop(0); n != nil {
		t.Fatal("empty FIFO returned work")
	}
}

// drain pops from core 0 until the scheduler finds no work and returns how
// many tasks it handed out; WS steals every other core's deque empty.
func drain(s Scheduler) int {
	n := 0
	for {
		if t, _ := s.Pop(0); t == nil {
			return n
		}
		n++
	}
}

func TestQueuedLen(t *testing.T) {
	g, kids := wideGraph(5)
	for _, s := range []Scheduler{NewPDF(testOverheads), NewWS(testOverheads, 1), NewFIFO(1)} {
		s.Reset(2, g)
		for i, k := range kids {
			s.Push(CoreID(i%2), k)
		}
		if n, _ := s.Pop(0); n == nil {
			t.Fatalf("%s Pop found none of 5 queued", s.Name())
		}
		if left := drain(s); left != 4 {
			t.Fatalf("%s queued after pop = %d, want 4", s.Name(), left)
		}
		if st := s.Stats(); st.Pushes != 5 || st.Pops != 5 {
			t.Fatalf("%s stats %+v: want 5 pushes and 5 pops", s.Name(), st)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	g, kids := wideGraph(3)
	for _, s := range []Scheduler{NewPDF(testOverheads), NewWS(testOverheads, 1), NewFIFO(1)} {
		s.Reset(2, g)
		for _, k := range kids {
			s.Push(0, k)
		}
		s.Reset(2, g)
		if s.Stats().Pushes != 0 {
			t.Fatalf("%s Reset left stats", s.Name())
		}
		if n := drain(s); n != 0 {
			t.Fatalf("%s Reset left %d queued", s.Name(), n)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"pdf", "ws", "ws-stealnewest", "fifo"} {
		s := ByName(name, testOverheads, 1)
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown name did not panic")
		}
	}()
	ByName("nope", testOverheads, 1)
}

func TestWSResetReusesDeques(t *testing.T) {
	g, kids := wideGraph(3)
	w := NewWS(testOverheads, 5)
	w.Reset(4, g)
	w.Push(0, kids[0])
	w.Reset(4, g) // same core count: reuse
	if drain(w) != 0 {
		t.Fatal("reused deques not cleared")
	}
	w.Reset(2, g) // different core count: reallocate
	if len(w.deques) != 2 {
		t.Fatalf("deque count %d after Reset(2)", len(w.deques))
	}
}

func TestLookupKnownNames(t *testing.T) {
	// Every advertised name must construct, and the constructed type must
	// match what ByName returns — Names, Lookup, and ByName stay in sync.
	for _, name := range Names() {
		s, err := Lookup(name, testOverheads, 1)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("Lookup(%q) returned nil scheduler", name)
		}
	}
}

func TestLookupUnknownNameListsValidSet(t *testing.T) {
	_, err := Lookup("bogus", testOverheads, 1)
	if err == nil {
		t.Fatal("unknown name did not error")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}
