package rctree

import (
	"math"
	"testing"

	"vabuf/internal/geom"
)

// chainTree builds driver → steiner → sink with the given wire lengths.
func chainTree(l1, l2 float64) (*Tree, NodeID, NodeID) {
	t := New(DefaultWire, 0.5, geom.Point{X: 0, Y: 0})
	s := t.AddSteiner(t.Root, geom.Point{X: l1, Y: 0}, l1)
	k := t.AddSink(s, geom.Point{X: l1 + l2, Y: 0}, l2, 10, 0)
	return t, s, k
}

// forkTree builds a driver with one steiner that fans out to two sinks.
func forkTree() (*Tree, NodeID, NodeID, NodeID) {
	t := New(DefaultWire, 0.5, geom.Point{})
	s := t.AddSteiner(t.Root, geom.Point{X: 100, Y: 0}, 100)
	a := t.AddSink(s, geom.Point{X: 200, Y: 50}, 150, 10, 0)
	b := t.AddSink(s, geom.Point{X: 200, Y: -50}, 150, 20, -100)
	return t, s, a, b
}

func TestTreeConstruction(t *testing.T) {
	tr, s, k := chainTree(100, 200)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.NumSinks() != 1 || tr.NumBufferPositions() != 2 {
		t.Errorf("sinks=%d positions=%d", tr.NumSinks(), tr.NumBufferPositions())
	}
	if got := tr.Sinks(); len(got) != 1 || got[0] != k {
		t.Errorf("Sinks = %v", got)
	}
	if tr.Node(s).Kind != KindSteiner || tr.Node(k).Kind != KindSink {
		t.Error("node kinds wrong")
	}
	if tr.TotalWireLength() != 300 {
		t.Errorf("total wire = %g", tr.TotalWireLength())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindDriver.String() != "driver" || KindSink.String() != "sink" ||
		KindSteiner.String() != "steiner" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestPostOrderChildrenFirst(t *testing.T) {
	tr, s, a, b := forkTree()
	order := tr.PostOrder()
	if len(order) != 4 {
		t.Fatalf("post order covers %d nodes", len(order))
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	if !(pos[a] < pos[s] && pos[b] < pos[s] && pos[s] < pos[tr.Root]) {
		t.Errorf("post order wrong: %v", order)
	}
	if order[len(order)-1] != tr.Root {
		t.Error("root not last")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		breakIt func(*Tree)
	}{
		{"sink with child", func(tr *Tree) {
			tr.Nodes[2].Kind = KindSteiner
			tr.Nodes[1].Kind = KindSink // steiner (has child) relabeled sink
		}},
		{"negative wire", func(tr *Tree) { tr.Nodes[1].WireLen = -5 }},
		{"negative load", func(tr *Tree) { tr.Nodes[2].CapLoad = -1 }},
		{"root buffered", func(tr *Tree) { tr.Nodes[0].BufferOK = true }},
		{"two drivers", func(tr *Tree) { tr.Nodes[1].Kind = KindDriver }},
		{"bad wire params", func(tr *Tree) { tr.Wire.R = 0 }},
		{"negative driver R", func(tr *Tree) { tr.DriverR = -1 }},
		{"orphan child link", func(tr *Tree) { tr.Nodes[1].Children = nil }},
		{"id mismatch", func(tr *Tree) { tr.Nodes[2].ID = 7 }},
		{"leaf steiner", func(tr *Tree) { tr.Nodes[2].Kind = KindSteiner }},
		{"NaN wire R", func(tr *Tree) { tr.Wire.R = math.NaN() }},
		{"NaN wire C", func(tr *Tree) { tr.Wire.C = math.NaN() }},
		{"infinite wire R", func(tr *Tree) { tr.Wire.R = math.Inf(1) }},
		{"NaN driver R", func(tr *Tree) { tr.DriverR = math.NaN() }},
		{"infinite driver R", func(tr *Tree) { tr.DriverR = math.Inf(1) }},
		{"NaN load", func(tr *Tree) { tr.Nodes[2].CapLoad = math.NaN() }},
		{"infinite load", func(tr *Tree) { tr.Nodes[2].CapLoad = math.Inf(1) }},
		{"NaN wire length", func(tr *Tree) { tr.Nodes[1].WireLen = math.NaN() }},
		{"infinite wire length", func(tr *Tree) { tr.Nodes[1].WireLen = math.Inf(1) }},
		{"NaN RAT", func(tr *Tree) { tr.Nodes[2].RAT = math.NaN() }},
	}
	for _, c := range cases {
		tr, _, _ := chainTree(100, 100)
		c.breakIt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt tree", c.name)
		}
	}
	if err := (&Tree{}).Validate(); err == nil {
		t.Error("empty tree validated")
	}
}

func TestClone(t *testing.T) {
	tr, _, _, _ := forkTree()
	cp := tr.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone leaves the original untouched.
	cp.Nodes[1].Children[0] = 99
	cp.Nodes[2].CapLoad = 777
	if tr.Nodes[1].Children[0] == 99 || tr.Nodes[2].CapLoad == 777 {
		t.Error("Clone shares storage with original")
	}
}

func TestBoundingBox(t *testing.T) {
	tr, _, _, _ := forkTree()
	bb := tr.BoundingBox()
	if bb.Min != (geom.Point{X: 0, Y: -50}) || bb.Max != (geom.Point{X: 200, Y: 50}) {
		t.Errorf("bbox = %+v", bb)
	}
}

func TestEvaluateUnbufferedChain(t *testing.T) {
	// Hand-computed Elmore for driver -R1=0.5kΩ-> 100µm wire -> sink 10fF.
	tr := New(DefaultWire, 0.5, geom.Point{})
	tr.AddSink(tr.Root, geom.Point{X: 100, Y: 0}, 100, 10, 0)
	ev, err := Evaluate(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wire: r·l = 0.01 kΩ, c·l = 20 fF.
	// T at root before driver = 0 - 0.01*10 - 0.5*1e-4*0.2*100*100 = -0.1 - 0.1 = -0.2
	// L at root = 30 fF; driver delay = 0.5*30 = 15.
	wantL := 30.0
	wantT := -0.2 - 15.0
	if math.Abs(ev.RootLoad-wantL) > 1e-12 {
		t.Errorf("RootLoad = %g, want %g", ev.RootLoad, wantL)
	}
	if math.Abs(ev.RootRAT-wantT) > 1e-12 {
		t.Errorf("RootRAT = %g, want %g", ev.RootRAT, wantT)
	}
}

func TestEvaluateMergeTakesMinAndSumsLoad(t *testing.T) {
	tr, _, a, b := forkTree()
	ev, err := Evaluate(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sink b has RAT -100, strictly worse; the root RAT must be driven by b.
	// Compute by hand: child wire op for both sinks (150 µm each).
	wire := func(l, load, rat float64) (float64, float64) {
		return load + tr.Wire.C*l, rat - tr.Wire.R*l*load - 0.5*tr.Wire.R*tr.Wire.C*l*l
	}
	la, ta := wire(150, tr.Node(a).CapLoad, 0)
	lb, tb := wire(150, tr.Node(b).CapLoad, -100)
	lm := la + lb
	tm := math.Min(ta, tb)
	ls, ts := wire(100, lm, tm)
	want := ts - tr.DriverR*ls
	if math.Abs(ev.RootRAT-want) > 1e-9 {
		t.Errorf("RootRAT = %g, want %g", ev.RootRAT, want)
	}
	if math.Abs(ev.RootLoad-ls) > 1e-9 {
		t.Errorf("RootLoad = %g, want %g", ev.RootLoad, ls)
	}
}

func TestEvaluateBufferDecouplesLoad(t *testing.T) {
	// A buffer at the steiner node must present only its input cap upstream.
	tr, s, _ := chainTree(100, 5000)
	bv := BufferValues{C: 5, T: 30, R: 0.3}
	evB, err := Evaluate(tr, Assignment{s: bv})
	if err != nil {
		t.Fatal(err)
	}
	// Downstream of buffer: 5000 µm wire to a 10 fF sink.
	lDown := 10 + tr.Wire.C*5000
	tDown := 0 - tr.Wire.R*5000*10 - 0.5*tr.Wire.R*tr.Wire.C*5000*5000
	// Buffer at s.
	tBuf := tDown - bv.T - bv.R*lDown
	// Wire from s to root.
	lUp := bv.C + tr.Wire.C*100
	tUp := tBuf - tr.Wire.R*100*bv.C - 0.5*tr.Wire.R*tr.Wire.C*100*100
	want := tUp - tr.DriverR*lUp
	if math.Abs(evB.RootRAT-want) > 1e-9 {
		t.Errorf("buffered RootRAT = %g, want %g", evB.RootRAT, want)
	}
	if math.Abs(evB.RootLoad-lUp) > 1e-9 {
		t.Errorf("buffered RootLoad = %g, want %g", evB.RootLoad, lUp)
	}
	// For this long wire the buffer should win over the unbuffered tree.
	evU, err := Evaluate(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if evB.RootRAT <= evU.RootRAT {
		t.Errorf("buffer did not help: %g vs %g", evB.RootRAT, evU.RootRAT)
	}
}

func TestEvaluateBufferAtSink(t *testing.T) {
	tr, _, k := chainTree(100, 100)
	bv := BufferValues{C: 3, T: 20, R: 0.2}
	ev, err := Evaluate(tr, Assignment{k: bv})
	if err != nil {
		t.Fatal(err)
	}
	// Sink (10 fF, RAT 0) behind the buffer: T = 0 - 20 - 0.2*10 = -22, L = 3.
	// Then two 100 µm wires with no branching.
	l, rat := 3.0, -22.0
	for i := 0; i < 2; i++ {
		rat -= tr.Wire.R*100*l + 0.5*tr.Wire.R*tr.Wire.C*100*100
		l += tr.Wire.C * 100
	}
	want := rat - tr.DriverR*l
	if math.Abs(ev.RootRAT-want) > 1e-9 {
		t.Errorf("RootRAT = %g, want %g", ev.RootRAT, want)
	}
}

func TestEvaluateRejectsBadAssignment(t *testing.T) {
	tr, _, _ := chainTree(100, 100)
	if _, err := Evaluate(tr, Assignment{99: {}}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := Evaluate(tr, Assignment{tr.Root: {}}); err == nil {
		t.Error("buffer at driver accepted")
	}
}

func TestElmoreAdditivityAlongPath(t *testing.T) {
	// Splitting one wire into two segments (with a zero-size steiner in the
	// middle and no branching) must not change the Elmore RAT.
	whole := New(DefaultWire, 0.5, geom.Point{})
	whole.AddSink(whole.Root, geom.Point{X: 400, Y: 0}, 400, 12, 0)
	split := New(DefaultWire, 0.5, geom.Point{})
	mid := split.AddSteiner(split.Root, geom.Point{X: 250, Y: 0}, 250)
	split.AddSink(mid, geom.Point{X: 400, Y: 0}, 150, 12, 0)
	e1, err := Evaluate(whole, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Evaluate(split, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1.RootRAT-e2.RootRAT) > 1e-9 {
		t.Errorf("splitting a wire changed RAT: %g vs %g", e1.RootRAT, e2.RootRAT)
	}
	if math.Abs(e1.RootLoad-e2.RootLoad) > 1e-9 {
		t.Errorf("splitting a wire changed load: %g vs %g", e1.RootLoad, e2.RootLoad)
	}
}
