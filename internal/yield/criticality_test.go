package yield

import (
	"math"
	"testing"

	"vabuf/internal/geom"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

func TestCriticalitySumsToOne(t *testing.T) {
	tr, model, lib := testSetup(t, 30, 14)
	assign := someAssignment(tr)
	crit, err := Criticality(tr, lib, assign, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(crit) != tr.NumSinks() {
		t.Fatalf("criticality covers %d sinks, want %d", len(crit), tr.NumSinks())
	}
	sum := 0.0
	for id, p := range crit {
		if p < 0 || p > 1 {
			t.Errorf("sink %d criticality %g outside [0,1]", id, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("criticalities sum to %g", sum)
	}
}

func TestCriticalityDeterministicPicksWorstSink(t *testing.T) {
	// Symmetric fork with one much-worse sink: all mass lands there.
	tr := rctree.New(rctree.DefaultWire, 0.3, geom.Point{})
	good := tr.AddSink(tr.Root, geom.Point{X: 100, Y: 50}, 100, 10, 0)
	bad := tr.AddSink(tr.Root, geom.Point{X: 100, Y: -50}, 100, 10, -500)
	crit, err := Criticality(tr, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if crit[bad] != 1 || crit[good] != 0 {
		t.Errorf("criticality = %v, want all mass on sink %d", crit, bad)
	}
}

func TestCriticalityDeterministicTieSplits(t *testing.T) {
	// Perfectly symmetric deterministic fork: exact tie splits 0.5/0.5.
	tr := rctree.New(rctree.DefaultWire, 0.3, geom.Point{})
	a := tr.AddSink(tr.Root, geom.Point{X: 100, Y: 50}, 100, 10, 0)
	b := tr.AddSink(tr.Root, geom.Point{X: 100, Y: -50}, 100, 10, 0)
	crit, err := Criticality(tr, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(crit[a]-0.5) > 1e-12 || math.Abs(crit[b]-0.5) > 1e-12 {
		t.Errorf("tie did not split evenly: %v", crit)
	}
}

func TestCriticalityMatchesMonteCarlo(t *testing.T) {
	// Count, per MC sample, which sink realizes the minimum slack at the
	// root, and compare frequencies against the analytic criticality.
	tr, model, lib := testSetup(t, 12, 19)
	assign := someAssignment(tr)
	crit, err := Criticality(tr, lib, assign, model)
	if err != nil {
		t.Fatal(err)
	}
	draws := variation.NewDraws(4)
	counts := make(map[rctree.NodeID]int)
	const n = 20000
	var buf []float64
	// Pre-resolve buffer deviations.
	type inst struct {
		b   int
		dev variation.Form
	}
	devs := make(map[rctree.NodeID]inst, len(assign))
	for id, bi := range assign {
		devs[id] = inst{b: bi, dev: model.Deviation(int(id), tr.Node(id).Loc)}
	}
	order := tr.PostOrder()
	type st struct {
		L, T float64
		crit rctree.NodeID
	}
	vals := make([]st, tr.Len())
	for s := 0; s < n; s++ {
		buf = model.Space.Sample(draws, s, buf)
		for _, id := range order {
			node := tr.Node(id)
			var cur st
			switch node.Kind {
			case rctree.KindSink:
				cur = st{L: node.CapLoad, T: node.RAT, crit: id}
			default:
				first := true
				for _, cid := range node.Children {
					cn := tr.Node(cid)
					child := vals[cid]
					if l := cn.WireLen; l > 0 {
						child.T -= tr.Wire.R*l*child.L + 0.5*tr.Wire.R*tr.Wire.C*l*l
						child.L += tr.Wire.C * l
					}
					if first {
						cur = child
						first = false
					} else {
						cur.L += child.L
						if child.T < cur.T {
							cur.T = child.T
							cur.crit = child.crit
						}
					}
				}
			}
			if in, ok := devs[id]; ok {
				b := lib[in.b]
				d := in.dev.Eval(buf)
				cur = st{
					L:    b.Cb0 * (1 + d),
					T:    cur.T - b.Tb0*(1+d) - b.Rb*cur.L,
					crit: cur.crit,
				}
			}
			vals[id] = cur
		}
		counts[vals[tr.Root].crit]++
	}
	for id, p := range crit {
		freq := float64(counts[id]) / n
		if math.Abs(freq-p) > 0.04 {
			t.Errorf("sink %d: MC criticality %.3f vs analytic %.3f", id, freq, p)
		}
	}
}

func TestCriticalityValidation(t *testing.T) {
	tr, model, lib := testSetup(t, 5, 1)
	if _, err := Criticality(tr, lib, map[rctree.NodeID]int{99: 0}, model); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := Criticality(tr, lib, map[rctree.NodeID]int{1: 99}, model); err == nil {
		t.Error("bad buffer index accepted")
	}
	bad := tr.Clone()
	bad.Wire.C = 0
	if _, err := Criticality(bad, lib, nil, model); err == nil {
		t.Error("invalid tree accepted")
	}
	driverOnly := rctree.New(rctree.DefaultWire, 0.3, geom.Point{})
	for _, m := range []*variation.Model{model, nil} {
		if _, err := Criticality(driverOnly, lib, nil, m); err == nil {
			t.Errorf("driver-only tree accepted (model %v)", m != nil)
		}
	}
}
