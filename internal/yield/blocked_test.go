package yield

import (
	"math"
	"math/rand"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// referenceRAT is sample i of d evaluated without the blocked path:
// the full-space draw of sample i, Form.Eval of every slot's deviation
// and EvaluateSized on the map-based tree.
func referenceRAT(t *testing.T, d *Design, tree *rctree.Tree, wires rctree.WireAssignment,
	draws *variation.Draws, i int) float64 {
	t.Helper()
	src := d.Space.Sample(draws, i, nil)
	bufs := make(rctree.Assignment, len(d.slots))
	for k, id := range d.Tree.Buffers {
		bufs[id] = d.slots[k].values(d.slots[k].dev.Eval(src))
	}
	ev, err := rctree.EvaluateSized(tree, bufs, wires)
	if err != nil {
		t.Fatal(err)
	}
	return ev.RootRAT
}

// TestWorkerCountsMatchSerial runs MonteCarloParallel at one to five
// workers on 333 samples, so the workers' parts start inside blocks of
// Lanes samples and end in short ones, and compares each vector bit for
// bit with the serial reference of every sample.
func TestWorkerCountsMatchSerial(t *testing.T) {
	const n, seed = 333, 11
	for ni, p := range pinnedNets(t) {
		d, err := CompileMC(p.tree, p.lib, p.assign, p.wires, p.model)
		if err != nil {
			t.Fatal(err)
		}
		draws := variation.NewDraws(seed)
		want := make([]float64, n)
		for i := range want {
			want[i] = referenceRAT(t, d, p.tree, p.wires, draws, i)
		}
		for workers := 1; workers <= 5; workers++ {
			got, err := MonteCarloParallel(p.tree, p.lib, p.assign, p.wires, p.model, n, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("net %d, %d workers, sample %d: %v, serial reference %v", ni, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzBlockedWalk compiles a random benchgen tree with a random legal
// buffer placement, optionally a buffer on the root's first child,
// zero-length edges, wire overrides and positive sink RATs (benchgen's
// are negative, which hides a merge that starts from zero), and gives the slots deviation
// forms decoded from data over prefixSpace, whose sigma-0 source draws
// signed zeros; slots built on one template share its prefix. A sparse
// placement leaves buffer-free subtrees and a single-sink tree arises
// when sinks is a multiple of 40. It draws one block of 1 to Lanes
// samples from any index. Property: every lane's root RAT equals
// EvaluateSized on the values Form.Eval gives that lane's sample, bit
// for bit up to NaN payloads.
func FuzzBlockedWalk(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint16(0), uint8(16), []byte{1, 2, 0, 3, 1, 4, 2})
	f.Add(int64(2), uint8(0), uint8(1), uint16(5), uint8(3), []byte{0, 1, 4, 0})
	f.Add(int64(3), uint8(30), uint8(7), uint16(17), uint8(7), []byte{6, 3, 0, 5, 1, 6, 4, 1, 9})
	f.Add(int64(4), uint8(25), uint8(10), uint16(1000), uint8(9), []byte{2, 1, 1, 6, 3, 2, 0, 4, 1, 0, 6})
	palette := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, math.Nextafter(0.1, 1), 0.7,
		-2.5, 4.9e-324, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	lib := device.DefaultLibrary()
	f.Fuzz(func(t *testing.T, seed int64, sinks, flags uint8, i0 uint16, lanes uint8, data []byte) {
		tree, err := benchgen.Random(benchgen.Spec{Sinks: 1 + int(sinks%40), Seed: seed})
		if err != nil {
			t.Skip(err)
		}
		rng := rand.New(rand.NewSource(seed))
		density := []float64{0.05, 0.3, 0.8, 1}[flags>>4%4]
		assign := make(map[rctree.NodeID]int)
		wires := make(rctree.WireAssignment)
		for i := range tree.Nodes {
			nd := &tree.Nodes[i]
			if flags&2 != 0 && nd.ID != tree.Root && rng.Intn(4) == 0 {
				nd.WireLen = 0
			}
			if flags&8 != 0 && nd.Kind == rctree.KindSink {
				nd.RAT += 1000
			}
			if flags&4 != 0 && nd.ID != tree.Root && rng.Intn(3) == 0 {
				wires[nd.ID] = rctree.WireParams{R: 1e-5 + 4e-4*rng.Float64(), C: 0.05 + 0.5*rng.Float64()}
			}
			if nd.BufferOK && rng.Float64() < density {
				assign[nd.ID] = rng.Intn(len(lib))
			}
		}
		if flags&1 != 0 {
			kid := tree.Node(tree.Root).Children[0]
			tree.Nodes[kid].BufferOK = true
			assign[kid] = rng.Intn(len(lib))
		}
		d, err := Compile(tree, lib, assign, wires, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Deviations: one to four templates from data, each slot a
		// template plus a last term.
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		d.Space = prefixSpace()
		nsrc := d.Space.Len()
		templates := make([]variation.Form, 1+next()%4)
		for j := range templates {
			fm := variation.Form{Nominal: palette[next()%len(palette)]}
			for n := next() % 4; n > 0; n-- {
				fm.Terms = append(fm.Terms, variation.Term{ID: variation.SourceID(next() % nsrc), Coef: palette[next()%len(palette)]})
			}
			templates[j] = fm
		}
		for k := range d.slots {
			tmpl := templates[k%len(templates)]
			dev := variation.Form{Nominal: tmpl.Nominal, Terms: append([]variation.Term(nil), tmpl.Terms...)}
			if k%3 != 2 {
				dev.Terms = append(dev.Terms, variation.Term{ID: variation.SourceID(k % nsrc), Coef: palette[(k+next())%len(palette)]})
			}
			d.slots[k].dev = dev
		}
		d.index()

		n := 1 + int(lanes)%Lanes
		s := d.Sampler(seed)
		s.Block(int(i0), n)
		out := make([]float64, n)
		s.rootRATs(out)
		draws := variation.NewDraws(seed)
		for b := range out {
			if want := referenceRAT(t, d, tree, wires, draws, int(i0)+b); !sameBits(out[b], want) {
				t.Fatalf("lane %d of %d (sample %d): blocked walk %v (%#x), reference %v (%#x)",
					b, n, int(i0)+b, out[b], math.Float64bits(out[b]), want, math.Float64bits(want))
			}
		}
	})
}
