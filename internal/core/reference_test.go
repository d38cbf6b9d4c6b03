package core

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// This file implements a deliberately naive array-of-structs reference
// engine — heap-allocated forms, one struct per candidate, pointer-based
// provenance — mirroring the layout the production engine used before the
// struct-of-arrays rewrite. The differential test below runs both engines
// over a corpus of trees and configurations and asserts bit-identical
// results: same assignments, same RAT down to the float bits, same counter
// values. Any divergence in operation order, sort stability, or arena
// arithmetic in the SoA engine shows up here as a failed float comparison.

// refCand is the AoS candidate: forms on the heap, provenance by pointer.
type refCand struct {
	L, T        variation.Form
	op          opKind
	node        rctree.NodeID
	aux         int32
	pred, pred2 *refCand
}

type refEngine struct {
	tree  *rctree.Tree
	opts  Options
	space *variation.Space
	dev   []variation.Form
	stats Stats

	exactMeans         bool
	zL, zT             float64
	zAL, zAU, zBL, zBU float64
}

// refInsert is the reference entry point: a serial DP over []*refCand
// lists with the exact floating-point expressions of the SoA engine.
func refInsert(tr *rctree.Tree, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &refEngine{tree: tr, opts: o}
	if o.Model != nil {
		e.space = o.Model.Space
		e.dev = make([]variation.Form, tr.Len())
		for _, id := range tr.PostOrder() {
			if n := tr.Node(id); n.BufferOK {
				e.dev[id] = o.Model.Deviation(int(id), n.Loc)
			}
		}
	} else {
		e.space = variation.NewSpace()
	}
	e.exactMeans = o.PbarL == 0.5 && o.PbarT == 0.5
	if !e.exactMeans {
		e.zL = stats.Quantile(o.PbarL)
		e.zT = stats.Quantile(o.PbarT)
	}
	if o.Rule == Rule4P {
		e.zAL = stats.Quantile(o.FourP.AlphaL)
		e.zAU = stats.Quantile(o.FourP.AlphaU)
		e.zBL = stats.Quantile(o.FourP.BetaL)
		e.zBU = stats.Quantile(o.FourP.BetaU)
	}
	pl := e.dp(tr.Root)
	return e.selectRoot(pl[0])
}

func (e *refEngine) dp(id rctree.NodeID) [2][]*refCand {
	node := e.tree.Node(id)
	var pl [2][]*refCand
	if node.Kind == rctree.KindSink {
		e.stats.Generated++
		pl[0] = []*refCand{{
			L: variation.Const(node.CapLoad), T: variation.Const(node.RAT),
			op: opLeaf, node: id, aux: -1,
		}}
	} else {
		for i, child := range node.Children {
			sub := e.dp(child)
			var wired [2][]*refCand
			for p := 0; p < 2; p++ {
				wired[p] = e.wireUp(child, sub[p])
			}
			if i == 0 {
				pl = wired
				continue
			}
			for p := 0; p < 2; p++ {
				if len(pl[p]) == 0 || len(wired[p]) == 0 {
					pl[p] = nil
					continue
				}
				pl[p] = e.prune(e.merge(id, pl[p], wired[p]))
			}
		}
	}
	if node.BufferOK {
		var dev variation.Form
		if e.dev != nil {
			dev = e.dev[id]
		}
		out := pl
		n0 := [2]int{len(pl[0]), len(pl[1])}
		for bi, b := range e.opts.Library {
			cb := dev.Scale(b.Cb0).Shift(b.Cb0)
			tb := dev.Scale(b.Tb0).Shift(b.Tb0)
			for p := 0; p < 2; p++ {
				target := p
				if b.Inverting {
					target = 1 - p
				}
				src := pl[p]
				for i := 0; i < n0[p]; i++ {
					c := src[i]
					if b.MaxLoad > 0 && c.L.Nominal > b.MaxLoad {
						continue
					}
					nt := c.T.Sub(tb).AXPY(-b.Rb, c.L)
					out[target] = append(out[target], &refCand{
						L: cb, T: nt, op: opBuffer, node: id, aux: int32(bi), pred: c,
					})
					e.stats.Generated++
				}
			}
		}
		for p := 0; p < 2; p++ {
			pl[p] = e.prune(out[p])
		}
	}
	if total := len(pl[0]) + len(pl[1]); total > e.stats.PeakList {
		e.stats.PeakList = total
	}
	e.stats.Nodes++
	return pl
}

func (e *refEngine) wireUp(child rctree.NodeID, list []*refCand) []*refCand {
	l := e.tree.Node(child).WireLen
	if l == 0 {
		return list
	}
	if len(e.opts.WireLibrary) == 0 {
		return e.wireChoice(nil, child, list, e.tree.Wire, -1)
	}
	var out []*refCand
	for wi, wc := range e.opts.WireLibrary {
		out = e.wireChoice(out, child, list, wc.Params, int32(wi))
	}
	return e.prune(out)
}

func (e *refEngine) wireChoice(out []*refCand, child rctree.NodeID, list []*refCand, wp rctree.WireParams, wi int32) []*refCand {
	l := e.tree.Node(child).WireLen
	halfRC := 0.5 * wp.R * wp.C * l * l
	for _, c := range list {
		out = append(out, &refCand{
			L:  c.L.Shift(wp.C * l),
			T:  c.T.AXPY(-wp.R*l, c.L).Shift(-halfRC),
			op: opWire, node: child, aux: wi, pred: c,
		})
	}
	e.stats.Generated += int64(len(list))
	return out
}

func (e *refEngine) merge(node rctree.NodeID, a, b []*refCand) []*refCand {
	mk := func(x, y *refCand) *refCand {
		t := variation.Min(x.T, y.T, e.space).Form
		e.stats.Generated++
		return &refCand{L: x.L.Add(y.L), T: t, op: opMerge, node: node, pred: x, pred2: y}
	}
	var out []*refCand
	if e.opts.Rule == Rule4P {
		for _, x := range a {
			for _, y := range b {
				out = append(out, mk(x, y))
			}
		}
	} else {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			out = append(out, mk(a[i], b[j]))
			switch {
			case a[i].T.Nominal < b[j].T.Nominal:
				i++
			case a[i].T.Nominal > b[j].T.Nominal:
				j++
			default:
				i++
				j++
			}
		}
	}
	e.stats.Merges++
	return out
}

func (e *refEngine) sortByMean(list []*refCand) {
	slices.SortFunc(list, func(a, b *refCand) int {
		if c := cmp.Compare(a.L.Nominal, b.L.Nominal); c != 0 {
			return c
		}
		return cmp.Compare(b.T.Nominal, a.T.Nominal)
	})
}

func (e *refEngine) prune(list []*refCand) []*refCand {
	if len(list) <= 1 {
		return list
	}
	e.sortByMean(list)
	if e.opts.Rule == Rule4P {
		return e.prune4P(list)
	}
	kept := list[:0]
	if e.exactMeans {
		for _, c := range list {
			if len(kept) > 0 && c.T.Nominal <= kept[len(kept)-1].T.Nominal {
				e.stats.Pruned++
				continue
			}
			kept = append(kept, c)
		}
		return kept
	}
	for _, c := range list {
		dominated := false
		for k := len(kept) - 1; k >= 0; k-- {
			d := kept[k]
			if d.T.Nominal <= c.T.Nominal {
				continue
			}
			if probAtLeast(c.L.Nominal-d.L.Nominal, d.L.Sigma(e.space), c.L.Sigma(e.space),
				e.zL, d.L, c.L, e.space) &&
				probAtLeast(d.T.Nominal-c.T.Nominal, d.T.Sigma(e.space), c.T.Sigma(e.space),
					e.zT, d.T, c.T, e.space) {
				dominated = true
				break
			}
		}
		if dominated {
			e.stats.Pruned++
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

func (e *refEngine) prune4P(list []*refCand) []*refCand {
	n := len(list)
	lLo, lHi := make([]float64, n), make([]float64, n)
	tLo, tHi := make([]float64, n), make([]float64, n)
	for i, c := range list {
		sl, st := c.L.Sigma(e.space), c.T.Sigma(e.space)
		lLo[i] = c.L.Nominal + e.zAL*sl
		lHi[i] = c.L.Nominal + e.zAU*sl
		tLo[i] = c.T.Nominal + e.zBL*st
		tHi[i] = c.T.Nominal + e.zBU*st
	}
	dead := make([]bool, n)
	for i := 0; i < n; i++ {
		if dead[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || dead[j] {
				continue
			}
			if lHi[i] < lLo[j] && tLo[i] > tHi[j] {
				dead[j] = true
				e.stats.Pruned++
			}
		}
	}
	kept := list[:0]
	for i, c := range list {
		if !dead[i] {
			kept = append(kept, c)
		}
	}
	return kept
}

func (e *refEngine) selectRoot(root []*refCand) (*Result, error) {
	if len(root) == 0 {
		return nil, fmt.Errorf("reference: no true-polarity candidates at root")
	}
	deterministic := e.opts.Model == nil
	var best *refCand
	var bestRAT variation.Form
	bestObj := 0.0
	for _, c := range root {
		rat := c.T.AXPY(-e.tree.DriverR, c.L)
		obj := rat.Nominal
		if !deterministic {
			obj = rat.Quantile(e.opts.SelectQuantile, e.space)
		}
		if best == nil || obj > bestObj {
			best = c
			bestObj = obj
			bestRAT = rat
		}
	}
	assignment := make(map[rctree.NodeID]int)
	var wires map[rctree.NodeID]int
	if len(e.opts.WireLibrary) > 0 {
		wires = make(map[rctree.NodeID]int)
	}
	stack := []*refCand{best}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c != nil {
			switch c.op {
			case opWire:
				if wires != nil && c.aux >= 0 {
					wires[c.node] = int(c.aux)
				}
			case opBuffer:
				assignment[c.node] = int(c.aux)
			case opMerge:
				stack = append(stack, c.pred2)
			}
			c = c.pred
		}
	}
	return &Result{
		Assignment:     assignment,
		WireAssignment: wires,
		RAT:            bestRAT,
		Mean:           bestRAT.Nominal,
		Sigma:          bestRAT.Sigma(e.space),
		Objective:      bestObj,
		NumBuffers:     len(assignment),
		RootCandidates: len(root),
		Stats:          e.stats,
	}, nil
}

// assertBitIdentical fails unless the SoA result matches the reference in
// every promised field, down to the float bits.
func assertBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Errorf("%s: assignments differ (%d vs %d buffers)",
			label, len(got.Assignment), len(want.Assignment))
	}
	if !reflect.DeepEqual(got.WireAssignment, want.WireAssignment) {
		t.Errorf("%s: wire assignments differ", label)
	}
	if math.Float64bits(got.RAT.Nominal) != math.Float64bits(want.RAT.Nominal) {
		t.Errorf("%s: RAT nominal %v != %v", label, got.RAT.Nominal, want.RAT.Nominal)
	}
	if !reflect.DeepEqual(got.RAT.Terms, want.RAT.Terms) {
		t.Errorf("%s: RAT terms differ (%d vs %d)", label, len(got.RAT.Terms), len(want.RAT.Terms))
	}
	if math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%s: sigma/objective (%v, %v) != (%v, %v)",
			label, got.Sigma, got.Objective, want.Sigma, want.Objective)
	}
	if got.RootCandidates != want.RootCandidates {
		t.Errorf("%s: root candidates %d != %d", label, got.RootCandidates, want.RootCandidates)
	}
	g, w := got.Stats, want.Stats
	if g.Generated != w.Generated || g.Pruned != w.Pruned ||
		g.Merges != w.Merges || g.Nodes != w.Nodes || g.PeakList != w.PeakList {
		t.Errorf("%s: stats differ: soa {gen %d pr %d mg %d nd %d pk %d}"+
			" ref {gen %d pr %d mg %d nd %d pk %d}",
			label, g.Generated, g.Pruned, g.Merges, g.Nodes, g.PeakList,
			w.Generated, w.Pruned, w.Merges, w.Nodes, w.PeakList)
	}
}

// assertHullIdentical checks a hull-kernel run against the exact
// reference: the full Result must be bit-identical, and the only
// permitted stats difference is the generation deficit — candidates the
// kernel proved dominated and never materialized are missing from both
// Generated and Pruned, in exactly equal measure (HullSkipped).
func assertHullIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	patched := *got
	patched.Stats.Generated += got.Stats.HullSkipped
	patched.Stats.Pruned += got.Stats.HullSkipped
	assertBitIdentical(t, label, &patched, want)
	if got.Stats.HullSites == 0 && got.Stats.HullFallbacks == 0 {
		t.Errorf("%s: hull kernel never engaged", label)
	}
}

// refConfigs builds the option matrix for one tree. The model is shared
// between the engines so the lazily allocated variation sources line up.
func refConfigs(t *testing.T, tr *rctree.Tree, small bool) map[string]Options {
	t.Helper()
	lib := device.DefaultLibrary()
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	wireLib := []rctree.WireChoice{
		{Name: "w1", Params: tr.Wire},
		{Name: "w2", Params: rctree.WireParams{R: tr.Wire.R * 0.6, C: tr.Wire.C * 1.6}},
	}
	cfgs := map[string]Options{
		"vG":         {Library: lib},
		"2P-pbar0.5": {Library: lib, Model: model},
		"2P-pbar0.9": {Library: lib, Model: model, PbarL: 0.9, PbarT: 0.9},
		"inverters":  {Library: append(slices.Clone(lib), device.InverterLibrary()...), Model: model},
		"inverters-pbar0.9": {Library: append(slices.Clone(lib), device.InverterLibrary()...),
			Model: model, PbarL: 0.9, PbarT: 0.9},
	}
	if small {
		cfgs["wiresize"] = Options{Library: lib, Model: model, WireLibrary: wireLib}
	}
	// The 4P partial order explodes past a handful of sinks (the paper's
	// Table 2 point); run it only on the tiniest trees, one buffer type.
	if tr.NumSinks() <= 8 {
		cfgs["4P"] = Options{
			Library: lib[1:2], Model: model, Rule: Rule4P, MaxCandidates: 2_000_000,
		}
	}
	return cfgs
}

// TestSoAMatchesReference is the differential layout test: the SoA engine
// must reproduce the AoS reference bit-for-bit over the corpus, serial and
// parallel, under every pruning rule.
func TestSoAMatchesReference(t *testing.T) {
	type tc struct {
		name  string
		tr    *rctree.Tree
		small bool
	}
	var cases []tc
	for _, bench := range []string{"p1", "r1"} {
		tr, err := benchgen.Build(bench)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{bench, tr, false})
	}
	for seed := int64(1); seed <= 4; seed++ {
		tr, err := benchgen.Random(benchgen.Spec{Sinks: 5 + 2*int(seed), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("rand%d", seed), tr, true})
	}
	for _, c := range cases {
		for name, opts := range refConfigs(t, c.tr, c.small) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				want, err := refInsert(c.tr, opts)
				if err != nil {
					t.Fatal(err)
				}
				serialOpts := opts
				serialOpts.Parallelism = 1
				serialOpts.HullBuffering = HullOff
				got, err := Insert(c.tr, serialOpts)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "serial", got, want)
				parOpts := opts
				parOpts.Parallelism = 4
				parOpts.HullBuffering = HullOff
				got, err = Insert(c.tr, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "parallel", got, want)
				if opts.Rule == Rule4P {
					return // hull kernel does not engage under the 4P partial order
				}
				serialOpts.HullBuffering = HullAuto
				got, err = Insert(c.tr, serialOpts)
				if err != nil {
					t.Fatal(err)
				}
				assertHullIdentical(t, "serial-hull", got, want)
				parOpts.HullBuffering = HullAuto
				got, err = Insert(c.tr, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				assertHullIdentical(t, "parallel-hull", got, want)
			})
		}
	}
}
