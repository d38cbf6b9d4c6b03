package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/geom"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// smallLib is a two-type library keeping brute-force enumeration feasible.
func smallLib() device.Library {
	return device.Library{
		{Name: "s", Cb0: 1.2, Tb0: 9, Rb: 0.4},
		{Name: "l", Cb0: 3.5, Tb0: 9, Rb: 0.15},
	}
}

// nominalAssignment converts a library-index assignment to electrical
// values for rctree.Evaluate.
func nominalAssignment(lib device.Library, assign map[rctree.NodeID]int) rctree.Assignment {
	out := make(rctree.Assignment, len(assign))
	for id, bi := range assign {
		b := lib[bi]
		out[id] = rctree.BufferValues{C: b.Cb0, T: b.Tb0, R: b.Rb}
	}
	return out
}

// bruteForceBest enumerates every possible buffer assignment and returns
// the best nominal root RAT.
func bruteForceBest(t *testing.T, tree *rctree.Tree, lib device.Library) float64 {
	t.Helper()
	var positions []rctree.NodeID
	for i := range tree.Nodes {
		if tree.Nodes[i].BufferOK {
			positions = append(positions, tree.Nodes[i].ID)
		}
	}
	choices := len(lib) + 1
	total := 1
	for range positions {
		total *= choices
		if total > 1<<22 {
			t.Fatalf("brute force space too large: %d positions", len(positions))
		}
	}
	best := math.Inf(-1)
	assign := make(rctree.Assignment)
	for code := 0; code < total; code++ {
		clear(assign)
		c := code
		for _, pos := range positions {
			pick := c % choices
			c /= choices
			if pick > 0 {
				b := lib[pick-1]
				assign[pos] = rctree.BufferValues{C: b.Cb0, T: b.Tb0, R: b.Rb}
			}
		}
		ev, err := rctree.Evaluate(tree, assign)
		if err != nil {
			t.Fatal(err)
		}
		if ev.RootRAT > best {
			best = ev.RootRAT
		}
	}
	return best
}

// bfInvLib adds a small inverter to smallLib, keeping enumeration feasible
// while forcing the polarity-tracking machinery into the comparison.
func bfInvLib() device.Library {
	return device.Library{
		{Name: "s", Cb0: 1.2, Tb0: 9, Rb: 0.4},
		{Name: "i", Cb0: 1.0, Tb0: 5, Rb: 0.45, Inverting: true},
		{Name: "l", Cb0: 3.5, Tb0: 9, Rb: 0.15},
	}
}

// polarityLegal reports whether an assignment delivers true polarity at
// every sink: an even number of inverters on each sink-to-root path.
func polarityLegal(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int) bool {
	for i := range tree.Nodes {
		if tree.Nodes[i].Kind != rctree.KindSink {
			continue
		}
		inv := 0
		for id := tree.Nodes[i].ID; id != rctree.NoNode; id = tree.Node(id).Parent {
			if bi, ok := assign[id]; ok && lib[bi].Inverting {
				inv++
			}
		}
		if inv%2 != 0 {
			return false
		}
	}
	return true
}

// forEachAssignment enumerates every buffer assignment over the tree's
// legal positions (including "no buffer" per position), reusing one map.
func forEachAssignment(t *testing.T, tree *rctree.Tree, lib device.Library,
	visit func(map[rctree.NodeID]int)) {
	t.Helper()
	var positions []rctree.NodeID
	for i := range tree.Nodes {
		if tree.Nodes[i].BufferOK {
			positions = append(positions, tree.Nodes[i].ID)
		}
	}
	choices := len(lib) + 1
	total := 1
	for range positions {
		total *= choices
		if total > 1<<22 {
			t.Fatalf("brute force space too large: %d positions", len(positions))
		}
	}
	assign := make(map[rctree.NodeID]int)
	for code := 0; code < total; code++ {
		clear(assign)
		c := code
		for _, pos := range positions {
			pick := c % choices
			c /= choices
			if pick > 0 {
				assign[pos] = pick - 1
			}
		}
		visit(assign)
	}
}

// bruteForcePolarityBest enumerates every polarity-legal assignment and
// returns the best nominal root RAT (inverters are electrically plain
// buffers; polarity only constrains which assignments are admissible).
func bruteForcePolarityBest(t *testing.T, tree *rctree.Tree, lib device.Library) float64 {
	t.Helper()
	best := math.Inf(-1)
	forEachAssignment(t, tree, lib, func(assign map[rctree.NodeID]int) {
		if !polarityLegal(tree, lib, assign) {
			return
		}
		ev, err := rctree.Evaluate(tree, nominalAssignment(lib, assign))
		if err != nil {
			t.Fatal(err)
		}
		if ev.RootRAT > best {
			best = ev.RootRAT
		}
	})
	return best
}

// bruteForceQuantileBest enumerates every polarity-legal assignment,
// propagates the canonical RAT form, and returns the best q-quantile —
// the exact optimum of the variation-aware objective.
func bruteForceQuantileBest(t *testing.T, tree *rctree.Tree, lib device.Library,
	model *variation.Model, q float64) float64 {
	t.Helper()
	best := math.Inf(-1)
	forEachAssignment(t, tree, lib, func(assign map[rctree.NodeID]int) {
		if !polarityLegal(tree, lib, assign) {
			return
		}
		rat, err := yield.Propagate(tree, lib, assign, model)
		if err != nil {
			t.Fatal(err)
		}
		if obj := rat.Quantile(q, model.Space); obj > best {
			best = obj
		}
	})
	return best
}

// TestInvertingMatchesBruteForce: the deterministic DP over an inverting
// multi-type library must find the exact polarity-legal optimum.
func TestInvertingMatchesBruteForce(t *testing.T) {
	lib := bfInvLib()
	for _, seed := range []int64{1, 2, 3, 4} {
		tr, err := benchgen.Random(benchgen.Spec{Sinks: 4, Seed: seed, DieSide: 4000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Insert(tr, Options{Library: lib})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := bruteForcePolarityBest(t, tr, lib)
		if math.Abs(res.Mean-want) > 1e-9 {
			t.Errorf("seed %d: DP RAT %.6f != polarity-legal brute force %.6f", seed, res.Mean, want)
		}
		if !polarityLegal(tr, lib, res.Assignment) {
			t.Errorf("seed %d: DP assignment is polarity-illegal", seed)
		}
	}
}

// TestStatisticalBruteForcePbar09 cross-checks the variation-aware DP at
// pbar > 0.5 against exhaustive enumeration over a multi-type inverting
// library. The pbar > 0.5 sweep is deliberately lossy (probabilistic
// dominance can prune a candidate the exact quantile objective would have
// kept), so the DP is held to the paper's §5.3 envelope — within 1% of
// the true optimum — while its own reported objective must re-propagate
// exactly. Runs with the hull kernel on and off: both must land on the
// identical solution.
func TestStatisticalBruteForcePbar09(t *testing.T) {
	lib := bfInvLib()
	for _, seed := range []int64{1, 2, 3} {
		tr, err := benchgen.Random(benchgen.Spec{Sinks: 4, Seed: seed, DieSide: 4000})
		if err != nil {
			t.Fatal(err)
		}
		model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Library: lib, Model: model, PbarL: 0.9, PbarT: 0.9}
		res, err := Insert(tr, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		best := bruteForceQuantileBest(t, tr, lib, model, 0.05)
		if res.Objective > best+1e-6 {
			t.Errorf("seed %d: DP objective %.6f beats exhaustive optimum %.6f", seed, res.Objective, best)
		}
		if res.Objective < best-0.01*math.Abs(best) {
			t.Errorf("seed %d: DP objective %.6f more than 1%% below optimum %.6f", seed, res.Objective, best)
		}
		rat, err := yield.Propagate(tr, lib, res.Assignment, model)
		if err != nil {
			t.Fatal(err)
		}
		if got := rat.Quantile(0.05, model.Space); math.Abs(got-res.Objective) > 1e-6 {
			t.Errorf("seed %d: assignment re-propagates to %.6f, DP said %.6f", seed, got, res.Objective)
		}
		exactOpts := opts
		exactOpts.HullBuffering = HullOff
		exact, err := Insert(tr, exactOpts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(exact.Objective) != math.Float64bits(res.Objective) ||
			len(exact.Assignment) != len(res.Assignment) {
			t.Errorf("seed %d: hull/exact diverge: %.9f vs %.9f", seed, res.Objective, exact.Objective)
		}
	}
}

func TestDeterministicMatchesBruteForce(t *testing.T) {
	lib := smallLib()
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		tr, err := benchgen.Random(benchgen.Spec{Sinks: 4, Seed: seed, DieSide: 4000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Insert(tr, Options{Library: lib})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := bruteForceBest(t, tr, lib)
		if math.Abs(res.Mean-want) > 1e-9 {
			t.Errorf("seed %d: DP RAT %.6f != brute force %.6f", seed, res.Mean, want)
		}
		// The reported assignment must independently re-evaluate to the
		// reported RAT.
		ev, err := rctree.Evaluate(tr, nominalAssignment(lib, res.Assignment))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev.RootRAT-res.Mean) > 1e-9 {
			t.Errorf("seed %d: assignment re-evaluates to %.6f, DP said %.6f",
				seed, ev.RootRAT, res.Mean)
		}
	}
}

func TestDeterministicLargerTreeSelfConsistent(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 80, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	res, err := Insert(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := rctree.Evaluate(tr, nominalAssignment(lib, res.Assignment))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.RootRAT-res.Mean) > 1e-6 {
		t.Errorf("assignment re-evaluates to %.6f, DP said %.6f", ev.RootRAT, res.Mean)
	}
	// Buffering must beat the unbuffered tree on a net this size.
	bare, err := rctree.Evaluate(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= bare.RootRAT {
		t.Errorf("buffered RAT %.3f did not beat unbuffered %.3f", res.Mean, bare.RootRAT)
	}
	if res.NumBuffers == 0 {
		t.Error("no buffers inserted on an 80-sink net")
	}
	if res.Sigma != 0 {
		t.Errorf("deterministic run has sigma %g", res.Sigma)
	}
}

func TestDriverWithTwoSubtrees(t *testing.T) {
	// The root itself merges two children.
	tr := rctree.New(rctree.DefaultWire, 0.4, geom.Point{})
	tr.AddSink(tr.Root, geom.Point{X: 800, Y: 0}, 800, 10, 0)
	tr.AddSink(tr.Root, geom.Point{X: -900, Y: 0}, 900, 15, -50)
	lib := smallLib()
	res, err := Insert(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceBest(t, tr, lib)
	if math.Abs(res.Mean-want) > 1e-9 {
		t.Errorf("root-merge DP %.6f != brute force %.6f", res.Mean, want)
	}
}

func TestStatisticalPropagationConsistency(t *testing.T) {
	// The RAT form the DP reports for its chosen assignment must agree
	// with an independent canonical propagation of that assignment.
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	res, err := Insert(tr, Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	rat, err := yield.Propagate(tr, lib, res.Assignment, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rat.Nominal-res.Mean) > 1e-6 {
		t.Errorf("propagated mean %.6f != DP mean %.6f", rat.Nominal, res.Mean)
	}
	sp := model.Space
	if math.Abs(rat.Sigma(sp)-res.Sigma) > 1e-6 {
		t.Errorf("propagated sigma %.6f != DP sigma %.6f", rat.Sigma(sp), res.Sigma)
	}
	if res.Sigma <= 0 {
		t.Error("statistical run reported zero sigma")
	}
}

func TestTinyVariationDegeneratesToDeterministic(t *testing.T) {
	// As all budgets → 0 the variation-aware engine must reproduce the
	// deterministic van Ginneken result (the σ→0 invariant).
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := variation.DefaultConfig(tr.BoundingBox().Expand(100))
	cfg.RandomFrac = 1e-9
	cfg.SpatialFrac = 1e-9
	cfg.InterDieFrac = 1e-9
	model, err := variation.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	det, err := Insert(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := Insert(tr, Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(det.Mean-stat.Mean) > 1e-3 {
		t.Errorf("σ→0 statistical mean %.6f != deterministic %.6f", stat.Mean, det.Mean)
	}
	if det.NumBuffers != stat.NumBuffers {
		t.Errorf("σ→0 buffer count %d != deterministic %d", stat.NumBuffers, det.NumBuffers)
	}
}

func TestStatisticalAgainstMonteCarlo(t *testing.T) {
	// End-to-end moment check: the canonical RAT distribution the DP
	// reports must match Monte-Carlo sampling of its own assignment.
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 25, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	res, err := Insert(tr, Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := yield.MonteCarloParallel(tr, lib, res.Assignment, nil, model, 20000, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	var varSum float64
	for _, s := range samples {
		varSum += (s - mean) * (s - mean)
	}
	sigma := math.Sqrt(varSum / float64(len(samples)-1))
	if math.Abs(mean-res.Mean) > 0.05*math.Abs(res.Mean)+3*res.Sigma/math.Sqrt(float64(len(samples))) {
		t.Errorf("MC mean %.3f vs model %.3f", mean, res.Mean)
	}
	if res.Sigma > 0 && math.Abs(sigma-res.Sigma)/res.Sigma > 0.15 {
		t.Errorf("MC sigma %.3f vs model %.3f", sigma, res.Sigma)
	}
}

func TestPbarSweepStableRAT(t *testing.T) {
	// §5.3: different pbar choices change the final RAT by well under 1%.
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 60, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	base, err := Insert(tr, Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	for _, pbar := range []float64{0.6, 0.75, 0.9} {
		res, err := Insert(tr, Options{Library: lib, Model: model, PbarL: pbar, PbarT: pbar})
		if err != nil {
			t.Fatalf("pbar %g: %v", pbar, err)
		}
		rel := math.Abs(res.Objective-base.Objective) / math.Abs(base.Objective)
		if rel > 0.01 {
			t.Errorf("pbar %g: objective %.4f differs from base %.4f by %.3f%%",
				pbar, res.Objective, base.Objective, rel*100)
		}
	}
}

func Test4PRunsOnSmallTree(t *testing.T) {
	// The 4P partial order keeps combinatorially many candidates (that is
	// the paper's complaint), so the test stays tiny: one buffer type,
	// eight sinks, and a generous cap as a safety net.
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()[1:2]
	res2P, err := Insert(tr, Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	res4P, err := Insert(tr, Options{Library: lib, Model: model, Rule: Rule4P, MaxCandidates: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// Both should find solutions in the same ballpark; 4P keeps more
	// candidates (weaker pruning), never fewer at the root.
	rel := math.Abs(res2P.Objective-res4P.Objective) / math.Abs(res2P.Objective)
	if rel > 0.05 {
		t.Errorf("4P objective %.3f far from 2P %.3f", res4P.Objective, res2P.Objective)
	}
	if res4P.RootCandidates < res2P.RootCandidates {
		t.Errorf("4P root candidates %d < 2P %d (partial order should keep more)",
			res4P.RootCandidates, res2P.RootCandidates)
	}
}

func Test4PCapacityExceeded(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 120, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Insert(tr, Options{
		Library:       device.DefaultLibrary(),
		Model:         model,
		Rule:          Rule4P,
		MaxCandidates: 300,
	})
	if !errors.Is(err, ErrCapacity) {
		t.Errorf("want ErrCapacity, got %v", err)
	}
}

// lateTimer is a context whose deadline has passed but whose timer has not
// fired: Err is still nil, as a real context's can stay for milliseconds
// while every P runs a DP worker.
type lateTimer struct{ context.Context }

func (lateTimer) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestTimeout: the run's context is its only cancellation input. A passed
// deadline is the Table 2 time limit (ErrTimeout), also before the
// context's timer reports it; any other cancellation is ErrCanceled. Both
// wrap the context's own error.
func TestTimeout(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancelExpired := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelExpired()
	<-expired.Done()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name          string
		ctx           context.Context
		want, notWant error
		cause         error
	}{
		{"deadline", expired, ErrTimeout, ErrCanceled, context.DeadlineExceeded},
		{"deadline, timer not fired", lateTimer{context.Background()}, ErrTimeout, ErrCanceled, context.DeadlineExceeded},
		{"canceled", canceled, ErrCanceled, ErrTimeout, context.Canceled},
	}
	for _, c := range cases {
		_, err := Insert(tr, Options{Library: device.DefaultLibrary(), Context: c.ctx})
		if !errors.Is(err, c.want) || errors.Is(err, c.notWant) || !errors.Is(err, c.cause) {
			t.Errorf("%s: got %v, want %v wrapping %v", c.name, err, c.want, c.cause)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lib := smallLib()
	cases := []Options{
		{},                                         // empty library
		{Library: lib, PbarL: 0.4},                 // pbar below 0.5
		{Library: lib, PbarT: 1.0},                 // pbar at 1
		{Library: lib, SelectQuantile: 1.5},        // bad quantile
		{Library: lib, PbarL: math.NaN()},          // NaN pbar
		{Library: lib, PbarT: math.NaN()},          // NaN pbar
		{Library: lib, SelectQuantile: math.NaN()}, // NaN quantile
		{Library: lib, MaxCandidates: -1},          // negative cap
		{Library: lib, FourP: FourPParams{AlphaL: 0.9, AlphaU: 0.1, BetaL: 0.1, BetaU: 0.9}},
	}
	for i, o := range cases {
		if _, err := Insert(tr, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	// Invalid tree rejected.
	bad := rctree.New(rctree.DefaultWire, 0.5, geom.Point{})
	bad.AddSink(bad.Root, geom.Point{X: 1, Y: 0}, 1, 10, 0)
	bad.Wire.R = 0
	if _, err := Insert(bad, Options{Library: lib}); err == nil {
		t.Error("invalid tree accepted")
	}
}

func TestRuleString(t *testing.T) {
	if Rule2P.String() != "2P" || Rule4P.String() != "4P" {
		t.Error("rule strings wrong")
	}
	if Rule(7).String() == "" {
		t.Error("unknown rule empty string")
	}
}

func TestStatsPopulated(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Insert(tr, Options{Library: device.DefaultLibrary()})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Generated == 0 || st.Nodes != tr.Len() || st.PeakList == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
	if st.Pruned == 0 {
		t.Error("no candidates pruned on a 50-sink net")
	}
	if st.Merges == 0 {
		t.Error("no merges recorded")
	}
	if res.RootCandidates == 0 {
		t.Error("no root candidates recorded")
	}
}

// TestStatsAddFoldsEveryField pins Add to the Stats schema: every numeric
// field gets a distinct non-zero value, and Add must sum it (or take the
// maximum for the peak fields). A counter added to Stats without a line in
// Add fails here instead of silently reading zero in retire and /metrics.
func TestStatsAddFoldsEveryField(t *testing.T) {
	maxFields := map[string]bool{"PeakList": true, "HullPeak": true}
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if k := va.Field(i).Kind(); k != reflect.Int && k != reflect.Int64 {
			t.Fatalf("Stats.%s has kind %v; extend this test and Add", va.Type().Field(i).Name, k)
		}
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	got := a
	got.Add(b)
	vg := reflect.ValueOf(got)
	for i := 0; i < vg.NumField(); i++ {
		name := vg.Type().Field(i).Name
		want := va.Field(i).Int() + vb.Field(i).Int()
		if maxFields[name] {
			want = vb.Field(i).Int()
		}
		if g := vg.Field(i).Int(); g != want {
			t.Errorf("Add: %s = %d, want %d", name, g, want)
		}
	}
}

func TestPeakListLinearBound(t *testing.T) {
	// Theorem 1's engine-room fact: with the strict 2P order, the pruned
	// candidate list at any node never exceeds one entry per distinct
	// loading value, i.e. it is bounded by the number of legal buffer
	// positions plus one — linear, not combinatorial.
	tr, err := benchgen.Build("r1")
	if err != nil {
		t.Fatal(err)
	}
	bound := tr.NumBufferPositions() + 1
	det, err := Insert(tr, Options{Library: device.DefaultLibrary()})
	if err != nil {
		t.Fatal(err)
	}
	if det.Stats.PeakList > bound {
		t.Errorf("deterministic peak list %d exceeds linear bound %d", det.Stats.PeakList, bound)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	wid, err := Insert(tr, Options{Library: device.DefaultLibrary(), Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if wid.Stats.PeakList > bound {
		t.Errorf("statistical peak list %d exceeds linear bound %d", wid.Stats.PeakList, bound)
	}
	// In practice the lists are far smaller than the bound; record the
	// observed numbers so regressions in pruning strength are visible.
	t.Logf("peak lists: deterministic %d, statistical %d (bound %d)",
		det.Stats.PeakList, wid.Stats.PeakList, bound)
}

func TestSingleSinkNet(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 1, Seed: 1, DieSide: 8000})
	if err != nil {
		t.Fatal(err)
	}
	lib := smallLib()
	res, err := Insert(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceBest(t, tr, lib)
	if math.Abs(res.Mean-want) > 1e-9 {
		t.Errorf("single sink DP %.6f != brute force %.6f", res.Mean, want)
	}
}
