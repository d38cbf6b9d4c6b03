package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/geom"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// assertIdenticalResults fails unless the two results are bit-identical in
// every field the engine promises to reproduce across parallelism levels.
func assertIdenticalResults(t *testing.T, label string, serial, parallel *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial.Assignment, parallel.Assignment) {
		t.Errorf("%s: assignments differ (%d vs %d buffers)",
			label, len(serial.Assignment), len(parallel.Assignment))
	}
	if !reflect.DeepEqual(serial.WireAssignment, parallel.WireAssignment) {
		t.Errorf("%s: wire assignments differ", label)
	}
	if serial.RAT.Nominal != parallel.RAT.Nominal {
		t.Errorf("%s: RAT nominal %v != %v", label, serial.RAT.Nominal, parallel.RAT.Nominal)
	}
	if !reflect.DeepEqual(serial.RAT.Terms, parallel.RAT.Terms) {
		t.Errorf("%s: RAT terms differ (%d vs %d)",
			label, len(serial.RAT.Terms), len(parallel.RAT.Terms))
	}
	if serial.Mean != parallel.Mean || serial.Sigma != parallel.Sigma {
		t.Errorf("%s: moments (%v, %v) != (%v, %v)",
			label, serial.Mean, serial.Sigma, parallel.Mean, parallel.Sigma)
	}
	if serial.Objective != parallel.Objective {
		t.Errorf("%s: objective %v != %v", label, serial.Objective, parallel.Objective)
	}
	if serial.RootCandidates != parallel.RootCandidates {
		t.Errorf("%s: root candidates %d != %d",
			label, serial.RootCandidates, parallel.RootCandidates)
	}
	// The DP visits the same nodes and generates/prunes the same candidate
	// sequences regardless of which worker runs a subtree, so the summed
	// counters must match exactly too.
	s, p := serial.Stats, parallel.Stats
	if s.Generated != p.Generated || s.Pruned != p.Pruned ||
		s.Merges != p.Merges || s.Nodes != p.Nodes || s.PeakList != p.PeakList {
		t.Errorf("%s: stats differ: serial {gen %d pr %d mg %d nd %d pk %d}"+
			" parallel {gen %d pr %d mg %d nd %d pk %d}",
			label, s.Generated, s.Pruned, s.Merges, s.Nodes, s.PeakList,
			p.Generated, p.Pruned, p.Merges, p.Nodes, p.PeakList)
	}
}

// TestParallelDeterminism asserts the tentpole invariant: at Parallelism 4
// the engine returns byte-identical results to the serial engine for every
// rule. Run with -race this also exercises the worker fan-out for data
// races. The 4P cases run on a downsized tree with a one-buffer library —
// on the full p1/r1 benchmarks the partial order exceeds any reasonable
// candidate capacity (the paper's Table 2 point).
func TestParallelDeterminism(t *testing.T) {
	lib := device.DefaultLibrary()
	check := func(t *testing.T, label string, tr *rctree.Tree, opts Options) {
		t.Helper()
		serialOpts := opts
		serialOpts.Parallelism = 1
		serial, err := Insert(tr, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		parallelOpts := opts
		parallelOpts.Parallelism = 4
		parallel, err := Insert(tr, parallelOpts)
		if err != nil {
			t.Fatal(err)
		}
		if parallel.Stats.Workers < 1 {
			t.Errorf("parallel run reported %d workers", parallel.Stats.Workers)
		}
		assertIdenticalResults(t, label, serial, parallel)
	}
	for _, bench := range []string{"p1", "r1"} {
		tr, err := benchgen.Build(bench)
		if err != nil {
			t.Fatal(err)
		}
		model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name string
			opts Options
		}{
			{"vG", Options{Library: lib}},
			{"2P-pbar0.5", Options{Library: lib, Model: model}},
			{"2P-pbar0.9", Options{Library: lib, Model: model, PbarL: 0.9, PbarT: 0.9}},
		}
		for _, tc := range cases {
			t.Run(bench+"/"+tc.name, func(t *testing.T) {
				check(t, bench+"/"+tc.name, tr, tc.opts)
			})
		}
	}
	t.Run("small/4P", func(t *testing.T) {
		tr, err := benchgen.Random(benchgen.Spec{Sinks: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
		if err != nil {
			t.Fatal(err)
		}
		check(t, "small/4P", tr, Options{
			Library:       lib[1:2],
			Model:         model,
			Rule:          Rule4P,
			MaxCandidates: 2_000_000,
		})
	})
}

// TestParallelRepeatedRunsStable: repeated parallel runs of the same input
// are identical to each other (goroutine scheduling must not leak into the
// result).
func TestParallelRepeatedRunsStable(t *testing.T) {
	tr, err := benchgen.Build("r1")
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Library: device.DefaultLibrary(), Model: model,
		Parallelism: 8,
	}
	first, err := Insert(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Insert(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalResults(t, "repeat", first, again)
	}
}

// TestSmallTreeFansOut: Parallelism alone decides the fan-out. p1 (538
// nodes) at Parallelism 4 runs on more than one worker, deterministic
// and at pbar 0.9 alike, and returns the serial solution.
func TestSmallTreeFansOut(t *testing.T) {
	tr, err := benchgen.Build("p1")
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"vG", Options{Library: lib}},
		{"2P-pbar0.9", Options{Library: lib, Model: model, PbarL: 0.9, PbarT: 0.9}},
	} {
		serialOpts, parOpts := tc.opts, tc.opts
		serialOpts.Parallelism, parOpts.Parallelism = 1, 4
		serial, err := Insert(tr, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Insert(tr, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Stats.Workers != 1 {
			t.Errorf("%s: serial run used %d workers", tc.name, serial.Stats.Workers)
		}
		if par.Stats.Workers <= 1 {
			t.Errorf("%s: Parallelism 4 on p1 used %d workers, want > 1", tc.name, par.Stats.Workers)
		}
		assertIdenticalResults(t, tc.name, serial, par)
	}
}

// TestContextCancellation: a canceled context aborts the run with
// ErrCanceled at the next node, serial and parallel alike.
func TestContextCancellation(t *testing.T) {
	tr, err := benchgen.Build("p1")
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already canceled: the engine must notice before finishing
		_, err := Insert(tr, Options{
			Library: lib, Parallelism: par, Context: ctx,
		})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("Parallelism=%d: got %v, want ErrCanceled", par, err)
		}
	}
	// A background context never cancels anything.
	if _, err := Insert(tr, Options{Library: lib, Context: context.Background()}); err != nil {
		t.Errorf("background context aborted the run: %v", err)
	}
}

// TestParallelismValidation: negative parallelism is rejected; zero takes
// the GOMAXPROCS default.
func TestParallelismValidation(t *testing.T) {
	tr := rctree.New(rctree.DefaultWire, 0.4, geom.Point{})
	tr.AddSink(tr.Root, geom.Point{X: 500, Y: 0}, 500, 10, 0)
	lib := device.DefaultLibrary()
	if _, err := Insert(tr, Options{Library: lib, Parallelism: -1}); err == nil {
		t.Error("negative parallelism accepted")
	}
	res, err := Insert(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers < 1 {
		t.Errorf("run reported %d workers", res.Stats.Workers)
	}
	if res.Stats.ArenaCandidates <= 0 {
		t.Errorf("run reported %d arena candidates", res.Stats.ArenaCandidates)
	}
}
