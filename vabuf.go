// Package vabuf is a variation-aware buffer-insertion library for RC
// routing trees, reproducing "Buffer Insertion Considering Process
// Variation" (Xiong, Tam, He — DATE 2005) and its extended version with
// the linear-complexity two-parameter (2P) pruning rule.
//
// The library contains:
//
//   - an RC routing-tree substrate with Elmore delay (rctree types
//     re-exported here),
//   - a first-order process-variation model with per-device random,
//     spatially correlated intra-die, and inter-die components,
//   - dynamic-programming buffer insertion: deterministic van Ginneken,
//     the paper's 2P variation-aware algorithm, and the 4P baseline,
//   - yield analysis: canonical RAT distributions, Monte-Carlo
//     validation, timing-yield metrics,
//   - benchmark generators matching the paper's Table 1,
//   - a device-characterization substrate (alpha-power-law "SPICE") with
//     the first-order fitting pipeline of §3.1 and SS/TT/FF corners, and
//   - extensions beyond the paper: simultaneous wire sizing ([8]),
//     polarity-aware insertion with inverters, drive-capability limits,
//     clock-skew minimization (§6 future work), sink criticality,
//     and parallel Monte Carlo.
//
// # Quickstart
//
//	tree, _ := vabuf.GenerateBenchmark("r1")
//	model, _ := vabuf.NewVariationModel(vabuf.DefaultModelConfig(tree))
//	res, _ := vabuf.Insert(tree, vabuf.Options{
//		Library: vabuf.DefaultLibrary(),
//		Model:   model,
//	})
//	fmt.Printf("RAT %.1f ± %.1f ps with %d buffers\n", res.Mean, res.Sigma, res.NumBuffers)
//
// Units throughout: µm, fF, kΩ, ps (1 kΩ·fF = 1 ps).
package vabuf

import (
	"io"

	"vabuf/internal/benchgen"
	"vabuf/internal/core"
	"vabuf/internal/device"
	"vabuf/internal/geom"
	"vabuf/internal/rctree"
	"vabuf/internal/skew"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// Re-exported substrate types. The facade keeps one import for library
// users; the internal packages stay free to evolve.
type (
	// Tree is an RC routing tree (driver root, Steiner points, sinks).
	Tree = rctree.Tree
	// Node is one tree vertex.
	Node = rctree.Node
	// NodeID indexes a node within its tree.
	NodeID = rctree.NodeID
	// WireParams are per-unit-length wire parasitics (kΩ/µm, fF/µm).
	WireParams = rctree.WireParams
	// BufferValues are sampled electrical values of one buffer instance.
	BufferValues = rctree.BufferValues
	// Point is a die location in µm.
	Point = geom.Point
	// Rect is an axis-aligned die region.
	Rect = geom.Rect

	// BufferType is one library entry (C_b, T_b, R_b).
	BufferType = device.BufferType
	// Library is an ordered buffer library.
	Library = device.Library

	// VariationModel owns the variation sources for one die.
	VariationModel = variation.Model
	// ModelConfig selects variation classes, budgets and grid geometry.
	ModelConfig = variation.ModelConfig
	// Form is a first-order canonical form over variation sources.
	Form = variation.Form

	// Options configures a buffer-insertion run.
	Options = core.Options
	// Result is the outcome of an insertion run.
	Result = core.Result
	// Stats holds the work counters of a run (Result.Stats).
	Stats = core.Stats
	// Rule selects the variation-aware pruning rule (2P or 4P).
	Rule = core.Rule
	// FourPParams are the quantile levels of the 4P baseline rule.
	FourPParams = core.FourPParams
	// HullMode selects the convex-hull buffering kernel (auto/off);
	// results are bit-identical in every mode.
	HullMode = core.HullMode
	// SubtreeCache memoizes per-subtree DP frontiers across Insert calls
	// (wire one instance into Options.SubtreeCache to make batch sweeps
	// and ECO re-inserts recompute only changed branches).
	SubtreeCache = core.SubtreeCache
	// SubtreeCacheStats is a point-in-time snapshot of cache counters.
	SubtreeCacheStats = core.SubtreeCacheStats

	// BenchmarkSpec describes a synthetic benchmark tree.
	BenchmarkSpec = benchgen.Spec

	// YieldReport summarizes a buffered design under a variation model.
	YieldReport = yield.Report

	// WireChoice is one routing option (width/layer) for wire sizing.
	WireChoice = rctree.WireChoice
	// WireAssignment maps nodes to wire overrides for their parent edges.
	WireAssignment = rctree.WireAssignment

	// SkewOptions configures clock-skew minimization (the paper's §6
	// future work, implemented in internal/skew).
	SkewOptions = skew.Options
	// SkewResult is the outcome of a skew-minimization run.
	SkewResult = skew.Result

	// VariationSpace is the registry of independent variation sources
	// shared by every canonical form of one run (model.Space).
	VariationSpace = variation.Space
)

// Pruning rules (see core.Rule).
const (
	// Rule2P is the paper's two-parameter pruning rule (linear complexity).
	Rule2P = core.Rule2P
	// Rule4P is the four-parameter baseline rule of the DATE 2005 paper [7].
	Rule4P = core.Rule4P
)

// Convex-hull buffering kernel modes (see core.HullMode).
const (
	// HullAuto engages the hull kernel wherever the active rule supports
	// it (the default).
	HullAuto = core.HullAuto
	// HullOff forces the exact per-pair generation path.
	HullOff = core.HullOff
)

// ParseHullMode parses "auto" (or "") and "off" into a HullMode — the
// spelling accepted by the CLI -hull flags and the JSON "hull" field.
func ParseHullMode(s string) (HullMode, error) { return core.ParseHullMode(s) }

// Sentinel errors from capacity-limited runs.
var (
	// ErrCapacity reports that a run exceeded Options.MaxCandidates.
	ErrCapacity = core.ErrCapacity
	// ErrTimeout reports that Options.Context's deadline passed mid-run.
	ErrTimeout = core.ErrTimeout
	// ErrCanceled reports that Options.Context was otherwise canceled
	// mid-run.
	ErrCanceled = core.ErrCanceled
)

// Insert runs dynamic-programming buffer insertion on the tree: the
// deterministic van Ginneken algorithm when opts.Model is nil, the
// variation-aware algorithm of the paper otherwise.
func Insert(tree *Tree, opts Options) (*Result, error) {
	return core.Insert(tree, opts)
}

// DefaultLibrary returns the four-size 65 nm buffer library characterized
// from the built-in device substrate.
func DefaultLibrary() Library { return device.DefaultLibrary() }

// NewSubtreeCache creates a subtree frontier cache bounded to maxBytes
// (<= 0 selects the 64 MiB default). One cache may be shared by any number
// of concurrent Insert calls and configurations; results are identical to
// uncached runs.
func NewSubtreeCache(maxBytes int64) *SubtreeCache { return core.NewSubtreeCache(maxBytes) }

// DefaultWire is the default global-layer wire parasitics.
var DefaultWire = rctree.DefaultWire

// NewTree creates a tree containing only the driver node.
func NewTree(wire WireParams, driverR float64, at Point) *Tree {
	return rctree.New(wire, driverR, at)
}

// GenerateBenchmark builds one of the paper's Table 1 benchmarks
// (p1, p2, r1–r5) with its fixed seed.
func GenerateBenchmark(name string) (*Tree, error) { return benchgen.Build(name) }

// Benchmarks returns the names of the built-in Table 1 benchmarks in
// presentation order (p1, p2, r1–r5). Each name is accepted by
// GenerateBenchmark.
func Benchmarks() []string {
	specs := benchgen.Presets()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// GenerateTree builds a random routing tree from a spec.
func GenerateTree(spec BenchmarkSpec) (*Tree, error) { return benchgen.Random(spec) }

// GenerateHTree builds a 4^levels-sink H-tree clock network.
func GenerateHTree(levels int, dieSide, sinkCap float64) (*Tree, error) {
	return benchgen.HTree(levels, dieSide, sinkCap, rctree.WireParams{}, 0)
}

// DefaultModelConfig returns the paper's §5.1 variation setup (500 µm
// grid, 2 mm correlation taper, 5% class budgets) sized to the tree.
func DefaultModelConfig(tree *Tree) ModelConfig {
	return variation.DefaultConfig(tree.BoundingBox().Expand(100))
}

// NewVariationModel allocates the variation sources for a configuration.
func NewVariationModel(cfg ModelConfig) (*VariationModel, error) {
	return variation.NewModel(cfg)
}

// EvaluateYield reports the RAT distribution and q-quantile yield RAT of a
// buffered tree under a model via canonical propagation.
func EvaluateYield(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel, q float64) (YieldReport, error) {
	return yield.Evaluate(tree, lib, assign, model, q)
}

// PropagateRAT returns the canonical root RAT form of a fixed buffered
// tree under a model (nil model = deterministic).
func PropagateRAT(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel) (Form, error) {
	return yield.Propagate(tree, lib, assign, model)
}

// MonteCarloRAT samples the model n times and returns the per-sample
// Elmore root RAT of the buffered tree.
func MonteCarloRAT(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel, n int, seed int64) ([]float64, error) {
	return yield.MonteCarlo(tree, lib, assign, model, n, seed)
}

// MonteCarloRATParallel is MonteCarloRAT fanned out over worker
// goroutines with deterministic sharding (identical output for any
// worker count). workers <= 0 selects GOMAXPROCS.
func MonteCarloRATParallel(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel, n int, seed int64, workers int) ([]float64, error) {
	return yield.MonteCarloParallel(tree, lib, assign, nil, model, n, seed, workers)
}

// MCAdaptiveOptions configures an early-stopping Monte-Carlo run (sample
// cap, seed, quantile, confidence, relative CI tolerance).
type MCAdaptiveOptions = yield.AdaptiveOptions

// MCEstimate is the running (or final) state of an adaptive Monte-Carlo
// run: sample count, moments, quantile estimate with CI half-width, and
// whether the stopping rule fired.
type MCEstimate = yield.Estimate

// MonteCarloRATAdaptive is MonteCarloRATParallel with a sequential
// stopping rule: sampling proceeds in deterministic shard-sized chunks
// and stops once the CI half-width of the requested RAT quantile falls
// within opts.Tol (relative), or at opts.MaxSamples. The returned
// samples are a shard-aligned prefix of the MonteCarloRATParallel
// stream for the same (MaxSamples, Seed), so a run that never converges
// reproduces the fixed-budget result exactly.
func MonteCarloRATAdaptive(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel, opts MCAdaptiveOptions) ([]float64, MCEstimate, error) {
	return yield.MonteCarloAdaptive(tree, lib, assign, nil, model, opts)
}

// SinkCriticality returns, per sink, the probability that it is the
// statistically critical one (the sink realizing the minimum slack at
// the root) for a fixed buffered tree under the model.
func SinkCriticality(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel) (map[NodeID]float64, error) {
	return yield.Criticality(tree, lib, assign, model)
}

// InverterLibrary returns the two-size inverter library; combine it with
// DefaultLibrary for polarity-aware insertion.
func InverterLibrary() Library { return device.InverterLibrary() }

// ReadLibrary parses a JSON buffer library.
func ReadLibrary(r io.Reader) (Library, error) { return device.ReadLibrary(r) }

// WriteLibrary serializes a buffer library as JSON.
func WriteLibrary(w io.Writer, lib Library) error { return device.WriteLibrary(w, lib) }

// DefaultWireLibrary returns the three-width routing library used for
// simultaneous buffer insertion and wire sizing.
func DefaultWireLibrary() []WireChoice { return rctree.DefaultWireLibrary() }

// MinimizeSkew runs skew-aware buffer insertion on a clock tree,
// minimizing a quantile of the source-to-sink delay spread.
func MinimizeSkew(tree *Tree, opts SkewOptions) (*SkewResult, error) {
	return skew.Minimize(tree, opts)
}

// PropagateSkew evaluates a fixed buffered clock tree, returning the
// canonical forms of the skew (max minus min source-to-sink delay) and
// the insertion latency.
func PropagateSkew(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel) (skewForm, latency Form, err error) {
	return skew.Propagate(tree, lib, assign, model)
}

// MonteCarloSkew samples the model and returns per-sample exact skews of
// the buffered clock tree.
func MonteCarloSkew(tree *Tree, lib Library, assign map[NodeID]int,
	model *VariationModel, n int, seed int64) ([]float64, error) {
	return skew.MonteCarlo(tree, lib, assign, model, n, seed)
}

// ConstForm returns a deterministic canonical form with the given value.
func ConstForm(v float64) Form { return variation.Const(v) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
//
// Mean, MeanVar, StdDev, and Percentile re-export the descriptive-stats
// helpers the experiments pipeline reduces its Monte-Carlo samples
// with, so external consumers (and the vabufd server) summarize sample
// vectors exactly the way cmd/experiments does.
func Mean(xs []float64) float64 { return stats.Mean(xs) }

// MeanVar returns the sample mean and the unbiased (n-1) sample
// variance of xs in one pass.
func MeanVar(xs []float64) (mean, variance float64) { return stats.MeanVar(xs) }

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return stats.StdDev(xs) }

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) { return stats.Percentile(xs, p) }

// ReadTree parses a tree from the rctree text format.
func ReadTree(r io.Reader) (*Tree, error) { return rctree.Read(r) }

// WriteTree serializes a tree in the rctree text format.
func WriteTree(w io.Writer, t *Tree) error { return rctree.Write(w, t) }

// SegmentizeTree splits every wire longer than maxLen into equal segments,
// adding legal buffer positions without changing Elmore behaviour.
func SegmentizeTree(t *Tree, maxLen float64) (*Tree, error) {
	return benchgen.Segmentize(t, maxLen)
}

// Evaluate computes the deterministic Elmore root RAT of a buffered tree
// with explicit per-buffer electrical values.
func Evaluate(tree *Tree, buffers map[NodeID]BufferValues) (rootRAT, rootLoad float64, err error) {
	ev, err := rctree.Evaluate(tree, buffers)
	if err != nil {
		return 0, 0, err
	}
	return ev.RootRAT, ev.RootLoad, nil
}
