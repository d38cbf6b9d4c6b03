// Request/response DTOs of the vabufd HTTP/JSON API. They live in their
// own file so the bufins CLI can emit the exact same machine-readable
// result shape (-json) that the service returns from POST /v1/insert.
package server

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"vabuf"
)

// InsertRequest is the body of POST /v1/insert. Exactly one of Bench or
// Tree selects the routing tree; the remaining fields mirror the bufins
// CLI flags. Zero values take the CLI defaults.
type InsertRequest struct {
	// Bench names a built-in Table 1 benchmark (see GET /v1/benchmarks).
	Bench string `json:"bench,omitempty"`
	// Tree is an inline routing tree in the rctree text format.
	Tree string `json:"tree,omitempty"`
	// Algo is nom (deterministic van Ginneken), d2d (random + inter-die
	// variation), or wid (all classes, the paper's algorithm). Default wid.
	Algo string `json:"algo,omitempty"`
	// Rule is the pruning rule for variation-aware runs: 2p (default) or 4p.
	Rule string `json:"rule,omitempty"`
	// Hull selects the buffering kernel: "auto" (default; convex-hull
	// kernel wherever it is certified bit-identical) or "off".
	// Results are identical for every value — only candidate throughput
	// changes — so the field does not participate in result fingerprints.
	Hull string `json:"hull,omitempty"`
	// Pbar sets the 2P thresholds pbar_L = pbar_T. Default 0.5.
	Pbar float64 `json:"pbar,omitempty"`
	// Budget is the per-class variation budget. Default 0.15.
	Budget float64 `json:"budget,omitempty"`
	// Heterogeneous selects heterogeneous spatial variation. Default true.
	Heterogeneous *bool `json:"heterogeneous,omitempty"`
	// Quantile is the yield quantile for selection and reporting.
	// Default 0.05 (the 95%-yield RAT).
	Quantile float64 `json:"quantile,omitempty"`
	// MaxCandidates caps the candidate list length (0 = unlimited);
	// exceeding it fails the request with 413.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// TimeoutMS is the wall-clock limit of the insertion run in
	// milliseconds (0 = the server default); exceeding it fails the
	// request with 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Parallelism bounds the DP worker goroutines of this run (0 =
	// GOMAXPROCS, 1 = serial). Results are identical for every value. The
	// yield endpoint also splits its Monte-Carlo validation over this many
	// workers, which draw the same samples at every count.
	Parallelism int `json:"parallelism,omitempty"`
	// WireSizing enables simultaneous wire sizing with the default
	// three-width routing library.
	WireSizing bool `json:"wire_sizing,omitempty"`
	// Inverters adds the inverter library (polarity-aware insertion).
	Inverters bool `json:"inverters,omitempty"`
	// IncludeAssignment adds the full buffer assignment to the response.
	IncludeAssignment bool `json:"include_assignment,omitempty"`
	// Priority selects the scheduling class: "interactive" (default) or
	// "sweep". Sweep jobs yield to interactive ones in the worker-pool
	// queue; batch items always run as sweep regardless of this field.
	Priority string `json:"priority,omitempty"`
}

// YieldRequest is the body of POST /v1/yield: an insertion run followed
// by yield analysis of the buffered tree.
type YieldRequest struct {
	InsertRequest
	// MonteCarlo, when positive, additionally validates the canonical
	// report with that many Monte-Carlo samples (capped at 1e6).
	MonteCarlo int `json:"monte_carlo,omitempty"`
	// Seed seeds the Monte-Carlo sampler (default 1).
	Seed int64 `json:"seed,omitempty"`
	// MCTol, when positive, selects the adaptive (early-stopping)
	// sampler: sampling proceeds in deterministic chunks of 1/16 of the
	// cap and stops once the CI half-width of the yield quantile falls
	// within MCTol (relative), or at the MonteCarlo cap. The samples are
	// a prefix of the fixed-budget stream for the same seed.
	MCTol float64 `json:"mc_tol,omitempty"`
}

// BatchRequest is the body of POST /v1/insert:batch (T = InsertRequest)
// and POST /v1/yield:batch (T = YieldRequest): up to
// Config.MaxBatchItems requests answered as one aggregate response.
// Defaults, when present, fills the zero-valued fields of every item
// before validation (shared sweep parameters stated once). vabufd and
// vabufr decode it at T = json.RawMessage and parse every item on its
// own (ParseBatch, ParseRequest), so a bad item fails only itself.
type BatchRequest[T any] struct {
	Defaults *T  `json:"defaults,omitempty"`
	Items    []T `json:"items"`
}

// BatchItem is the outcome of one batch item: either Result (Status
// 200) or Error with the status the item would have received as a
// standalone request. A failed item never fails the batch.
type BatchItem[T any] struct {
	Index  int    `json:"index"`
	Status int    `json:"status"`
	Result T      `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// BatchResult is the response of a batch endpoint, with T the result
// type of its kind (*InsertResult or *YieldResult). The overall HTTP
// status is 200 even with per-item errors; only a batch where nothing
// could be enqueued answers 429 or 503.
type BatchResult[T any] struct {
	Items     []BatchItem[T] `json:"items"`
	Succeeded int            `json:"succeeded"`
	Errors    int            `json:"errors"`
}

// Tally counts the items that succeeded and failed.
func (b *BatchResult[T]) Tally() {
	for _, it := range b.Items {
		if it.Status == http.StatusOK {
			b.Succeeded++
		} else {
			b.Errors++
		}
	}
}

// StatsDTO is the "stats" object of an InsertResult: the run's work
// counters (core.Stats, the counters behind the paper's Table 2 and
// Figure 5, under their own json tags) plus the DP wall clock in ms.
type StatsDTO struct {
	vabuf.Stats
	ElapsedMS float64 `json:"elapsed_ms"`
}

// AssignmentEntry is one inserted buffer in an InsertResult.
type AssignmentEntry struct {
	Node   int     `json:"node"`
	Kind   string  `json:"kind"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Buffer string  `json:"buffer"`
}

// InsertResult is the response of POST /v1/insert and the bufins -json
// output: tree shape, the root RAT distribution, and run instrumentation.
type InsertResult struct {
	Bench           string            `json:"bench,omitempty"`
	Algo            string            `json:"algo"`
	Rule            string            `json:"rule"`
	Pbar            float64           `json:"pbar"`
	Quantile        float64           `json:"quantile"`
	Sinks           int               `json:"sinks"`
	BufferPositions int               `json:"buffer_positions"`
	WireLengthUM    float64           `json:"wire_length_um"`
	MeanPS          float64           `json:"mean_ps"`
	SigmaPS         float64           `json:"sigma_ps"`
	ObjectivePS     float64           `json:"objective_ps"`
	NumBuffers      int               `json:"num_buffers"`
	RootCandidates  int               `json:"root_candidates"`
	Stats           StatsDTO          `json:"stats"`
	ElapsedMS       float64           `json:"elapsed_ms"`
	TreeCacheHit    bool              `json:"tree_cache_hit,omitempty"`
	ModelCacheHit   bool              `json:"model_cache_hit,omitempty"`
	WireUsage       map[string]int    `json:"wire_usage,omitempty"`
	Assignment      []AssignmentEntry `json:"assignment,omitempty"`
}

// MonteCarloDTO summarizes a Monte-Carlo validation run. The CI fields
// are present only on adaptive (mc_tol > 0) and streamed runs.
type MonteCarloDTO struct {
	Samples     int     `json:"samples"`
	MeanPS      float64 `json:"mean_ps"`
	SigmaPS     float64 `json:"sigma_ps"`
	QuantileRAT float64 `json:"quantile_rat_ps"`
	// CIHalfWidthPS is the half-width of the distribution-free 95% CI of
	// the quantile estimate; Converged reports whether the adaptive
	// stopping rule fired before the sample cap.
	CIHalfWidthPS float64 `json:"ci_half_width_ps,omitempty"`
	Converged     bool    `json:"converged,omitempty"`
}

// YieldResult is the response of POST /v1/yield.
type YieldResult struct {
	Insert InsertResult `json:"insert"`
	// MeanPS/SigmaPS/YieldRATPS describe the canonical root RAT of the
	// buffered tree re-propagated under the model.
	MeanPS     float64        `json:"mean_ps"`
	SigmaPS    float64        `json:"sigma_ps"`
	YieldRATPS float64        `json:"yield_rat_ps"`
	MonteCarlo *MonteCarloDTO `json:"monte_carlo,omitempty"`
}

// BenchmarksResult is the response of GET /v1/benchmarks.
type BenchmarksResult struct {
	Benchmarks []string `json:"benchmarks"`
}

// ErrorResult is the body of every non-2xx response.
type ErrorResult struct {
	Error string `json:"error"`
}

// CheckUnitInterval returns an error unless 0 < v < 1. Shared by the
// server request validation and the bufins flag validation.
func CheckUnitInterval(name string, v float64) error {
	if !(v > 0 && v < 1) {
		return fmt.Errorf("%s must be inside (0, 1), got %g", name, v)
	}
	return nil
}

// Normalize fills defaults and validates the request, returning an error
// suitable for a 400 response. ParseRequest runs it on every request.
func (r *InsertRequest) Normalize() error {
	switch {
	case r.Bench != "" && r.Tree != "":
		return fmt.Errorf(`give either "bench" or "tree", not both`)
	case r.Bench == "" && r.Tree == "":
		return fmt.Errorf(`one of "bench" or "tree" is required`)
	}
	if r.Algo == "" {
		r.Algo = "wid"
	}
	switch r.Algo {
	case "nom", "d2d", "wid":
	default:
		return fmt.Errorf("unknown algo %q (want nom, d2d, or wid)", r.Algo)
	}
	if r.Rule == "" {
		r.Rule = "2p"
	}
	switch strings.ToLower(r.Rule) {
	case "2p", "4p":
		r.Rule = strings.ToLower(r.Rule)
	default:
		return fmt.Errorf("unknown rule %q (want 2p or 4p)", r.Rule)
	}
	if _, err := vabuf.ParseHullMode(r.Hull); err != nil {
		return err
	}
	if r.Pbar == 0 {
		r.Pbar = 0.5
	}
	if err := CheckUnitInterval("pbar", r.Pbar); err != nil {
		return err
	}
	if r.Budget == 0 {
		r.Budget = 0.15
	}
	if !(r.Budget >= 0 && r.Budget <= 1) {
		return fmt.Errorf("budget must be inside [0, 1], got %g", r.Budget)
	}
	if r.Quantile == 0 {
		r.Quantile = 0.05
	}
	if err := CheckUnitInterval("quantile", r.Quantile); err != nil {
		return err
	}
	if r.MaxCandidates < 0 {
		return fmt.Errorf("max_candidates must be >= 0, got %d", r.MaxCandidates)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", r.TimeoutMS)
	}
	if r.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", r.Parallelism)
	}
	switch r.Priority {
	case "", "interactive", "sweep":
	default:
		return fmt.Errorf("unknown priority %q (want interactive or sweep)", r.Priority)
	}
	return nil
}

// Normalize fills defaults and validates the yield request.
func (r *YieldRequest) Normalize() error {
	if err := r.InsertRequest.Normalize(); err != nil {
		return err
	}
	if r.MonteCarlo < 0 || r.MonteCarlo > 1_000_000 {
		return fmt.Errorf("monte_carlo must be in [0, 1000000], got %d", r.MonteCarlo)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if !(r.MCTol >= 0 && r.MCTol < 1) {
		return fmt.Errorf("mc_tol must be in [0, 1), got %g", r.MCTol)
	}
	// A -0 tolerance would fingerprint as "-0", but re-encoding drops it
	// (omitempty) and the forwarded copy would key as "0".
	r.MCTol = math.Abs(r.MCTol)
	if r.MCTol > 0 && r.MonteCarlo == 0 {
		return fmt.Errorf("mc_tol requires monte_carlo > 0 (the sample cap)")
	}
	return nil
}

// applyDefaults fills the zero-valued fields of r from d, the
// shared-defaults block of a batch request. An item that states a field
// always wins; booleans merge only from false, so a default can enable
// but never disable an option per item.
func (r *InsertRequest) applyDefaults(dr Request) {
	d := dr.insert()
	if r.Bench == "" && r.Tree == "" {
		r.Bench, r.Tree = d.Bench, d.Tree
	}
	if r.Algo == "" {
		r.Algo = d.Algo
	}
	if r.Rule == "" {
		r.Rule = d.Rule
	}
	if r.Hull == "" {
		r.Hull = d.Hull
	}
	if r.Pbar == 0 {
		r.Pbar = d.Pbar
	}
	if r.Budget == 0 {
		r.Budget = d.Budget
	}
	if r.Heterogeneous == nil {
		r.Heterogeneous = d.Heterogeneous
	}
	if r.Quantile == 0 {
		r.Quantile = d.Quantile
	}
	if r.MaxCandidates == 0 {
		r.MaxCandidates = d.MaxCandidates
	}
	if r.TimeoutMS == 0 {
		r.TimeoutMS = d.TimeoutMS
	}
	if r.Parallelism == 0 {
		r.Parallelism = d.Parallelism
	}
	if !r.WireSizing {
		r.WireSizing = d.WireSizing
	}
	if !r.Inverters {
		r.Inverters = d.Inverters
	}
	if !r.IncludeAssignment {
		r.IncludeAssignment = d.IncludeAssignment
	}
	if r.Priority == "" {
		r.Priority = d.Priority
	}
}

// applyDefaults fills the zero-valued fields of r from d, a yield
// request's defaults block.
func (r *YieldRequest) applyDefaults(dr Request) {
	d := dr.(*YieldRequest)
	r.InsertRequest.applyDefaults(d)
	if r.MonteCarlo == 0 {
		r.MonteCarlo = d.MonteCarlo
	}
	if r.Seed == 0 {
		r.Seed = d.Seed
	}
	if r.MCTol == 0 {
		r.MCTol = d.MCTol
	}
}

// insert returns the insertion part of the request.
func (r *InsertRequest) insert() *InsertRequest { return r }

// heterogeneous reports the effective Heterogeneous setting (default true).
func (r *InsertRequest) heterogeneous() bool {
	if r.Heterogeneous == nil {
		return true
	}
	return *r.Heterogeneous
}

// BuildTree builds the request's tree: the named benchmark or the parsed
// inline text.
func (r *InsertRequest) BuildTree() (*vabuf.Tree, error) {
	if r.Bench != "" {
		return vabuf.GenerateBenchmark(r.Bench)
	}
	return vabuf.ReadTree(strings.NewReader(r.Tree))
}

// Options returns the insertion options of a normalized request over the
// buffer library base; inverters go on a copy. Model, Context and
// SubtreeCache are the caller's.
func (r *InsertRequest) Options(base vabuf.Library) vabuf.Options {
	opts := vabuf.Options{
		Library:        base,
		PbarL:          r.Pbar,
		PbarT:          r.Pbar,
		SelectQuantile: r.Quantile,
		MaxCandidates:  r.MaxCandidates,
		Parallelism:    r.Parallelism,
	}
	if r.Inverters {
		opts.Library = append(slices.Clip(base), vabuf.InverterLibrary()...)
	}
	if r.Rule == "4p" {
		opts.Rule = vabuf.Rule4P
	}
	// Normalize already validated the string; the error branch is dead.
	opts.HullBuffering, _ = vabuf.ParseHullMode(r.Hull)
	if r.WireSizing {
		opts.WireLibrary = vabuf.DefaultWireLibrary()
	}
	return opts
}

// ModelConfig is the §5.1 variation model of algo (d2d or wid) on tree,
// every class at the per-class budget; d2d has no spatial class.
func ModelConfig(tree *vabuf.Tree, algo string, budget float64, hetero bool) vabuf.ModelConfig {
	cfg := vabuf.DefaultModelConfig(tree)
	cfg.RandomFrac, cfg.InterDieFrac, cfg.SpatialFrac = budget, budget, budget
	cfg.Heterogeneous = hetero
	if algo == "d2d" {
		cfg.SpatialFrac, cfg.Heterogeneous = 0, false
	}
	return cfg
}

// NewInsertResult assembles the result DTO from an insertion run. The
// bufins CLI and the /v1/insert handler both use it, so the two output
// shapes can never drift apart.
func NewInsertResult(tree *vabuf.Tree, lib vabuf.Library, algo string,
	opts vabuf.Options, res *vabuf.Result, elapsed time.Duration,
	includeAssignment bool) InsertResult {
	out := InsertResult{
		Algo:            algo,
		Rule:            opts.Rule.String(),
		Pbar:            opts.PbarL,
		Quantile:        opts.SelectQuantile,
		Sinks:           tree.NumSinks(),
		BufferPositions: tree.NumBufferPositions(),
		WireLengthUM:    tree.TotalWireLength(),
		MeanPS:          res.Mean,
		SigmaPS:         res.Sigma,
		ObjectivePS:     res.Objective,
		NumBuffers:      res.NumBuffers,
		RootCandidates:  res.RootCandidates,
		Stats: StatsDTO{
			Stats:     res.Stats,
			ElapsedMS: float64(res.Stats.Elapsed) / float64(time.Millisecond),
		},
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if len(res.WireAssignment) > 0 {
		counts := make(map[int]int)
		for _, wi := range res.WireAssignment {
			counts[wi]++
		}
		out.WireUsage = make(map[string]int, len(opts.WireLibrary))
		for wi, wc := range opts.WireLibrary {
			out.WireUsage[wc.Name] = counts[wi]
		}
	}
	if includeAssignment {
		out.Assignment = make([]AssignmentEntry, 0, len(res.Assignment))
		for _, id := range sortedNodeIDs(res.Assignment) {
			n := tree.Node(id)
			out.Assignment = append(out.Assignment, AssignmentEntry{
				Node:   int(id),
				Kind:   n.Kind.String(),
				X:      n.Loc.X,
				Y:      n.Loc.Y,
				Buffer: lib[res.Assignment[id]].Name,
			})
		}
	}
	return out
}

func sortedNodeIDs(m map[vabuf.NodeID]int) []vabuf.NodeID {
	ids := make([]vabuf.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
