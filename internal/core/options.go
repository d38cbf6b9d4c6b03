package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// Rule selects the dominance/pruning rule for variation-aware runs.
type Rule uint8

const (
	// Rule2P is the paper's two-parameter rule (§2.3): strict ordering by
	// probability thresholds pbar_L, pbar_T, giving linear-time pruning and
	// merging.
	Rule2P Rule = iota
	// Rule4P is the four-parameter quantile rule of [7] (§2.2): a partial
	// order, requiring O(n·m) merging and O(N²) pairwise pruning.
	Rule4P
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case Rule2P:
		return "2P"
	case Rule4P:
		return "4P"
	default:
		return fmt.Sprintf("rule(%d)", uint8(r))
	}
}

// FourPParams are the quantile levels of the 4P rule (eq. 1–3):
// 0 <= AlphaL < AlphaU <= 1 for loading, 0 <= BetaL < BetaU <= 1 for RAT.
type FourPParams struct {
	AlphaL, AlphaU float64
	BetaL, BetaU   float64
}

// DefaultFourP mirrors a designer accepting 90% certainty bands.
func DefaultFourP() FourPParams {
	return FourPParams{AlphaL: 0.05, AlphaU: 0.95, BetaL: 0.05, BetaU: 0.95}
}

func (p FourPParams) validate() error {
	if !(0 <= p.AlphaL && p.AlphaL < p.AlphaU && p.AlphaU <= 1) {
		return fmt.Errorf("core: 4P alpha levels (%g, %g) invalid", p.AlphaL, p.AlphaU)
	}
	if !(0 <= p.BetaL && p.BetaL < p.BetaU && p.BetaU <= 1) {
		return fmt.Errorf("core: 4P beta levels (%g, %g) invalid", p.BetaL, p.BetaU)
	}
	return nil
}

// DefaultMinParallelNodes is the tree size below which parallel runs are
// auto-degraded to serial when Options.MinParallelNodes is zero. The
// crossover sits between the p1/r1 nets (~535 nodes, where 4 workers lose
// to serial) and r3 (1724 nodes, where they win); see BENCH_core.json.
const DefaultMinParallelNodes = 1024

// HullMode controls the convex-hull buffering kernel (Li–Shi, arxiv
// 0710.4691): at each buffer site, instead of materializing one buffered
// candidate per (candidate, buffer type) pair and letting the pruner
// discard the dominated ones, the engine picks each type's hull-optimal
// candidate by a flat scan over the frontier's (C, Q) staircase and skips
// the rest before they are ever generated. Results are bit-identical to
// the exact path — the kernel only ever skips candidates the very same
// pruning sweep would provably remove (see DESIGN.md §14) — but
// Stats.Generated/Pruned shrink by exactly Stats.HullSkipped.
type HullMode uint8

const (
	// HullAuto (the default) enables the kernel wherever the active rule
	// supports it: deterministic runs, 2P at pbar = 0.5 (full predictive
	// pruning) and 2P at pbar > 0.5 (per-type sandwich pre-prune). 4P
	// sites always take the exact path.
	HullAuto HullMode = iota
	// HullOff disables the kernel: every (candidate, type) pair is
	// materialized and pruned pairwise, the pre-PR behavior. The AoS
	// reference tests run with HullOff because they assert the exact
	// path's Generated/Pruned counters.
	HullOff
)

// String implements fmt.Stringer.
func (m HullMode) String() string {
	switch m {
	case HullAuto:
		return "auto"
	case HullOff:
		return "off"
	default:
		return fmt.Sprintf("hull(%d)", uint8(m))
	}
}

// ParseHullMode maps the flag/DTO spellings auto and off to a HullMode.
func ParseHullMode(s string) (HullMode, error) {
	switch s {
	case "", "auto":
		return HullAuto, nil
	case "off":
		return HullOff, nil
	default:
		return HullAuto, fmt.Errorf("core: unknown hull mode %q (want auto or off)", s)
	}
}

// Options configures one buffer-insertion run.
type Options struct {
	// Library is the buffer library (B types). Required.
	Library device.Library
	// Model supplies the variation sources; nil runs the deterministic
	// van Ginneken algorithm (the NOM baseline).
	Model *variation.Model
	// WireLibrary enables simultaneous buffer insertion and wire sizing
	// (the extension of [8]): each edge independently picks one of these
	// routing choices instead of the tree's fixed wire parasitics. Empty
	// means no wire sizing. Complexity grows to O(B·W·N²).
	WireLibrary []rctree.WireChoice
	// Rule selects 2P (default) or 4P pruning for variation-aware runs.
	Rule Rule
	// PbarL, PbarT are the 2P thresholds of eq. 6–7, in [0.5, 1). Zero
	// values default to 0.5, where pruning is exactly the mean order
	// (Theorem 1).
	PbarL, PbarT float64
	// FourP configures the 4P rule; zero value takes DefaultFourP.
	FourP FourPParams
	// SelectQuantile picks the root solution maximizing this RAT quantile
	// for variation-aware runs; zero defaults to 0.05 (the 95%-yield RAT).
	// Deterministic runs always maximize the nominal RAT.
	SelectQuantile float64
	// MaxCandidates caps the candidate list length at any node (and the
	// cross-product size for 4P merging). Exceeding it aborts with
	// ErrCapacity — the "exceeds memory capacity" outcome of Table 2.
	// Zero means no cap.
	MaxCandidates int
	// Parallelism bounds the number of DP workers that process independent
	// subtrees concurrently. 0 selects GOMAXPROCS; 1 forces the serial
	// engine. The result is bit-identical for every value — the fan-out
	// happens at multi-child Steiner nodes and the merge order is fixed.
	Parallelism int
	// MinParallelNodes is the tree size below which Parallelism > 1 is
	// degraded to the serial engine: on small trees the spawn/retire
	// overhead costs more than subtree concurrency wins (the WIDp1 bench
	// regresses 22.8 ms → 24.2 ms under 4 workers). 0 selects
	// DefaultMinParallelNodes; 1 disables the degrade entirely.
	MinParallelNodes int
	// SubtreeCache, when non-nil, memoizes per-subtree DP frontiers across
	// Insert calls keyed by canonical subtree fingerprints: re-inserts of
	// edited trees (ECO flows, batch sweeps sharing subtrees) recompute
	// only the changed branches. The cache may be shared freely across
	// goroutines, configurations, and variation models — the fingerprint
	// covers everything that influences a frontier. Results are identical
	// to uncached runs; Stats candidate/arena counters reflect only the
	// work actually performed.
	SubtreeCache *SubtreeCache
	// SubtreeCacheMinNodes is the smallest subtree (node count) worth
	// caching; 0 selects DefaultSubtreeCacheMinNodes.
	SubtreeCacheMinNodes int
	// HullBuffering selects the convex-hull buffering kernel for b-type
	// libraries (default HullAuto = on wherever the rule supports it).
	// Results are bit-identical in every mode; only the Stats counters
	// and the wall clock change. Note that MaxCandidates is checked on
	// the candidates actually materialized, so a run that exceeds the cap
	// on the exact path can succeed under the hull kernel — the cap
	// guards memory, and the skipped candidates never exist.
	HullBuffering HullMode
	// Context, when non-nil, bounds the run: the engine checks it at every
	// node and inside the quadratic 4P prune. A passed deadline aborts
	// with ErrTimeout — the "tolerable time limit" outcome of Table 2, set
	// with context.WithTimeout — and any other cancellation with
	// ErrCanceled. Servers wire the per-request context here so abandoned
	// requests stop burning a worker.
	Context context.Context
}

// Sentinel errors for capacity-limited runs (Table 2's "-" entries).
var (
	// ErrCapacity reports that a candidate list or merge cross-product
	// outgrew Options.MaxCandidates.
	ErrCapacity = errors.New("core: candidate capacity exceeded")
	// ErrTimeout reports that Options.Context's deadline passed mid-run.
	ErrTimeout = errors.New("core: time limit exceeded")
	// ErrCanceled reports that Options.Context was canceled mid-run for
	// any other reason.
	ErrCanceled = errors.New("core: run canceled")
)

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if err := opts.Library.Validate(); err != nil {
		return opts, err
	}
	if opts.PbarL == 0 {
		opts.PbarL = 0.5
	}
	if opts.PbarT == 0 {
		opts.PbarT = 0.5
	}
	if opts.PbarL < 0.5 || opts.PbarL >= 1 || opts.PbarT < 0.5 || opts.PbarT >= 1 {
		return opts, fmt.Errorf("core: pbar (%g, %g) outside [0.5, 1)", opts.PbarL, opts.PbarT)
	}
	if opts.FourP == (FourPParams{}) {
		opts.FourP = DefaultFourP()
	}
	if err := opts.FourP.validate(); err != nil {
		return opts, err
	}
	if opts.SelectQuantile == 0 {
		opts.SelectQuantile = 0.05
	}
	if opts.SelectQuantile < 0 || opts.SelectQuantile > 1 {
		return opts, fmt.Errorf("core: SelectQuantile %g outside [0, 1]", opts.SelectQuantile)
	}
	if opts.MaxCandidates < 0 {
		return opts, fmt.Errorf("core: negative MaxCandidates %d", opts.MaxCandidates)
	}
	if opts.Parallelism < 0 {
		return opts, fmt.Errorf("core: negative Parallelism %d", opts.Parallelism)
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.MinParallelNodes < 0 {
		return opts, fmt.Errorf("core: negative MinParallelNodes %d", opts.MinParallelNodes)
	}
	if opts.SubtreeCacheMinNodes < 0 {
		return opts, fmt.Errorf("core: negative SubtreeCacheMinNodes %d", opts.SubtreeCacheMinNodes)
	}
	for i, wc := range opts.WireLibrary {
		if wc.Params.R <= 0 || wc.Params.C <= 0 {
			return opts, fmt.Errorf("core: wire choice %d (%q) has non-positive parasitics %+v",
				i, wc.Name, wc.Params)
		}
	}
	return opts, nil
}

// Stats instruments one run: the counters behind Table 2 and Figure 5.
// It is the one counter schema of the system: the server's result DTO
// embeds it and its lifetime /metrics totals fold runs with Add.
type Stats struct {
	// Generated counts every candidate ever created; Pruned counts the
	// ones dominance removed.
	Generated int64 `json:"generated"`
	Pruned    int64 `json:"pruned"`
	// PeakList is the largest candidate list observed at any node.
	PeakList int `json:"peak_list"`
	// Merges counts two-list merge operations.
	Merges int64 `json:"merges"`
	// Nodes is the number of tree nodes processed.
	Nodes int `json:"nodes"`
	// Elapsed is the wall-clock runtime of the DP. Encoders report it in
	// their own unit (the server DTO as elapsed_ms).
	Elapsed time.Duration `json:"-"`
	// Workers is the number of DP goroutines that participated (1 for a
	// serial run).
	Workers int `json:"workers"`
	// ArenaCandidates counts provenance records (one per candidate ever
	// created); ArenaTerms and ArenaBytes describe the pooled Term arenas
	// backing the canonical forms (see internal/variation.Arena).
	// ArenaBytes is reserved slab capacity; ArenaUsedBytes the bytes of
	// terms actually handed out — the live occupancy.
	ArenaCandidates int64 `json:"arena_candidates"`
	ArenaTerms      int64 `json:"arena_terms"`
	ArenaBytes      int64 `json:"arena_bytes"`
	ArenaUsedBytes  int64 `json:"arena_used_bytes"`
	// SubtreeHits/Misses/Stores count subtree-cache outcomes for this run:
	// lookups that restored a memoized frontier, eligible lookups that
	// missed, and frontiers stored for future runs. All zero when
	// Options.SubtreeCache is nil.
	SubtreeHits   int64 `json:"subtree_hits"`
	SubtreeMisses int64 `json:"subtree_misses"`
	SubtreeStores int64 `json:"subtree_stores"`
	// Hull-kernel counters (all zero with HullOff or under Rule4P).
	// HullSites counts buffer sites the kernel handled; HullSkipped the
	// buffered candidates it proved dead before generation (each one
	// would have been a Generated and a Pruned on the exact path);
	// HullFallbacks the sites that bailed to exact generation because the
	// staircase invariant could not be certified; HullPeak the largest
	// per-site count of hull-selected candidates actually emitted.
	HullSites     int64 `json:"hull_sites,omitempty"`
	HullSkipped   int64 `json:"hull_skipped,omitempty"`
	HullFallbacks int64 `json:"hull_fallbacks,omitempty"`
	HullPeak      int   `json:"hull_peak,omitempty"`
}

// Add folds o into s: counters and Elapsed sum, the PeakList and HullPeak
// maxima take the larger value. Sums and maxima commute, so the fold order
// never affects the totals.
func (s *Stats) Add(o Stats) {
	s.Generated += o.Generated
	s.Pruned += o.Pruned
	s.PeakList = max(s.PeakList, o.PeakList)
	s.Merges += o.Merges
	s.Nodes += o.Nodes
	s.Elapsed += o.Elapsed
	s.Workers += o.Workers
	s.ArenaCandidates += o.ArenaCandidates
	s.ArenaTerms += o.ArenaTerms
	s.ArenaBytes += o.ArenaBytes
	s.ArenaUsedBytes += o.ArenaUsedBytes
	s.SubtreeHits += o.SubtreeHits
	s.SubtreeMisses += o.SubtreeMisses
	s.SubtreeStores += o.SubtreeStores
	s.HullSites += o.HullSites
	s.HullSkipped += o.HullSkipped
	s.HullFallbacks += o.HullFallbacks
	s.HullPeak = max(s.HullPeak, o.HullPeak)
}

// Result is the outcome of a successful insertion.
type Result struct {
	// Assignment maps node IDs to buffer library indices.
	Assignment map[rctree.NodeID]int
	// WireAssignment maps a node to the WireLibrary index chosen for the
	// edge from that node up to its parent. Nil when wire sizing was off.
	WireAssignment map[rctree.NodeID]int
	// RAT is the root required arrival time as a canonical form, including
	// the driver delay.
	RAT variation.Form
	// Mean and Sigma summarize RAT's normal distribution.
	Mean, Sigma float64
	// Objective is the value the root selection maximized (nominal RAT for
	// deterministic runs, the SelectQuantile RAT quantile otherwise).
	Objective float64
	// NumBuffers is len(Assignment).
	NumBuffers int
	// RootCandidates is the number of non-dominated solutions that
	// survived to the root.
	RootCandidates int
	// Stats carries the instrumentation counters.
	Stats Stats
}
