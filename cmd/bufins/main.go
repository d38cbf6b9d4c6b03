// Command bufins runs buffer insertion on a routing tree — either one of
// the built-in Table 1 benchmarks or a tree file in the rctree text
// format — and prints the resulting RAT distribution, buffer count, and
// optionally the full assignment.
//
// Usage:
//
//	bufins -bench r3 -algo wid
//	bufins -tree net.tree -algo nom -print-assignment
//	bufins -bench r1 -json    # machine-readable, the vabufd /v1/insert DTO
//	bufins -batch reqs.json -server http://localhost:8577
//	                          # POST a JSON array of requests as one batch
//	bufins -batch reqs.json -server http://h1:8577,http://h2:8577
//	                          # rotate to the next address on connect error/503
//	bufins -bench r3 -stream -mc 32768 -mc-tol 0.01
//	                          # stream adaptive Monte-Carlo yield analysis
//
// Batch mode reads a JSON array of /v1/insert request objects (or "-"
// for stdin), posts them to the server's /v1/insert:batch endpoint as
// one aggregate call, and prints the aggregate response. The items run
// under the sweep priority class, yielding to interactive requests.
//
// Stream mode posts a yield request to the server's /v1/yield:stream
// endpoint and follows the NDJSON event stream: Monte-Carlo progress
// ticks on stderr as sampling chunks complete, and the final result
// prints on stdout (the full /v1/yield DTO with -json). A positive
// -mc-tol selects the adaptive sampler, which stops once the yield
// quantile's CI half-width falls within the tolerance.
//
// Algorithms: nom (deterministic van Ginneken), d2d (random + inter-die
// variation), wid (all variation classes, the paper's algorithm). The
// -rule flag selects 2P (default) or the 4P baseline, and -pbar sets the
// 2P thresholds.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"vabuf"
	"vabuf/internal/server"
	"vabuf/internal/variation"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bufins:", err)
		os.Exit(1)
	}
}

// profileTo starts a CPU profile and/or arranges a heap profile; the
// returned func finalizes both. Shared by bufins and experiments via copy —
// it is 20 lines of flag glue, not worth a package.
func profileTo(cpuFile, memFile string) (func() error, error) {
	var cpu *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func run() error {
	var (
		bench     = flag.String("bench", "", "built-in benchmark name ("+strings.Join(vabuf.Benchmarks(), ", ")+")")
		treeFile  = flag.String("tree", "", "tree file in rctree text format")
		algo      = flag.String("algo", "wid", "nom, d2d, or wid")
		ruleName  = flag.String("rule", "2p", "pruning rule for variation-aware runs: 2p or 4p")
		hullName  = flag.String("hull", "auto", "convex-hull buffering kernel: auto or off (results identical)")
		pbar      = flag.Float64("pbar", 0.5, "2P thresholds pbar_L = pbar_T")
		budget    = flag.Float64("budget", 0.15, "per-class variation budget")
		hetero    = flag.Bool("hetero", true, "heterogeneous spatial variation")
		quantile  = flag.Float64("quantile", 0.05, "yield quantile for selection and reporting")
		maxCand   = flag.Int("max-candidates", 0, "candidate cap (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit (0 = unlimited)")
		printAsgn = flag.Bool("print-assignment", false, "print the buffer assignment")
		inverters = flag.Bool("inverters", false, "add the inverter library (polarity-aware insertion)")
		libFile   = flag.String("library", "", "JSON buffer-library file (default: built-in library)")
		wireSize  = flag.Bool("wire-sizing", false, "enable simultaneous wire sizing")
		critN     = flag.Int("criticality", 0, "print the N most critical sinks")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON (the vabufd /v1/insert DTO)")
		batchFile = flag.String("batch", "", `JSON array of insert requests to POST as one batch ("-" = stdin)`)
		stream    = flag.Bool("stream", false, "stream Monte-Carlo yield analysis from the server's /v1/yield:stream")
		mcN       = flag.Int("mc", 0, "Monte-Carlo sample budget for -stream mode")
		mcTol     = flag.Float64("mc-tol", 0, "adaptive MC: stop once the quantile CI half-width is within this relative tolerance (0 = burn the full -mc budget)")
		seed      = flag.Int64("seed", 0, "Monte-Carlo seed for -stream mode (0 = server default)")
		serverURL = flag.String("server", "http://localhost:8577",
			"comma-separated vabufd (or vabufr) base URLs for -batch and -stream modes; rotates to the next address on connect error or 503")
		retries   = flag.Int("retries", 4, "batch-mode retries on 429/503/transport errors (0 disables)")
		retryBase = flag.Duration("retry-base", 250*time.Millisecond, "initial retry backoff (doubles per attempt, with jitter)")
		retryMax  = flag.Duration("retry-max", 5*time.Second, "backoff cap; Retry-After overrides the computed delay")
		parallel  = flag.Int("parallel", 0, "DP worker goroutines (0 = GOMAXPROCS, 1 = serial; results identical)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	finishProfiles, err := profileTo(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := finishProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "bufins: profile:", err)
		}
	}()

	if *batchFile != "" {
		if *bench != "" || *treeFile != "" {
			return fmt.Errorf("-batch is exclusive with -bench/-tree: the batch file carries the trees")
		}
		if *stream {
			return fmt.Errorf("-batch and -stream are exclusive")
		}
		servers, err := parseServerList(*serverURL)
		if err != nil {
			return err
		}
		pol := retryPolicy{retries: *retries, base: *retryBase, max: *retryMax}
		if *timeout > 0 {
			pol.deadline = time.Now().Add(*timeout)
		}
		return runBatch(*batchFile, servers, pol)
	}

	if *stream {
		switch {
		case *mcN <= 0:
			return fmt.Errorf("-stream needs a Monte-Carlo budget: set -mc > 0")
		case *libFile != "":
			return fmt.Errorf("-library is local-only; -stream runs against the server's built-in library")
		case *critN > 0:
			return fmt.Errorf("-criticality is local-only, not available with -stream")
		}
		req := server.YieldRequest{
			InsertRequest: server.InsertRequest{
				Bench:             *bench,
				Algo:              *algo,
				Rule:              *ruleName,
				Hull:              *hullName,
				Pbar:              *pbar,
				Budget:            *budget,
				Heterogeneous:     hetero,
				Quantile:          *quantile,
				MaxCandidates:     *maxCand,
				TimeoutMS:         timeout.Milliseconds(),
				Parallelism:       *parallel,
				WireSizing:        *wireSize,
				Inverters:         *inverters,
				IncludeAssignment: *printAsgn,
			},
			MonteCarlo: *mcN,
			Seed:       *seed,
			MCTol:      *mcTol,
		}
		switch {
		case *bench != "" && *treeFile != "":
			return fmt.Errorf("give either -bench or -tree, not both")
		case *treeFile != "":
			raw, err := os.ReadFile(*treeFile)
			if err != nil {
				return err
			}
			req.Tree = string(raw)
		case *bench == "":
			return fmt.Errorf("one of -bench or -tree is required")
		}
		servers, err := parseServerList(*serverURL)
		if err != nil {
			return err
		}
		pol := retryPolicy{retries: *retries, base: *retryBase, max: *retryMax}
		if *timeout > 0 {
			pol.deadline = time.Now().Add(*timeout)
		}
		return runStream(req, servers, pol, *jsonOut)
	}

	if err := server.CheckUnitInterval("-pbar", *pbar); err != nil {
		return err
	}
	if err := server.CheckUnitInterval("-quantile", *quantile); err != nil {
		return err
	}
	tree, err := loadTree(*bench, *treeFile)
	if err != nil {
		return err
	}
	lib := vabuf.DefaultLibrary()
	if *libFile != "" {
		f, err := os.Open(*libFile)
		if err != nil {
			return err
		}
		lib, err = vabuf.ReadLibrary(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if *inverters {
		lib = append(lib, vabuf.InverterLibrary()...)
	}
	opts := vabuf.Options{
		Library:        lib,
		PbarL:          *pbar,
		PbarT:          *pbar,
		SelectQuantile: *quantile,
		MaxCandidates:  *maxCand,
		Parallelism:    *parallel,
	}
	if *wireSize {
		opts.WireLibrary = vabuf.DefaultWireLibrary()
	}
	switch *ruleName {
	case "2p":
		opts.Rule = vabuf.Rule2P
	case "4p":
		opts.Rule = vabuf.Rule4P
	default:
		return fmt.Errorf("unknown rule %q", *ruleName)
	}
	opts.HullBuffering, err = vabuf.ParseHullMode(*hullName)
	if err != nil {
		return err
	}
	var model *vabuf.VariationModel
	switch *algo {
	case "nom":
	case "d2d", "wid":
		cfg := vabuf.DefaultModelConfig(tree)
		cfg.RandomFrac = *budget
		cfg.InterDieFrac = *budget
		cfg.SpatialFrac = *budget
		cfg.Heterogeneous = *hetero
		if *algo == "d2d" {
			cfg.SpatialFrac = 0
			cfg.Heterogeneous = false
		}
		model, err = variation.NewModel(cfg)
		if err != nil {
			return err
		}
		opts.Model = model
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}
	t0 := time.Now()
	res, err := vabuf.Insert(tree, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)

	if *jsonOut {
		out := server.NewInsertResult(tree, lib, *algo, opts, res, elapsed, *printAsgn)
		out.Bench = *bench
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Printf("tree: %d sinks, %d buffer positions, %.0f µm wire\n",
		tree.NumSinks(), tree.NumBufferPositions(), tree.TotalWireLength())
	fmt.Printf("algo: %s (rule %v, pbar %.2f)\n", *algo, opts.Rule, *pbar)
	fmt.Printf("RAT:  mean %.2f ps, sigma %.2f ps, %g%%-yield RAT %.2f ps\n",
		res.Mean, res.Sigma, 100*(1-*quantile), res.Objective)
	fmt.Printf("buffers: %d, root candidates: %d\n", res.NumBuffers, res.RootCandidates)
	fmt.Printf("runtime: %.3fs (%d candidates generated, %d pruned, peak list %d)\n",
		elapsed.Seconds(), res.Stats.Generated, res.Stats.Pruned, res.Stats.PeakList)
	if len(res.WireAssignment) > 0 {
		counts := make(map[int]int)
		for _, wi := range res.WireAssignment {
			counts[wi]++
		}
		fmt.Print("wire sizing:")
		for wi, wc := range opts.WireLibrary {
			fmt.Printf(" %s=%d", wc.Name, counts[wi])
		}
		fmt.Println()
	}
	if *printAsgn {
		ids := make([]vabuf.NodeID, 0, len(res.Assignment))
		for id := range res.Assignment {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			n := tree.Node(id)
			fmt.Printf("  node %-6d %-8s at %s -> %s\n", id, n.Kind, n.Loc, lib[res.Assignment[id]].Name)
		}
	}
	if *critN > 0 {
		crit, err := vabuf.SinkCriticality(tree, lib, res.Assignment, model)
		if err != nil {
			return err
		}
		type entry struct {
			id vabuf.NodeID
			p  float64
		}
		var es []entry
		for id, p := range crit {
			es = append(es, entry{id, p})
		}
		slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(b.p, a.p) })
		fmt.Println("most critical sinks:")
		for i := 0; i < *critN && i < len(es); i++ {
			n := tree.Node(es[i].id)
			fmt.Printf("  sink %-6d at %s  criticality %.1f%%\n", es[i].id, n.Loc, 100*es[i].p)
		}
	}
	return nil
}

// serverList is the set of candidate base URLs behind -server. The
// client talks to one address at a time and rotates to the next on a
// connect error or 503 — 429 means the *current* server's queue is full
// and its Retry-After is specific to it, so 429 retries stay put.
type serverList struct {
	addrs []string
	cur   int
}

// parseServerList splits a comma-separated -server value, trimming
// whitespace and trailing slashes.
func parseServerList(s string) (*serverList, error) {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, strings.TrimRight(a, "/"))
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-server needs at least one base URL")
	}
	return &serverList{addrs: addrs}, nil
}

// url joins the current address with an endpoint path.
func (s *serverList) url(path string) string { return s.addrs[s.cur] + path }

// current returns the current base URL (for log messages).
func (s *serverList) current() string { return s.addrs[s.cur] }

// rotate advances to the next address, reporting whether it moved
// (a single-address list has nowhere to rotate to).
func (s *serverList) rotate() bool {
	if len(s.addrs) < 2 {
		return false
	}
	s.cur = (s.cur + 1) % len(s.addrs)
	return true
}

// retryPolicy is the batch-mode retry schedule: capped exponential
// backoff with jitter, honoring the server's Retry-After hint. With a
// deadline set (-timeout), the whole retry loop shares that one wall
// budget: each attempt advertises the remaining budget to the server
// via the Vabuf-Deadline-Ms header (so a doomed request is refused
// instead of queued), and the loop stops retrying the moment the next
// backoff would overrun it.
type retryPolicy struct {
	retries  int
	base     time.Duration
	max      time.Duration
	deadline time.Time // zero = no overall budget
}

// remaining returns the wall budget left, and whether one exists.
func (p retryPolicy) remaining() (time.Duration, bool) {
	if p.deadline.IsZero() {
		return 0, false
	}
	return time.Until(p.deadline), true
}

// delay computes the sleep before retry attempt (1-based). A Retry-After
// header (integer seconds) takes precedence over the computed backoff but
// is clamped to at least the base backoff: servers routinely send
// "Retry-After: 0" for "retry whenever", and honoring it literally turns
// the retry loop into a hot spin against an already-overloaded server.
// The HTTP-date form (and anything else unparsable) is treated the same
// as an absent header. Jitter of ±25% on the computed backoff keeps a
// fleet of clients from retrying in lockstep.
func (p retryPolicy) delay(attempt int, retryAfter string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		if d := time.Duration(secs) * time.Second; d > p.base {
			return d
		}
		return p.base
	}
	d := p.base << (attempt - 1)
	if d > p.max || d <= 0 {
		d = p.max
	}
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// retryableStatus reports whether an aggregate HTTP status is worth
// retrying: 429 (queue full) and 503 (draining/shedding) are explicit
// back-off-and-retry signals from vabufd.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// postWithRetry posts payload to path on the server list, retrying
// transport errors and retryable statuses per the policy. Connect
// errors and 503 rotate to the next -server address before retrying
// (the failed box may be down or draining while a sibling is fine);
// 429 stays on the same address and honors its Retry-After. It returns
// the final response (which may still carry a retryable status once
// attempts are exhausted).
func postWithRetry(servers *serverList, path string, payload []byte, pol retryPolicy) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, servers.url(path), bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if rem, ok := pol.remaining(); ok {
			if rem <= 0 {
				return nil, fmt.Errorf("overall -timeout budget spent after %d attempts", attempt)
			}
			// Advertise the remaining budget so every hop downstream —
			// router, queue, DP — can refuse work it cannot finish in time.
			req.Header.Set(server.DeadlineHeader, server.FormatDeadline(rem))
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil && !retryableStatus(resp.StatusCode) {
			return resp, nil
		}
		retryAfter := ""
		rotated := false
		if err != nil {
			lastErr = err
			rotated = servers.rotate()
		} else {
			retryAfter = resp.Header.Get("Retry-After")
			if attempt >= pol.retries {
				return resp, nil
			}
			// Discard the overload body; the retried call answers afresh.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				if rotated = servers.rotate(); rotated {
					// The sibling is a different box; its load has
					// nothing to do with the Retry-After we just got.
					retryAfter = ""
				}
			}
		}
		if attempt >= pol.retries {
			return nil, lastErr
		}
		d := pol.delay(attempt+1, retryAfter)
		if rem, ok := pol.remaining(); ok && d >= rem {
			// Sleeping through the rest of the budget guarantees the next
			// attempt is doomed; stop with the truth instead.
			if lastErr != nil {
				return nil, fmt.Errorf("-timeout budget spent after %d attempts: %w", attempt+1, lastErr)
			}
			return nil, fmt.Errorf("-timeout budget spent after %d attempts (server busy)", attempt+1)
		}
		if rotated {
			fmt.Fprintf(os.Stderr, "bufins: server unavailable (attempt %d/%d), rotating to %s in %s\n",
				attempt+1, pol.retries, servers.current(), d.Round(time.Millisecond))
		} else {
			fmt.Fprintf(os.Stderr, "bufins: server busy (attempt %d/%d), retrying in %s\n",
				attempt+1, pol.retries, d.Round(time.Millisecond))
		}
		time.Sleep(d)
	}
}

// runBatch reads a JSON array of insert requests and posts them to the
// server as one /v1/insert:batch call, printing the aggregate response.
// Overload answers (429 queue-full, 503 draining/shedding) are retried
// with capped exponential backoff honoring Retry-After. A non-200
// aggregate status or any failed item is reported on stderr; per-item
// errors do not abort the batch (exit is non-zero only when the call
// itself failed).
func runBatch(file string, servers *serverList, pol retryPolicy) error {
	var raw []byte
	var err error
	if file == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(file)
	}
	if err != nil {
		return err
	}
	var items []server.InsertRequest
	if err := json.Unmarshal(raw, &items); err != nil {
		return fmt.Errorf("parsing %s (want a JSON array of insert requests): %w", file, err)
	}
	payload, err := json.Marshal(server.BatchRequest[server.InsertRequest]{Items: items})
	if err != nil {
		return err
	}
	resp, err := postWithRetry(servers, "/v1/insert:batch", payload, pol)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	os.Stdout.Write(body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("batch request answered %s", resp.Status)
	}
	var out server.BatchResult[*server.InsertResult]
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("parsing batch response: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bufins: batch of %d: %d succeeded, %d failed\n",
		len(out.Items), out.Succeeded, out.Errors)
	return nil
}

// runStream posts the yield request to /v1/yield:stream and follows the
// NDJSON event stream: progress events tick on stderr, the final result
// prints on stdout (the full /v1/yield DTO with -json), and an error
// event carries the status the plain endpoint would have answered.
func runStream(req server.YieldRequest, servers *serverList, pol retryPolicy, jsonOut bool) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := postWithRetry(servers, "/v1/yield:stream", payload, pol)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		var e server.ErrorResult
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("stream request answered %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("stream request answered %s", resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var result *server.YieldResult
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev server.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("parsing stream event: %w", err)
		}
		switch ev.Type {
		case "progress":
			if p := ev.Progress; p != nil {
				fmt.Fprintf(os.Stderr, "bufins: mc %7d samples  quantile RAT %9.2f ps  ±%.2f ps\n",
					p.Samples, p.QuantileRAT, p.CIHalfWidthPS)
			}
		case "result":
			result = ev.Result
		case "error":
			return fmt.Errorf("server: %s (status %d)", ev.Error, ev.Status)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if result == nil {
		return fmt.Errorf("stream ended without a result event")
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(result)
	}
	ins := result.Insert
	fmt.Printf("insert: %d buffers on %d sinks, objective %.2f ps (%.3fs server-side)\n",
		ins.NumBuffers, ins.Sinks, ins.ObjectivePS, ins.ElapsedMS/1000)
	fmt.Printf("yield:  mean %.2f ps, sigma %.2f ps, yield RAT %.2f ps (analytic)\n",
		result.MeanPS, result.SigmaPS, result.YieldRATPS)
	if mc := result.MonteCarlo; mc != nil {
		state := "budget exhausted"
		if mc.Converged {
			state = "converged"
		}
		fmt.Printf("mc:     %d samples (%s), mean %.2f ps, sigma %.2f ps, quantile RAT %.2f ps ±%.2f ps\n",
			mc.Samples, state, mc.MeanPS, mc.SigmaPS, mc.QuantileRAT, mc.CIHalfWidthPS)
	}
	return nil
}

func loadTree(bench, file string) (*vabuf.Tree, error) {
	switch {
	case bench != "" && file != "":
		return nil, fmt.Errorf("give either -bench or -tree, not both")
	case bench != "":
		return vabuf.GenerateBenchmark(bench)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return vabuf.ReadTree(f)
	default:
		return nil, fmt.Errorf("one of -bench or -tree is required")
	}
}
