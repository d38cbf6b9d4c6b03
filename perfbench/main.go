// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time from one process, checks the outputs,
// and prints every metric by name with its unit. The last line of
// standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, derived from spans recorded around each call
// into a layer (see trace.go) and from the counters those calls return.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lib-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	writeGolden bool
}

// bench is a workload after set-up: measure runs its timed window, check
// the output checks that run after the window, close releases it.
type bench interface {
	measure(d time.Duration) (*outcome, error)
	check() (attempted, failed int64, err error)
	close()
}

// workload is one named traffic mix.
type workload struct {
	name string
	// setup builds the inputs and the system under test. tr is nil on
	// untraced runs.
	setup func(cfg *config, tr *tracer) (bench, error)
	// golden recomputes this workload's work counters on the golden seed.
	golden func() ([]goldenRow, error)
}

var workloads = []workload{
	{name: "lib-sweep", setup: setupLibSweep, golden: goldenLibSweep},
	{name: "eco-serve", setup: setupEcoServe},
	{name: "yield-mc", setup: setupYieldMC, golden: goldenYieldMC},
}

// spanDir receives the traced runs' span files, relative to the
// repository root.
const spanDir = ".bench_build/perfbench"

// setupRepeats is how many times a run builds its workload; setup_s is
// the median and the last build is the one measured.
const setupRepeats = 7

// block is one sub-window of a run: the latencies of the operations it
// completed, in wall time, using cpu time.
type block struct {
	latMS     []float64
	wall, cpu time.Duration
}

// blockClock times one block from its start.
type blockClock struct {
	t   time.Time
	cpu time.Duration
}

func startBlock() blockClock { return blockClock{time.Now(), cpuTime()} }

func (c blockClock) end(latMS []float64) block {
	return block{latMS, time.Since(c.t), cpuTime() - c.cpu}
}

// outcome is what a timed window produced.
type outcome struct {
	// attempted and failed count operations; latMS holds one latency per
	// successful operation.
	attempted, failed int64
	latMS             []float64
	// blocks split the window into runs of operations with the same mix
	// of inputs. ops_per_s, the latency percentiles and cpu_ms_per_op are
	// medians over them, so a few seconds of interference from outside
	// the process, which the host shows as 10% swings in speed, move
	// none of them.
	blocks []block
	// layers are the per-layer metrics (filled on traced runs).
	layers map[string]float64
	// stamp adds workload-specific fields to the environment stamp.
	stamp map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: lib-sweep, eco-serve or yield-mc")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.BoolVar(&cfg.writeGolden, "write-golden", false, "recompute "+goldenPath+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.writeGolden {
		if err := writeGolden(); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		logf("need --workload lib-sweep|eco-serve|yield-mc, --seconds > 0, --trace 0|1")
		return 2
	}
	res, err := runWorkload(&cfg, w, stdout)
	if err != nil {
		logf("%v", err)
		return 1
	}
	enc, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}

// runWorkload sets the workload up setupRepeats times, measures one
// window, runs the output and golden checks, and assembles the result.
func runWorkload(cfg *config, w *workload, stdout io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var b bench
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := w.setup(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()

	window := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	alloc0 := heapAllocBytes()
	out, err := b.measure(window)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	alloc := heapAllocBytes() - alloc0

	attempted, failed := out.attempted, out.failed
	checks, bad, err := b.check()
	if err != nil {
		return nil, fmt.Errorf("%s checks: %w", w.name, err)
	}
	attempted += checks
	failed += bad
	if w.golden != nil {
		drift, err := checkGolden(w)
		if err != nil {
			return nil, fmt.Errorf("%s golden counters: %w", w.name, err)
		}
		attempted++
		if drift != "" {
			logf("golden counter drift: %s", drift)
			failed++
		}
	}

	if cfg.trace {
		lad, err := runLadder()
		if err != nil {
			return nil, err
		}
		if out.layers == nil {
			out.layers = make(map[string]float64)
		}
		for k, v := range lad {
			out.layers[k] = v
		}
	}

	ok := int64(len(out.latMS))
	if ok == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	lat := out.latMS
	sort.Float64s(lat)
	// latency_p99_ms and error_rate are printed but not in the result
	// object. p99 over one run's ~1000 samples is decided by one or two
	// burst episodes, so its spread between runs exceeds any usable
	// bound; error_rate is 0 on every healthy run and travels as
	// failed/attempted.
	p99 := quantile(lat, 0.99)
	errorRate := float64(failed) / float64(attempted)
	stamp := environmentStamp(cfg)
	stamp["samples"] = ok
	stamp["setups_s"] = setups
	stamp["error_rate"] = errorRate
	stamp["latency_p99_ms"] = p99
	for k, v := range out.stamp {
		stamp[k] = v
	}
	if enc, err := json.Marshal(stamp); err == nil {
		fmt.Fprintf(stdout, "env %s\n", enc)
	}

	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric),
	}
	var rates, cpus, p50s, p90s []float64
	for _, b := range out.blocks {
		if n := len(b.latMS); n > 0 {
			rates = append(rates, float64(n)/b.wall.Seconds())
			cpus = append(cpus, ms(b.cpu)/float64(n))
			p50s = append(p50s, percentile(b.latMS, 0.50))
			p90s = append(p90s, percentile(b.latMS, 0.90))
		}
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("%s: no block completed an operation", w.name)
	}
	opsPerS := median(rates)
	if cfg.trace {
		out.layers["trace.ops_per_s"] = opsPerS
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{out.layers[l.name], l.unit}
		}
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans %s (%d)\n", path, tr.len())
	} else {
		res.Metrics["ops_per_s"] = metric{opsPerS, "1/s"}
		res.Metrics["latency_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["latency_p90_ms"] = metric{median(p90s), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{median(cpus), "ms"}
		res.Metrics["alloc_mb_per_op"] = metric{float64(alloc) / (1 << 20) / float64(ok), "MB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	row := func(name string, v float64, unit string) {
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", name, v, unit)
	}
	for _, n := range names {
		row(n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if !cfg.trace {
		row("latency_p99_ms", p99, "ms")
	}
	row("error_rate", errorRate, "ratio")
	return res, nil
}

// logf prints a diagnostic to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// environmentStamp records what a result was measured on.
func environmentStamp(cfg *config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceDigest(),
	}
}
