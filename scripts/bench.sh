#!/usr/bin/env sh
# scripts/bench.sh — run the DP-engine micro-benchmarks and snapshot the
# results into BENCH_core.json so the perf trajectory is tracked in-repo.
#
# Usage:
#   scripts/bench.sh [-count N] [-benchtime T] [-out FILE]
#
# Defaults: -count 5, -benchtime 2x, -out BENCH_core.json (repo root).
# Each benchmark runs COUNT times and the snapshot records the per-metric
# median, so one noisy run cannot skew the committed numbers. Tracked:
#   * canonical-form kernels   (internal/variation: AXPY[In], Min[In],
#                               SigmaDiff merge walks)
#   * frontier scans           (internal/core: Prune2P[Mean]/4P at
#                               256/1024 over the SoA candidate frontier;
#                               B/op tracks arena bytes per list size)
#   * end-to-end insertion     (internal/core + root: NOM/WID presets,
#                               Serial vs Par4 for the speedup ratio)
#   * library scaling          (internal/core: InsertLib{8,32} on r3 with
#                               the n-cell ScaledLibrary; the *Exact
#                               variants pin the pre-hull kernel so the
#                               convex-hull buffering win stays measured
#                               inside one snapshot)
#   * subtree-DP caching       (internal/core: InsertSubtreeColdWIDr3 vs
#                               InsertSubtreeWarmWIDr3 — a warm re-insert
#                               with one mutated branch reuses every
#                               untouched subtree frontier)
#   * serve-path memoization   (internal/server: ServeInsertCold vs
#                               ServeInsertWarm, the result-cache win)
#   * Monte Carlo              (root: MCR3Adaptive vs MCR3Fixed, the
#                               "samples" metric being the early-stop
#                               signal; MCR3FixedHomogeneous, the same
#                               budget under the homogeneous model where
#                               deviation prefixes are shared;
#                               MonteCarloParallel, 2000 r1
#                               samples)
#   * canonical yield          (root: EvaluateYieldR3, compiling r3's WID
#                               design and propagating its root RAT form)
set -eu

COUNT=5
BENCHTIME=2x
OUT=BENCH_core.json
while [ $# -gt 0 ]; do
  case "$1" in
    -count) COUNT=$2; shift 2 ;;
    -benchtime) BENCHTIME=$2; shift 2 ;;
    -out) OUT=$2; shift 2 ;;
    *) echo "usage: $0 [-count N] [-benchtime T] [-out FILE]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

run() { # run <pkg> <bench-regex>
  echo "== go test $1 -bench $2 (benchtime=$BENCHTIME count=$COUNT)" >&2
  go test "$1" -run '^$' -bench "$2" -benchtime "$BENCHTIME" -count "$COUNT" \
    | tee /dev/stderr | grep '^Benchmark' >>"$RAW" || true
}

run ./internal/variation/ 'AXPY|Min|SigmaDiff'
run ./internal/core/ 'Prune|Insert'
run ./internal/server/ 'ServeInsert'
run . 'InsertWIDr[35](Serial|Par4)$|MCR3|MonteCarloParallel$|EvaluateYieldR3$'

# Fold the `go test -bench` lines into a JSON array, one object per
# benchmark with the median of each metric across the COUNT repetitions.
# Each raw line looks like:
#   BenchmarkName-8   12   3456 ns/op   789 B/op   10 allocs/op
# (adaptive-MC benches additionally report a "samples" metric).
{
  printf '{\n'
  printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "cpus_online": %s,\n' "$(getconf _NPROCESSORS_ONLN)"
  printf '  "gomaxprocs": %s,\n' "${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
  printf '  "benchtime": "%s",\n' "$BENCHTIME"
  printf '  "count": %s,\n' "$COUNT"
  printf '  "note": "InsertLib32NOMr3 Serial vs SerialExact is the convex-hull buffering kernel speedup on a 32-cell library (~5.7x at the 2026-08 snapshot)",\n'
  if [ -f scripts/bench_baseline.json ]; then
    # Frozen pre-arena/pre-parallel measurements, kept alongside every
    # snapshot so speedup and allocs/op deltas are readable in one file.
    printf '  "baseline":\n'
    sed 's/^/  /' scripts/bench_baseline.json | sed '$s/$/,/'
  fi
  printf '  "results": [\n'
  awk '
    # Full-precision number-to-string conversion: without this, mawk
    # prints ns/op medians past 2^31 in scientific notation.
    BEGIN { CONVFMT = "%.17g"; OFMT = "%.17g" }
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      if (!(name in cnt)) { names[nn++] = name; iter[name] = $2 }
      k = cnt[name]++
      for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") ns[name, k] = $(i-1)
        if ($(i) == "B/op") bytes[name, k] = $(i-1)
        if ($(i) == "allocs/op") allocs[name, k] = $(i-1)
        if ($(i) == "samples") samples[name, k] = $(i-1)
      }
    }
    # median of the values recorded for name (insertion sort; COUNT is tiny)
    function median(arr, name, runs,   m, i, j, t, v) {
      m = 0
      for (i = 0; i < runs; i++) if ((name, i) in arr) v[m++] = arr[name, i] + 0
      if (m == 0) return ""
      for (i = 1; i < m; i++) {
        t = v[i]
        for (j = i - 1; j >= 0 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
      }
      if (m % 2) return v[(m - 1) / 2]
      return (v[m / 2 - 1] + v[m / 2]) / 2
    }
    END {
      for (x = 0; x < nn; x++) {
        name = names[x]
        line = sprintf("    {\"name\": \"%s\", \"runs\": %d, \"iterations\": %s", \
                       name, cnt[name], iter[name])
        m = median(ns, name, cnt[name])
        if (m != "") line = line sprintf(", \"ns_per_op\": %s", m)
        m = median(bytes, name, cnt[name])
        if (m != "") line = line sprintf(", \"bytes_per_op\": %s", m)
        m = median(allocs, name, cnt[name])
        if (m != "") line = line sprintf(", \"allocs_per_op\": %s", m)
        m = median(samples, name, cnt[name])
        if (m != "") line = line sprintf(", \"samples\": %s", m)
        line = line "}"
        printf "%s%s\n", line, (x < nn - 1 ? "," : "")
      }
    }
  ' "$RAW"
  printf '  ]\n'
  printf '}\n'
} >"$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") results)" >&2
