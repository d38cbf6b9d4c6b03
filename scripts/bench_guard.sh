#!/usr/bin/env sh
# scripts/bench_guard.sh — coarse perf-regression gate for CI: re-run a
# small set of guard benchmarks and fail if any ns/op exceeds 2x the
# committed BENCH_core.json snapshot. The 2x margin absorbs runner noise
# and hardware skew; genuine regressions (a lost arena, an accidental
# re-sort, a dropped prune, a dead subtree cache) blow well past it.
set -eu
cd "$(dirname "$0")/.."

# pkg:benchmark:benchtime triples under guard. Two iterations of a
# ~30 ms insertion are mostly timer, GC and neighbour noise and can
# land near the 2x bound, so the insertions run enough iterations to
# resolve them:
#   * the end-to-end serial WID r3 insertion (the headline number), 20,
#   * the 1024-candidate 2P frontier scan (the SoA prune hot loop), at
#     ~0.15 ms an op 2000, since two iterations are mostly set-up,
#   * the warm subtree-cache re-insert (a silently dead cache would
#     regress this one ~8x back to the cold time), at ~3 ms an op 200,
#   * the 32-cell-library r3 insertion (a silently disabled convex-hull
#     pick rule would regress this one ~5.7x to the exact time), 20.
GUARDS="
.:BenchmarkInsertWIDr3Serial:20x
./internal/core/:BenchmarkPrune2P1024:2000x
./internal/core/:BenchmarkInsertSubtreeWarmWIDr3:200x
./internal/core/:BenchmarkInsertLib32NOMr3Serial:20x
"

FAIL=0
for G in $GUARDS; do
  PKG=${G%%:*}
  REST=${G#*:}
  BENCH=${REST%%:*}
  BENCHTIME=${REST#*:}

  # The snapshot holds one object per line; take the last match so the
  # current results section wins over the frozen baseline block.
  BASE=$(sed -n "s/.*\"name\": \"$BENCH\".*\"ns_per_op\": \([0-9][0-9]*\).*/\1/p" BENCH_core.json | tail -1)
  if [ -z "$BASE" ]; then
    echo "bench_guard: $BENCH missing from BENCH_core.json" >&2
    exit 2
  fi

  NOW=$(go test "$PKG" -run '^$' -bench "${BENCH#Benchmark}\$" -benchtime "$BENCHTIME" \
    | awk -v b="$BENCH" 'index($1, b) == 1 { for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1) }')
  NOW=${NOW%%.*}
  if [ -z "$NOW" ]; then
    echo "bench_guard: $BENCH produced no ns/op" >&2
    exit 2
  fi

  LIMIT=$((BASE * 2))
  echo "bench_guard: $BENCH ($BENCHTIME) now $NOW ns/op, snapshot $BASE ns/op, limit $LIMIT ns/op"
  if [ "$NOW" -gt "$LIMIT" ]; then
    echo "bench_guard: perf regression: $BENCH $NOW ns/op > 2x the committed snapshot" >&2
    FAIL=1
  fi
done
exit $FAIL
