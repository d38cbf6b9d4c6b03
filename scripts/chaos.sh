#!/usr/bin/env sh
# scripts/chaos.sh — chaos soak: boot 3 vabufd instances that misbehave
# on purpose (7% injected 500s, 3% connection resets, 5% latency spikes
# up to 150ms, seeded PRNG so the run is reproducible) behind one vabufr
# with hedging enabled, then drive 120 distinct interactive inserts and
# assert the resilience envelopes from DESIGN.md §13:
#
#   1. client-visible success rate >= 99% — the failover walk plus the
#      retry budget absorb single-backend faults, whether they surface
#      as structured 500s or as mid-flight resets (EOF, a crashed
#      backend);
#   2. backend attempts <= 1.15x client requests — budgeted retries and
#      hedges bound amplification instead of multiplying the outage
#      (fills and lookups are disabled so the envelope isolates the
#      retry/hedge path);
#   3. a request arriving with its deadline already spent is answered
#      504 at the router without one backend attempt — an expired
#      request never reaches a DP worker;
#   4. backend goroutine counts return to a flat envelope after the
#      soak — faulted and hedged requests do not leak goroutines;
#   5. truncated and stalled NDJSON streams (the faults only a
#      multi-write response can suffer) are recovered by bounded client
#      retries of the adaptive yield stream — every stream delivers its
#      result event, and a stall never wedges a stream past its
#      read timeout.
#
# Used as a CI step; exits non-zero on any failure.
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PIDS=""
cleanup() {
  # shellcheck disable=SC2086
  [ -n "$PIDS" ] && kill $PIDS 2>/dev/null || true
  # Give the processes a beat to exit so rm does not race their final
  # snapshot/log writes; a leftover tmp dir must not fail the run.
  sleep 1
  rm -rf "$TMP" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

go build -o "$TMP/vabufd" ./cmd/vabufd
go build -o "$TMP/vabufr" ./cmd/vabufr

# Boot 3 faulty backends. Each gets its own chaos seed so the fault
# streams are independent but the whole run is reproducible.
BACKENDS=""
for i in 1 2 3; do
  "$TMP/vabufd" -addr 127.0.0.1:0 -instance "c$i" -epoch chaos-soak \
    -snapshot "$TMP/c$i.snap" -workers 2 \
    -chaos "seed=$((i+10)),error=0.07,reset=0.03,latency=0.05:150ms" >"$TMP/d$i.log" 2>&1 &
  PIDS="$PIDS $!"
done
for i in 1 2 3; do
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*vabufd listening on \([^ ]*\).*/\1/p' "$TMP/d$i.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "chaos: vabufd c$i never logged its address" >&2
    cat "$TMP/d$i.log" >&2
    exit 1
  fi
  eval "ADDR$i=$ADDR"
  BACKENDS="$BACKENDS,http://$ADDR"
done
BACKENDS=${BACKENDS#,}

# The router hedges interactive requests stuck past 250ms — above the
# injected latency ceiling, so hedges only rescue genuinely wedged
# requests instead of racing every spike (which would spend the
# amplification envelope on latency the failover walk already covers) —
# and keeps the default retry budget. Fills and lookups are off (see
# header).
"$TMP/vabufr" -addr 127.0.0.1:0 -backends "$BACKENDS" \
  -probe-every 200ms -fail-after 1 -recover-after 1 \
  -hedge-after 250ms -lookup-timeout -1s >"$TMP/r.log" 2>&1 &
PIDS="$PIDS $!"
ROUTER=""
for _ in $(seq 1 100); do
  ROUTER=$(sed -n 's/.*vabufr listening on \([^ ]*\).*/\1/p' "$TMP/r.log" | head -1)
  [ -n "$ROUTER" ] && break
  sleep 0.1
done
if [ -z "$ROUTER" ]; then
  echo "chaos: vabufr never logged its address" >&2
  cat "$TMP/r.log" >&2
  exit 1
fi
for _ in $(seq 1 100); do
  curl -fsS "http://$ROUTER/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$ROUTER/readyz" >/dev/null

# metric NAME URL — read one integer gauge/counter from a /metrics body.
metric() {
  curl -fsS "http://$2/metrics" \
    | sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" | head -1
}

# Goroutine baseline per backend, after boot but before load.
for i in 1 2 3; do
  eval "G0_$i=\$(metric goroutines \$ADDR$i)"
done

# --- Envelope 3 first (while attempts_total is provably zero): a spent
# deadline never becomes a backend attempt.
CODE=$(curl -sS -o "$TMP/spent.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' -H 'Vabuf-Deadline-Ms: 0' \
  -d '{"bench":"p1","algo":"nom"}' "http://$ROUTER/v1/insert")
if [ "$CODE" != "504" ]; then
  echo "chaos: spent-deadline insert answered $CODE, want 504" >&2
  cat "$TMP/spent.json" >&2
  exit 1
fi
REJECTED=$(metric rejected_total "$ROUTER")
if [ "${REJECTED:-0}" -lt 1 ]; then
  echo "chaos: router deadline rejected_total = '${REJECTED:-?}', want >= 1" >&2
  exit 1
fi
ATTEMPTS0=$(metric attempts_total "$ROUTER")
if [ "${ATTEMPTS0:-0}" -ne 0 ]; then
  echo "chaos: spent-deadline request caused $ATTEMPTS0 backend attempt(s)" >&2
  exit 1
fi

# --- Soak: 120 distinct interactive inserts (pbar is fingerprinted, so
# each value is its own key; core requires pbar in [0.5, 1)).
N=120
OK=0
for P in $(awk 'BEGIN{for(i=0;i<120;i++) printf "0.%03d ", 501+i}'); do
  CODE=$(curl -sS -o /dev/null -w '%{http_code}' --max-time 30 \
    -H 'Content-Type: application/json' \
    -d "{\"bench\":\"p1\",\"algo\":\"nom\",\"pbar\":$P}" \
    "http://$ROUTER/v1/insert" || echo 000)
  [ "$CODE" = "200" ] && OK=$((OK + 1))
done

# Envelope 1: success rate >= 99% (119/120).
if [ "$OK" -lt 119 ]; then
  echo "chaos: $OK/$N inserts succeeded under 10% faults, want >= 119" >&2
  curl -fsS "http://$ROUTER/metrics" >&2 || true
  exit 1
fi

# Envelope 2: amplification. attempts_total counts every outbound
# request send (first tries, budgeted retries, hedges).
ATTEMPTS=$(metric attempts_total "$ROUTER")
LIMIT=$((N * 115 / 100))
if [ -z "$ATTEMPTS" ] || [ "$ATTEMPTS" -lt "$N" ] || [ "$ATTEMPTS" -gt "$LIMIT" ]; then
  echo "chaos: $ATTEMPTS backend attempts for $N requests, want [$N, $LIMIT]" >&2
  curl -fsS "http://$ROUTER/metrics" >&2 || true
  exit 1
fi

# Envelope 4: goroutine counts settle back into a flat envelope. The
# slack absorbs idle HTTP keep-alive conns; growth proportional to the
# 120-request soak would blow well past it.
sleep 2
for i in 1 2 3; do
  G1=$(metric goroutines "$(eval echo "\$ADDR$i")")
  G0=$(eval echo "\$G0_$i")
  if [ -z "$G1" ] || [ "$G1" -gt $((G0 + 20)) ]; then
    echo "chaos: backend c$i goroutines grew $G0 -> ${G1:-?} over the soak" >&2
    exit 1
  fi
done

# --- Envelope 5: stream faults. A 4th backend injects truncate (the
# connection dies after the first NDJSON event) and stall (the writer
# freezes 300ms mid-stream, a slow-read backend). Both only fire on
# responses with more than one body write — exactly what the adaptive
# yield stream produces, one progress event per committed Monte-Carlo
# shard. A mid-stream fault cannot be replayed transparently (the client
# already consumed part of the event stream; see the router's stream
# proxy), so the envelope is bounded client retries: every stream must
# deliver its result event within 4 attempts, stalls must clear inside
# the read timeout, and the fault injection must demonstrably fire.
"$TMP/vabufd" -addr 127.0.0.1:0 -instance c4 -epoch chaos-soak \
  -snapshot "$TMP/c4.snap" -workers 2 \
  -chaos "seed=44,truncate=0.15,stall=0.05:300ms" >"$TMP/d4.log" 2>&1 &
PIDS="$PIDS $!"
ADDR4=""
for _ in $(seq 1 100); do
  ADDR4=$(sed -n 's/.*vabufd listening on \([^ ]*\).*/\1/p' "$TMP/d4.log" | head -1)
  [ -n "$ADDR4" ] && break
  sleep 0.1
done
if [ -z "$ADDR4" ]; then
  echo "chaos: vabufd c4 never logged its address" >&2
  cat "$TMP/d4.log" >&2
  exit 1
fi
for _ in $(seq 1 100); do
  curl -fsS "http://$ADDR4/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done

M=40
RETRIED=0
for P in $(awk 'BEGIN{for(i=0;i<40;i++) printf "0.%03d ", 701+i}'); do
  DONE=""
  for _ in 1 2 3 4; do
    if curl -sS -N --max-time 30 -H 'Content-Type: application/json' \
      -d "{\"bench\":\"p1\",\"algo\":\"wid\",\"pbar\":$P,\"monte_carlo\":4000,\"mc_tol\":0.0001,\"parallelism\":1}" \
      "http://$ADDR4/v1/yield:stream" 2>/dev/null | grep -q '"type":"result"'; then
      DONE=1
      break
    fi
    RETRIED=$((RETRIED + 1))
  done
  if [ -z "$DONE" ]; then
    echo "chaos: stream pbar=$P never delivered a result in 4 attempts" >&2
    exit 1
  fi
done
if [ "$RETRIED" -lt 1 ]; then
  echo "chaos: stream soak saw zero retries — truncate faults never fired" >&2
  exit 1
fi
G1=$(metric goroutines "$ADDR4")
if [ -z "$G1" ] || [ "$G1" -gt 60 ]; then
  echo "chaos: stream backend c4 at ${G1:-?} goroutines after the soak" >&2
  exit 1
fi

HEDGES=$(metric hedges "$ROUTER")
echo "chaos: ok — $OK/$N served under 7% faults + 3% resets + 5% latency spikes," \
  "$ATTEMPTS attempts (limit $LIMIT), ${HEDGES:-0} hedge(s), deadlines gated," \
  "$M/$M streams recovered ($RETRIED retry(ies) over truncate/stall), goroutines flat"
