#!/usr/bin/env sh
# dist_smoke.sh — chaos smoke test for the distributed sweep engine.
#
# Two phases, both measured against the same serial reference report:
#
#   1. Worker kill: a coordinator with two worker processes loses one
#      to kill -9 mid-epoch. The coordinator must re-lease the dead
#      worker's partition and finish byte-identically to serial.
#
#   2. Coordinator failover: a coordinator with a standby and two
#      addr-file workers is kill -9'd mid-sweep. The standby must take
#      over from the shared ledger (epoch bump fences the corpse), the
#      workers must rediscover it through the addr file, and the
#      standby's rendered report must be byte-identical to serial.
#
# Exercises the deployment path: binaries + HTTP + signals, no test
# harness. Requires only a Go toolchain and curl.
#
# Usage: scripts/dist_smoke.sh [workdir]
# Env:   SMOKE_DEADLINE  per-wait deadline in seconds (default 60)
set -eu

WORK="${1:-$(mktemp -d)}"
BIN="$WORK/bin"
DEADLINE="${SMOKE_DEADLINE:-60}"
mkdir -p "$BIN"

SWEEP_FLAGS="-exp fig6a -benchmarks nn -scale 1 -scale-factor 4 -cores 4 -seed 1"

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# wait_file PATH WHAT — poll until PATH is non-empty, up to
# $DEADLINE seconds. The deadline is wall-clock, not iteration count,
# so a loaded machine gets the full budget instead of spinning it away.
wait_file() {
    start=$(date +%s)
    while [ ! -s "$1" ]; do
        [ $(($(date +%s) - start)) -lt "$DEADLINE" ] || fail "$2: $1 still empty after ${DEADLINE}s"
        sleep 0.1
    done
}

# read_base PATH — print the coordinator URL from an addr file,
# tolerating both bare host:port and full http:// forms.
read_base() {
    b=$(head -n1 "$1" | tr -d '[:space:]')
    case "$b" in
        http://*|https://*) printf '%s' "$b" ;;
        *) printf 'http://%s' "$b" ;;
    esac
}

# wait_mid_sweep BASE — poll /dist/v1/status until the sweep is
# mid-epoch (some results merged, more to go); leaves DONE/TOTAL set.
wait_mid_sweep() {
    start=$(date +%s)
    while :; do
        curl -sSf "$1/dist/v1/status" >"$WORK/status.json" 2>/dev/null || true
        DONE=$(sed -n 's/.*"done_jobs":[[:space:]]*\([0-9]*\).*/\1/p' "$WORK/status.json" | head -n1)
        TOTAL=$(sed -n 's/.*"total_jobs":[[:space:]]*\([0-9]*\).*/\1/p' "$WORK/status.json" | head -n1)
        if [ -n "$DONE" ] && [ -n "$TOTAL" ] && [ "$DONE" -ge 2 ] && [ "$DONE" -lt "$TOTAL" ]; then
            return 0
        fi
        [ $(($(date +%s) - start)) -lt "$DEADLINE" ] || fail "sweep never reached mid-epoch (done=${DONE:-?} total=${TOTAL:-?})"
        sleep 0.1
    done
}

# wait_exit PID WHAT — wait for PID to exit within $DEADLINE seconds.
wait_exit() {
    start=$(date +%s)
    while kill -0 "$1" 2>/dev/null; do
        [ $(($(date +%s) - start)) -lt "$DEADLINE" ] || fail "$2 (pid $1) never finished"
        sleep 0.5
    done
}

# check_observability BASE COORD_PID — probe the live coordinator's
# health and fleet surfaces: /healthz and /readyz must answer ok,
# /fleet/status must eventually list a live (non-stale) worker, and
# /fleet/metrics must carry worker-labeled samples. The sweep keeps
# running underneath, so the poll fails fast (with the last good
# status body) if the coordinator finishes and exits before a live
# worker ever showed up.
check_observability() {
    curl -sSf "$1/healthz" | grep -q ok || fail "coordinator /healthz did not answer ok"
    curl -sSf "$1/readyz"  | grep -q ok || fail "coordinator /readyz did not answer ok"
    start=$(date +%s)
    while :; do
        if curl -sSf "$1/fleet/status" >"$WORK/fleet.tmp" 2>/dev/null; then
            mv "$WORK/fleet.tmp" "$WORK/fleet.json"
            # The status body is indented JSON: tolerate the space
            # after the colon.
            if grep -q '"stale": *false' "$WORK/fleet.json"; then
                break
            fi
        elif ! kill -0 "$2" 2>/dev/null; then
            fail "coordinator exited before /fleet/status listed a live worker: $(cat "$WORK/fleet.json" 2>/dev/null)"
        fi
        [ $(($(date +%s) - start)) -lt "$DEADLINE" ] || \
            fail "/fleet/status never listed a live worker: $(cat "$WORK/fleet.json" 2>/dev/null)"
        sleep 0.1
    done
    grep -q '"name": *"' "$WORK/fleet.json" || fail "/fleet/status lists no workers"
    curl -sSf "$1/fleet/metrics" >"$WORK/fleet_metrics.txt"
    grep -q '{worker="' "$WORK/fleet_metrics.txt" || \
        fail "/fleet/metrics carries no worker-labeled samples: $(head "$WORK/fleet_metrics.txt")"
    echo "==> observability OK: healthz, readyz, $(grep -c '"stale": *false' "$WORK/fleet.json") live fleet worker(s), labeled metrics"
}

echo "==> building binaries into $BIN"
go build -o "$BIN/gmap-eval" ./cmd/gmap-eval

echo "==> serial reference run"
# shellcheck disable=SC2086 — SWEEP_FLAGS is a flag list by construction
"$BIN/gmap-eval" $SWEEP_FLAGS -no-timings -quiet -out "$WORK/serial.txt"

# ---------------------------------------------------------------- phase 1

ADDR_FILE="$WORK/coord.addr"

echo "==> phase 1: starting coordinator on an ephemeral port"
# shellcheck disable=SC2086
"$BIN/gmap-eval" $SWEEP_FLAGS \
    -dist-listen 127.0.0.1:0 -dist-addr-file "$ADDR_FILE" \
    -dist-parts 4 -dist-lease-ttl 2s \
    -checkpoint "$WORK/ledger.jsonl" -out "$WORK/dist.txt" \
    2>"$WORK/coord.log" &
COORD_PID=$!
trap 'kill "$COORD_PID" "$W1_PID" "$W2_PID" "$COORD2_PID" "$STANDBY_PID" "$W3_PID" "$W4_PID" 2>/dev/null || true' EXIT
W1_PID=; W2_PID=; COORD2_PID=; STANDBY_PID=; W3_PID=; W4_PID=

wait_file "$ADDR_FILE" "coordinator never published its address"
BASE=$(read_base "$ADDR_FILE")
echo "==> coordinator is at $BASE"

echo "==> starting two workers (with -serve: they join the fleet)"
"$BIN/gmap-eval" -worker "$BASE" -serve 127.0.0.1:0 -workers 1 -quiet 2>"$WORK/w1.log" &
W1_PID=$!
"$BIN/gmap-eval" -worker "$BASE" -serve 127.0.0.1:0 -workers 1 -quiet 2>"$WORK/w2.log" &
W2_PID=$!

wait_mid_sweep "$BASE"
check_observability "$BASE" "$COORD_PID"
echo "==> mid-epoch ($DONE/$TOTAL jobs merged): kill -9 worker 1 (pid $W1_PID)"
kill -9 "$W1_PID"
wait "$W1_PID" 2>/dev/null || true

echo "==> starting a replacement worker"
"$BIN/gmap-eval" -worker "$BASE" -workers 1 -quiet 2>"$WORK/w1b.log" &
W1_PID=$!

echo "==> waiting for the coordinator to finish and render"
wait_exit "$COORD_PID" "coordinator"
wait "$COORD_PID" || fail "coordinator exited non-zero"

[ -s "$WORK/dist.txt" ] || fail "coordinator wrote no report"
cmp -s "$WORK/dist.txt" "$WORK/serial.txt" || {
    diff -u "$WORK/serial.txt" "$WORK/dist.txt" >&2 || true
    fail "distributed report differs from serial reference"
}

# The dead worker's lease must have been reclaimed (expired or stolen)
# for the sweep to have completed at all; the coordinator's log proves
# the chaos actually happened rather than the kill landing between
# leases.
grep -q "expired\|stealing" "$WORK/coord.log" || \
    fail "no lease was ever reclaimed — the kill hit nothing: $(cat "$WORK/coord.log")"
echo "==> merged ledger: $(wc -l <"$WORK/ledger.jsonl") lines"
echo "==> reclaim evidence: $(grep -c "expired\|stealing" "$WORK/coord.log") coordinator log line(s)"
echo "==> phase 1 PASS: worker kill -9, re-leased and merged byte-identically"

kill "$W1_PID" "$W2_PID" 2>/dev/null || true
W1_PID=; W2_PID=

# ---------------------------------------------------------------- phase 2

ADDR2="$WORK/coord2.addr"

echo "==> phase 2: starting doomed coordinator + standby"
# shellcheck disable=SC2086
"$BIN/gmap-eval" $SWEEP_FLAGS \
    -dist-listen 127.0.0.1:0 -dist-addr-file "$ADDR2" \
    -dist-parts 4 -dist-lease-ttl 2s \
    -checkpoint "$WORK/ledger2.jsonl" -out "$WORK/dist2a.txt" \
    2>"$WORK/coord2.log" &
COORD2_PID=$!

wait_file "$ADDR2" "doomed coordinator never published its address"
BASE2=$(read_base "$ADDR2")
echo "==> active coordinator is at $BASE2"

# shellcheck disable=SC2086
"$BIN/gmap-eval" $SWEEP_FLAGS \
    -dist-standby -worker "$BASE2" \
    -dist-listen 127.0.0.1:0 -dist-addr-file "$ADDR2" \
    -dist-parts 4 -dist-lease-ttl 2s \
    -dist-health-interval 250ms -dist-health-misses 3 \
    -checkpoint "$WORK/ledger2.jsonl" -out "$WORK/dist2.txt" \
    2>"$WORK/standby.log" &
STANDBY_PID=$!

echo "==> starting two addr-file workers"
"$BIN/gmap-eval" -worker-addr-file "$ADDR2" -workers 1 -quiet 2>"$WORK/w3.log" &
W3_PID=$!
"$BIN/gmap-eval" -worker-addr-file "$ADDR2" -workers 1 -quiet 2>"$WORK/w4.log" &
W4_PID=$!

wait_mid_sweep "$BASE2"
echo "==> mid-epoch ($DONE/$TOTAL jobs merged): kill -9 the coordinator (pid $COORD2_PID)"
kill -9 "$COORD2_PID"
wait "$COORD2_PID" 2>/dev/null || true
COORD2_PID=

echo "==> waiting for the standby to take over and finish the sweep"
wait_exit "$STANDBY_PID" "standby"
wait "$STANDBY_PID" || fail "standby exited non-zero: $(cat "$WORK/standby.log")"

[ -s "$WORK/dist2.txt" ] || fail "standby wrote no report"
cmp -s "$WORK/dist2.txt" "$WORK/serial.txt" || {
    diff -u "$WORK/serial.txt" "$WORK/dist2.txt" >&2 || true
    fail "failover report differs from serial reference"
}
grep -q "took over" "$WORK/standby.log" || \
    fail "standby finished without taking over — the kill hit nothing: $(cat "$WORK/standby.log")"
grep -q "epoch 2" "$WORK/standby.log" || \
    fail "takeover did not bump the epoch: $(cat "$WORK/standby.log")"
BASE2B=$(read_base "$ADDR2")
[ "$BASE2B" != "$BASE2" ] || fail "addr file still points at the dead coordinator"
echo "==> takeover rewrote addr file: $BASE2 -> $BASE2B"
echo "==> merged ledger: $(wc -l <"$WORK/ledger2.jsonl") lines"
echo "==> phase 2 PASS: coordinator kill -9, standby took over byte-identically"

echo "PASS: both chaos phases merged byte-identically to serial"
