#!/usr/bin/env sh
# dist_smoke.sh — chaos smoke test for the distributed sweep engine.
#
# Two phases, both measured against the same serial reference report:
#
#   1. Worker kill: a coordinator with two worker processes loses one
#      to kill -9 mid-epoch, while it holds a lease with keys left. The
#      coordinator must re-lease the dead worker's partition and finish
#      byte-identically to serial.
#
#   2. Coordinator restart: a coordinator with two addr-file workers is
#      kill -9'd mid-sweep, then its command is re-run over the same
#      ledger. The restart must claim epoch 2 (which fences the corpse)
#      with the merged results restored, and rewrite the addr file; the
#      workers must rediscover it through the file and exit 0, and its
#      rendered report must be byte-identical to serial.
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

# wait_victim BASE — poll /dist/v1/status until a partition shows a
# live lease held by worker 1 or worker 2 with at least 2 keys
# remaining; leaves VICTIM set to that worker's pid. Workers are named
# host:pid, and the status body is one line of JSON, so each partition
# is one line once the braces are split. Fails fast if the coordinator
# finishes first.
wait_victim() {
    start=$(date +%s)
    while :; do
        VICTIM=$(curl -sSf "$1/dist/v1/status" 2>/dev/null | tr '{}' '\n\n' |
            sed -n 's/.*"remaining": *\([0-9][0-9]*\),.*"worker": *"[^"]*:\([0-9][0-9]*\)".*/\1 \2/p' |
            while read -r rem pid; do
                if [ "$rem" -ge 2 ] && { [ "$pid" = "$W1_PID" ] || [ "$pid" = "$W2_PID" ]; }; then
                    echo "$pid"
                    break
                fi
            done)
        [ -z "$VICTIM" ] || return 0
        kill -0 "$COORD_PID" 2>/dev/null || fail "coordinator finished before a worker held a lease with keys left"
        [ $(($(date +%s) - start)) -lt "$DEADLINE" ] || fail "no worker ever held a lease with 2 or more keys left"
        sleep 0.05
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
# One kill per pid: dash's kill stops at its first empty argument, and
# a pid variable is emptied once its process has been reaped.
trap 'for pid in $COORD_PID $W1_PID $W2_PID $COORD2_PID $W3_PID $W4_PID; do kill "$pid" 2>/dev/null || true; done' EXIT
W1_PID=; W2_PID=; COORD2_PID=; W3_PID=; W4_PID=

wait_file "$ADDR_FILE" "coordinator never published its address"
BASE=$(read_base "$ADDR_FILE")
echo "==> coordinator is at $BASE"

echo "==> starting two workers (with -serve: they join the fleet)"
"$BIN/gmap-eval" -worker "$BASE" -serve 127.0.0.1:0 -workers 1 -quiet 2>"$WORK/w1.log" &
W1_PID=$!
"$BIN/gmap-eval" -worker "$BASE" -serve 127.0.0.1:0 -workers 1 -quiet 2>"$WORK/w2.log" &
W2_PID=$!

# Kill a worker the moment it holds a lease with keys left, so the kill
# always lands on live work; the observability probes run after, while
# the dead worker's lease waits out its TTL.
wait_mid_sweep "$BASE"
wait_victim "$BASE"
echo "==> mid-epoch ($DONE/$TOTAL jobs merged): kill -9 the worker holding a lease with keys left (pid $VICTIM)"
kill -9 "$VICTIM"
wait "$VICTIM" 2>/dev/null || true

echo "==> starting a replacement worker"
"$BIN/gmap-eval" -worker "$BASE" -workers 1 -quiet 2>"$WORK/w1b.log" &
if [ "$VICTIM" = "$W1_PID" ]; then W1_PID=$!; else W2_PID=$!; fi

check_observability "$BASE" "$COORD_PID"

echo "==> waiting for the coordinator to finish and render"
wait_exit "$COORD_PID" "coordinator"
wait "$COORD_PID" || fail "coordinator exited non-zero"

[ -s "$WORK/dist.txt" ] || fail "coordinator wrote no report"
cmp -s "$WORK/dist.txt" "$WORK/serial.txt" || {
    diff -u "$WORK/serial.txt" "$WORK/dist.txt" >&2 || true
    fail "distributed report differs from serial reference"
}

# The dead worker's lease must have expired for the sweep to have
# completed at all; the coordinator's log proves the chaos actually
# happened rather than the kill landing between leases.
grep -q "expired" "$WORK/coord.log" || \
    fail "no lease was ever reclaimed — the kill hit nothing: $(cat "$WORK/coord.log")"
echo "==> merged ledger: $(wc -l <"$WORK/ledger.jsonl") lines"
echo "==> reclaim evidence: $(grep -c "expired" "$WORK/coord.log") coordinator log line(s)"
echo "==> phase 1 PASS: worker kill -9, re-leased and merged byte-identically"

kill "$W1_PID" "$W2_PID" 2>/dev/null || true
W1_PID=; W2_PID=

# ---------------------------------------------------------------- phase 2

ADDR2="$WORK/coord2.addr"

# coordinate2 LOG — start the phase-2 coordinator in the background; the
# restart re-runs exactly this command over the same ledger.
coordinate2() {
    # shellcheck disable=SC2086
    "$BIN/gmap-eval" $SWEEP_FLAGS \
        -dist-listen 127.0.0.1:0 -dist-addr-file "$ADDR2" \
        -dist-parts 4 -dist-lease-ttl 2s \
        -checkpoint "$WORK/ledger2.jsonl" -out "$WORK/dist2.txt" \
        2>"$1" &
    COORD2_PID=$!
}

echo "==> phase 2: starting the doomed coordinator"
coordinate2 "$WORK/coord2a.log"
wait_file "$ADDR2" "doomed coordinator never published its address"
BASE2=$(read_base "$ADDR2")
echo "==> coordinator is at $BASE2"

echo "==> starting two addr-file workers"
"$BIN/gmap-eval" -worker-addr-file "$ADDR2" -workers 1 -quiet 2>"$WORK/w3.log" &
W3_PID=$!
"$BIN/gmap-eval" -worker-addr-file "$ADDR2" -workers 1 -quiet 2>"$WORK/w4.log" &
W4_PID=$!

wait_mid_sweep "$BASE2"
echo "==> mid-epoch ($DONE/$TOTAL jobs merged): kill -9 the coordinator (pid $COORD2_PID)"
kill -9 "$COORD2_PID"
wait "$COORD2_PID" 2>/dev/null || true

echo "==> restarting the coordinator over the same ledger"
coordinate2 "$WORK/coord2.log"
wait_exit "$COORD2_PID" "restarted coordinator"
wait "$COORD2_PID" || fail "restarted coordinator exited non-zero: $(cat "$WORK/coord2.log")"
COORD2_PID=

grep -q "(epoch 2)" "$WORK/coord2.log" || \
    fail "the restart did not claim epoch 2: $(cat "$WORK/coord2.log")"
RESTORED=$(sed -n 's/.*epoch 2, .*(\([0-9]*\) restored from.*/\1/p' "$WORK/coord2.log" | head -n1)
[ "${RESTORED:-0}" -gt 0 ] || \
    fail "the restart restored no merged results: $(cat "$WORK/coord2.log")"
# Compare against the URL the restart printed, not against the old
# one: a freed ephemeral port can be handed out again.
URL2=$(sed -n 's/^gmap-eval: coordinating .* on \([^ ]*\) (epoch 2)$/\1/p' "$WORK/coord2.log" | head -n1)
[ -n "$URL2" ] && [ "$(read_base "$ADDR2")" = "$URL2" ] || \
    fail "addr file holds $(read_base "$ADDR2"), not the restarted coordinator's ${URL2:-?}"

for pid in "$W3_PID" "$W4_PID"; do
    wait_exit "$pid" "addr-file worker"
    wait "$pid" || fail "addr-file worker (pid $pid) exited non-zero: $(cat "$WORK/w3.log" "$WORK/w4.log")"
done
W3_PID=; W4_PID=

[ -s "$WORK/dist2.txt" ] || fail "restarted coordinator wrote no report"
cmp -s "$WORK/dist2.txt" "$WORK/serial.txt" || {
    diff -u "$WORK/serial.txt" "$WORK/dist2.txt" >&2 || true
    fail "post-restart report differs from serial reference"
}
echo "==> restart: epoch 2, $RESTORED result(s) restored, addr file $BASE2 -> $URL2"
echo "==> merged ledger: $(wc -l <"$WORK/ledger2.jsonl") lines"
echo "==> phase 2 PASS: coordinator kill -9, restarted over the ledger byte-identically"

echo "PASS: both chaos phases merged byte-identically to serial"
