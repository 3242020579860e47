#!/usr/bin/env sh
# served_smoke.sh — end-to-end smoke test for the gmap-served service.
#
# Starts a server on an ephemeral port, profiles a built-in workload,
# uploads the profile, submits a clone job, waits for the result, then
# resubmits the identical job and asserts (a) the second response is a
# cache hit and (b) the serve_api_cache_hits counter moved. A second
# phase starts a -dist-sweeps server with one gmap-eval worker dialing
# it and asserts a sweep ran on the worker fleet: delegated, no local
# fallback, and the worker's pushes on /fleet/status. Exercises the
# same path a real deployment uses: binaries + HTTP, no test harness.
# Requires only a Go toolchain and curl.
#
# Usage: scripts/served_smoke.sh [workdir]
set -eu

WORK="${1:-$(mktemp -d)}"
BIN="$WORK/bin"
STORE="$WORK/store"
ADDR_FILE="$WORK/addr"
mkdir -p "$BIN"

echo "==> building binaries into $BIN"
go build -o "$BIN/gmap-profile" ./cmd/gmap-profile
go build -o "$BIN/gmap-served" ./cmd/gmap-served
go build -o "$BIN/gmap-eval" ./cmd/gmap-eval

echo "==> profiling built-in workload aes"
"$BIN/gmap-profile" -workload aes -out "$WORK/aes.profile.json"

echo "==> starting gmap-served on an ephemeral port"
"$BIN/gmap-served" -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" -store "$STORE" &
SERVED_PID=$!
DIST_PID=; WORKER_PID=
trap 'kill "$SERVED_PID" "$DIST_PID" "$WORKER_PID" 2>/dev/null || true' EXIT

# Wait for the server to write its bound address.
i=0
while [ ! -s "$ADDR_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "FAIL: server never wrote $ADDR_FILE" >&2
        exit 1
    fi
    sleep 0.1
done
BASE="http://$(cat "$ADDR_FILE")"
echo "==> server is at $BASE"

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# jget FILE KEY — extract a scalar JSON field without jq.
jget() {
    sed -n 's/.*"'"$2"'":[[:space:]]*"\{0,1\}\([^",}]*\)"\{0,1\}.*/\1/p' "$1" | head -n1
}

echo "==> uploading profile"
curl -sSf -X POST --data-binary @"$WORK/aes.profile.json" \
    "$BASE/v1/profiles" >"$WORK/profile_resp.json"
HASH=$(jget "$WORK/profile_resp.json" profile)
[ -n "$HASH" ] || fail "profile upload returned no hash: $(cat "$WORK/profile_resp.json")"
echo "    profile $HASH"

SPEC="{\"kind\":\"clone\",\"profile\":\"$HASH\",\"seed\":7}"

echo "==> submitting clone job"
curl -sS -o "$WORK/submit1.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -d "$SPEC" \
    "$BASE/v1/jobs" >"$WORK/code1"
[ "$(cat "$WORK/code1")" = "202" ] || \
    fail "first submit returned $(cat "$WORK/code1"): $(cat "$WORK/submit1.json")"
JOB=$(jget "$WORK/submit1.json" job)
[ -n "$JOB" ] || fail "submit returned no job id"
echo "    job $JOB"

echo "==> waiting for completion"
i=0
while :; do
    curl -sSf "$BASE/v1/jobs/$JOB" >"$WORK/status.json"
    STATUS=$(jget "$WORK/status.json" status)
    case "$STATUS" in
    done) break ;;
    failed | canceled) fail "job ended $STATUS: $(cat "$WORK/status.json")" ;;
    esac
    i=$((i + 1))
    [ "$i" -gt 300 ] || sleep 0.1
    [ "$i" -le 300 ] || fail "job never completed (status $STATUS)"
done

curl -sSf "$BASE/v1/jobs/$JOB/result" >"$WORK/result1.json"
grep -q '"kind":"clone"' "$WORK/result1.json" || fail "result missing clone payload"
echo "==> job done, result retrieved ($(wc -c <"$WORK/result1.json") bytes)"

echo "==> resubmitting the identical job"
curl -sS -o "$WORK/submit2.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -d "$SPEC" \
    "$BASE/v1/jobs" >"$WORK/code2"
[ "$(cat "$WORK/code2")" = "200" ] || \
    fail "resubmission returned $(cat "$WORK/code2"), want 200 (cache hit)"
grep -q '"cached": true' "$WORK/submit2.json" || \
    fail "resubmission not served from cache: $(cat "$WORK/submit2.json")"
JOB2=$(jget "$WORK/submit2.json" job)
[ "$JOB2" = "$JOB" ] || fail "resubmission got a new job id ($JOB2 != $JOB)"

curl -sSf "$BASE/v1/jobs/$JOB2/result" >"$WORK/result2.json"
cmp -s "$WORK/result1.json" "$WORK/result2.json" || \
    fail "cached result differs from original"

echo "==> submitting a figure sweep (table1, aes)"
SWEEP='{"kind":"sweep","experiment":"table1","benchmarks":["aes"]}'
curl -sSf -X POST -H 'Content-Type: application/json' -d "$SWEEP" \
    "$BASE/v1/jobs" >"$WORK/sweep1.json"
SJOB=$(jget "$WORK/sweep1.json" job)
[ -n "$SJOB" ] || fail "sweep submit returned no job id"
i=0
while :; do
    curl -sSf "$BASE/v1/jobs/$SJOB" >"$WORK/sstatus.json"
    SSTATUS=$(jget "$WORK/sstatus.json" status)
    case "$SSTATUS" in
    done) break ;;
    failed | canceled) fail "sweep ended $SSTATUS: $(cat "$WORK/sstatus.json")" ;;
    esac
    i=$((i + 1))
    [ "$i" -le 1200 ] || fail "sweep never completed (status $SSTATUS)"
    sleep 0.5
done
curl -sSf "$BASE/v1/jobs/$SJOB/result" >"$WORK/sweep_result1.json"
grep -q '"kind":"sweep"' "$WORK/sweep_result1.json" || fail "sweep result missing report"
grep -q 'table1: application memory patterns' "$WORK/sweep_result1.json" || \
    fail "sweep result missing figure content"

echo "==> resubmitting the sweep (must be a cache hit)"
curl -sS -o "$WORK/sweep2.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -d "$SWEEP" \
    "$BASE/v1/jobs" >"$WORK/scode2"
[ "$(cat "$WORK/scode2")" = "200" ] || \
    fail "sweep resubmission returned $(cat "$WORK/scode2"), want 200 (cache hit)"
grep -q '"cached": true' "$WORK/sweep2.json" || \
    fail "sweep resubmission not served from cache: $(cat "$WORK/sweep2.json")"
curl -sSf "$BASE/v1/jobs/$SJOB/result" >"$WORK/sweep_result2.json"
cmp -s "$WORK/sweep_result1.json" "$WORK/sweep_result2.json" || \
    fail "cached sweep result differs from original"

echo "==> checking /metrics for the cache-hit counter"
curl -sSf "$BASE/metrics" >"$WORK/metrics.txt"
HITS=$(sed -n 's/^gmap_serve_api_cache_hits[[:space:]]\{1,\}//p' "$WORK/metrics.txt")
[ -n "$HITS" ] || fail "serve_api_cache_hits missing from /metrics"
[ "$HITS" -ge 1 ] || fail "serve_api_cache_hits = $HITS, want >= 1"
echo "==> phase 1 PASS: submit -> result -> cached resubmission ($HITS cache hit(s)), bit-identical results"

# ---------------------------------------------------------------- phase 2

DIST_ADDR="$WORK/dist.addr"

echo "==> phase 2: starting gmap-served -dist-sweeps and one fleet worker"
"$BIN/gmap-served" -addr 127.0.0.1:0 -addr-file "$DIST_ADDR" -store "$WORK/dist-store" \
    -dist-sweeps -dist-lease-ttl 2s 2>"$WORK/dist-served.log" &
DIST_PID=$!
i=0
while [ ! -s "$DIST_ADDR" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "dist server never wrote $DIST_ADDR"
    sleep 0.1
done
DBASE="http://$(cat "$DIST_ADDR")"
echo "==> dist server is at $DBASE"
# -serve joins the fleet: the worker pushes its tallies to /fleet/push.
"$BIN/gmap-eval" -worker "$DBASE" -serve 127.0.0.1:0 -workers 1 -quiet 2>"$WORK/worker.log" &
WORKER_PID=$!

echo "==> submitting a delegated sweep (fig6a, nn)"
DSWEEP='{"kind":"sweep","experiment":"fig6a","benchmarks":["nn"],"scale":1,"scale_factor":4,"seed":1,"cores":4}'
curl -sSf -X POST -H 'Content-Type: application/json' -d "$DSWEEP" \
    "$DBASE/v1/jobs" >"$WORK/dsweep.json"
DJOB=$(jget "$WORK/dsweep.json" job)
[ -n "$DJOB" ] || fail "delegated sweep submit returned no job id"
i=0
while :; do
    curl -sSf "$DBASE/v1/jobs/$DJOB" >"$WORK/dstatus.json"
    DSTATUS=$(jget "$WORK/dstatus.json" status)
    case "$DSTATUS" in
    done) break ;;
    failed | canceled) fail "delegated sweep ended $DSTATUS: $(cat "$WORK/dstatus.json")" ;;
    esac
    i=$((i + 1))
    [ "$i" -le 1200 ] || fail "delegated sweep never completed (status $DSTATUS)"
    sleep 0.5
done
curl -sSf "$DBASE/v1/jobs/$DJOB/result" >"$WORK/dsweep_result.json"
grep -q '"kind":"sweep"' "$WORK/dsweep_result.json" || fail "delegated sweep result missing report"

curl -sSf "$DBASE/metrics" >"$WORK/dist_metrics.txt"
grep -q '^gmap_dist_delegate_sweeps 1$' "$WORK/dist_metrics.txt" || \
    fail "gmap_dist_delegate_sweeps != 1: $(grep delegate "$WORK/dist_metrics.txt")"
FALLBACKS=$(sed -n 's/^gmap_serve_api_sweep_delegate_fallbacks[[:space:]]\{1,\}//p' "$WORK/dist_metrics.txt")
[ "${FALLBACKS:-0}" -eq 0 ] || fail "sweep fell back to local execution ($FALLBACKS fallback(s)): $(cat "$WORK/dist-served.log")"

# /fleet/status is indented JSON; the first "pushes" line after
# "workers" is the worker's own count, not the fleet total.
curl -sSf "$DBASE/fleet/status" >"$WORK/dist_fleet.json"
grep -q '"name": *"[^"]*:'"$WORKER_PID"'"' "$WORK/dist_fleet.json" || \
    fail "/fleet/status does not list the worker (pid $WORKER_PID): $(cat "$WORK/dist_fleet.json")"
WPUSHES=$(sed -n '/"workers"/,$p' "$WORK/dist_fleet.json" | sed -n 's/.*"pushes": *\([0-9]*\).*/\1/p' | head -n1)
[ "${WPUSHES:-0}" -ge 1 ] || fail "worker made no fleet pushes: $(cat "$WORK/dist_fleet.json")"

# With no sweep left to coordinate the worker would retry 503s for
# about a minute; stop it now.
kill "$WORKER_PID" 2>/dev/null || true
wait "$WORKER_PID" 2>/dev/null || true
WORKER_PID=
echo "==> phase 2 PASS: sweep delegated to the worker fleet, no fallback, worker listed with $WPUSHES push(es)"

echo "PASS: cached resubmission ($HITS cache hit(s)) and delegated sweep over a live worker"
