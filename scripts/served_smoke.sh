#!/usr/bin/env sh
# served_smoke.sh — end-to-end smoke test for the gmap-served service.
#
# Starts a server on an ephemeral port, profiles a built-in workload,
# uploads the profile, submits a clone job (with an X-Gmap-Tenant header,
# which the service ignores), waits for the result, then resubmits the
# identical job and asserts (a) the second response is a cache hit, (b)
# the serve_api_cache_hits counter moved and (c) /metrics carries the
# queue's service-time histogram and no per-tenant series. A second
# phase runs sweeps, each through its own coordinator with the server as
# first worker: one with no remote worker, then one joined by a
# gmap-eval worker started before it. Both reports must equal
# gmap-eval -no-timings for the same spec; the worker must be listed
# live on /dist/v1/status while it waits, take a lease, and still be
# running afterwards, and a gmap-eval -fleet-watch pointed at the
# server must show the joined sweep. Exercises the same path a real
# deployment uses: binaries + HTTP, no test harness. Requires only a Go
# toolchain and curl.
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
DIST_PID=; WORKER_PID=; WATCH_PID=
# One kill per pid: dash's kill stops at its first empty argument.
trap 'for pid in $SERVED_PID $DIST_PID $WORKER_PID $WATCH_PID; do kill "$pid" 2>/dev/null || true; done' EXIT

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

echo "==> submitting clone job (naming a tenant, which is ignored)"
curl -sS -o "$WORK/submit1.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -H 'X-Gmap-Tenant: alice' -d "$SPEC" \
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

echo "==> checking /metrics: cache hits, queue service time, no per-tenant series"
curl -sSf "$BASE/metrics" >"$WORK/metrics.txt"
HITS=$(sed -n 's/^gmap_serve_api_cache_hits[[:space:]]\{1,\}//p' "$WORK/metrics.txt")
[ -n "$HITS" ] || fail "serve_api_cache_hits missing from /metrics"
[ "$HITS" -ge 1 ] || fail "serve_api_cache_hits = $HITS, want >= 1"
SERVICE=$(sed -n 's/^gmap_serve_queue_service_ns_count[[:space:]]\{1,\}//p' "$WORK/metrics.txt")
[ "${SERVICE:-0}" -ge 1 ] || fail "gmap_serve_queue_service_ns_count = ${SERVICE:-missing}, want >= 1"
! grep -q '^gmap_serve_tenant_' "$WORK/metrics.txt" || \
    fail "/metrics still has per-tenant series: $(grep '^gmap_serve_tenant_' "$WORK/metrics.txt" | head -3)"
echo "==> phase 1 PASS: submit -> result -> cached resubmission ($HITS cache hit(s)), bit-identical results"

# ---------------------------------------------------------------- phase 2

DIST_ADDR="$WORK/dist.addr"

# report FILE — print a sweep result's report field.
cat >"$WORK/report.go" <<'GO'
package main

import (
	"encoding/json"
	"os"
)

func main() {
	var r struct {
		Report string `json:"report"`
	}
	if err := json.NewDecoder(os.Stdin).Decode(&r); err != nil {
		os.Exit(1)
	}
	os.Stdout.WriteString(r.Report)
}
GO
go build -o "$BIN/report" "$WORK/report.go"

# sweep NAME SPEC EVAL_ARGS... — submit SPEC, wait for it, and compare
# its report with gmap-eval -no-timings EVAL_ARGS.
sweep() {
    name=$1 spec=$2
    shift 2
    curl -sSf -X POST -H 'Content-Type: application/json' -d "$spec" \
        "$DBASE/v1/jobs" >"$WORK/$name.json"
    id=$(jget "$WORK/$name.json" job)
    [ -n "$id" ] || fail "$name submit returned no job id"
    i=0
    while :; do
        curl -sSf "$DBASE/v1/jobs/$id" >"$WORK/$name.status.json"
        st=$(jget "$WORK/$name.status.json" status)
        case "$st" in
        done) break ;;
        failed | canceled) fail "$name ended $st: $(cat "$WORK/$name.status.json")" ;;
        esac
        i=$((i + 1))
        [ "$i" -le 1200 ] || fail "$name never completed (status $st)"
        sleep 0.5
    done
    curl -sSf "$DBASE/v1/jobs/$id/result" | "$BIN/report" >"$WORK/$name.served.txt" || \
        fail "$name result carries no report"
    "$BIN/gmap-eval" -no-timings -quiet "$@" >"$WORK/$name.eval.txt"
    cmp -s "$WORK/$name.served.txt" "$WORK/$name.eval.txt" || \
        fail "$name report differs from gmap-eval -no-timings $*: $(diff "$WORK/$name.served.txt" "$WORK/$name.eval.txt" | head -20)"
}

echo "==> phase 2: starting gmap-served with a 2s lease TTL"
"$BIN/gmap-served" -addr 127.0.0.1:0 -addr-file "$DIST_ADDR" -store "$WORK/dist-store" \
    -dist-lease-ttl 2s 2>"$WORK/dist-served.log" &
DIST_PID=$!
i=0
while [ ! -s "$DIST_ADDR" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "second server never wrote $DIST_ADDR"
    sleep 0.1
done
DBASE="http://$(cat "$DIST_ADDR")"
echo "==> second server is at $DBASE"

echo "==> sweep with no remote worker (fig6a, nn)"
sweep solo '{"kind":"sweep","experiment":"fig6a","benchmarks":["nn"],"cores":4}' \
    -exp fig6a -benchmarks nn -cores 4

echo "==> starting a gmap-eval worker before the next sweep"
# -serve joins the fleet view: the worker pushes its tallies to
# /fleet/push after every heartbeat and at every lease end. Its
# liveness needs no push: the server's roster records every lease
# request it makes while it waits.
"$BIN/gmap-eval" -worker "$DBASE" -serve 127.0.0.1:0 -workers 1 -quiet 2>"$WORK/worker.log" &
WORKER_PID=$!

# live — /dist/v1/status (compact JSON) lists the worker live.
live() {
    curl -sSf "$DBASE/dist/v1/status" >"$WORK/dist_status.json"
    grep -q '"name":"[^"]*:'"$WORKER_PID"'","state":"live"' "$WORK/dist_status.json"
}
i=0
until live; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "/dist/v1/status never listed the waiting worker live: $(cat "$WORK/dist_status.json")"
    sleep 0.1
done
# Longer than one lease TTL with nothing to lease: still live.
sleep 3
live || fail "the waiting worker went stale: $(cat "$WORK/dist_status.json")"
echo "==> waiting worker listed live on /dist/v1/status"

echo "==> watching the fleet while the next sweep runs"
"$BIN/gmap-eval" -fleet-watch "$DBASE" -fleet-interval 100ms >"$WORK/watch.txt" 2>&1 &
WATCH_PID=$!

echo "==> sweep joined by the worker (fig6c, nn)"
sweep joined '{"kind":"sweep","experiment":"fig6c","benchmarks":["nn"],"cores":4}' \
    -exp fig6c -benchmarks nn -cores 4

kill "$WATCH_PID" 2>/dev/null || true
wait "$WATCH_PID" 2>/dev/null || true
WATCH_PID=
grep -q 'sweep fig6c' "$WORK/watch.txt" || \
    fail "gmap-eval -fleet-watch never showed the sweep: $(tail -c 600 "$WORK/watch.txt")"
echo "==> the fleet watch showed the sweep ($(grep -c 'sweep fig6c' "$WORK/watch.txt") frame(s))"

curl -sSf "$DBASE/fleet/metrics" >"$WORK/dist_metrics.txt"
LEASES=$(sed -n 's/^gmap_dist_worker_leases{worker="[^"]*:'"$WORKER_PID"'"} \([0-9]*\)$/\1/p' "$WORK/dist_metrics.txt")
[ "${LEASES:-0}" -ge 1 ] || fail "the worker took no lease: $(grep dist_worker_leases "$WORK/dist_metrics.txt")"
kill -0 "$WORKER_PID" 2>/dev/null || fail "the worker exited after the sweep: $(tail -5 "$WORK/worker.log")"
live || fail "the worker is not live after the sweep: $(cat "$WORK/dist_status.json")"

kill "$WORKER_PID" 2>/dev/null || true
wait "$WORKER_PID" 2>/dev/null || true
WORKER_PID=
echo "==> phase 2 PASS: both sweeps equal gmap-eval -no-timings; the worker waited live, took $LEASES lease(s) and outlived the sweep, and the watch showed it"

echo "PASS: cached resubmission ($HITS cache hit(s)) and coordinated sweeps with and without a remote worker"
