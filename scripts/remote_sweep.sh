#!/usr/bin/env bash
# remote_sweep.sh — end-to-end remote-backend sweep chaos check.
#
# Builds orion-sweep and orion-serve, records a clean single-process
# sweep's CSV, starts two real orion-serve backend processes on loopback
# ports, runs the same sweep dispatched to them over HTTP, and SIGKILLs
# one backend while points are in flight. The coordinator's circuit
# breaker must absorb the dead backend — re-dispatching its points to
# the survivor (or degrading to local execution) — and the merged CSV
# must be byte-identical to the clean run, with every point settled
# exactly once in the work-queue journal. A second remote sweep, with
# no -journal and no kill, checks the in-memory dispatch path against the
# same clean CSV. This is the CI gate for the remote-dispatch guarantee:
# a vanished backend costs retries, never results.
#
# Usage: scripts/remote_sweep.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
B1= B2=
cleanup() {
    [ -n "$B1" ] && kill "$B1" 2>/dev/null || true
    [ -n "$B2" ] && kill "$B2" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/orion-sweep" ./cmd/orion-sweep
go build -o "$WORK/orion-serve" ./cmd/orion-serve

# Enough samples that each point runs for a second or two, so the
# backend kill lands while dispatched points are in flight.
ARGS=(-preset vc16 -samples 40000 -rates 0.02,0.04,0.06,0.08,0.10,0.12)

echo "== clean run"
"$WORK/orion-sweep" "${ARGS[@]}" -csv "$WORK/clean.csv" > "$WORK/clean.out"

# Each backend binds :0 and logs the resolved address; poll its stderr
# for the "http listening on" line to discover where it landed.
wait_addr() {
    local errfile="$1" addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^orion-serve: http listening on //p' "$errfile")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: backend never reported its listen address" >&2
        cat "$errfile" >&2
        exit 1
    fi
    echo "$addr"
}

echo "== starting 2 orion-serve backends"
"$WORK/orion-serve" -http 127.0.0.1:0 -cache "$WORK/cache1" \
    2> "$WORK/serve1.err" < /dev/null &
B1=$!
"$WORK/orion-serve" -http 127.0.0.1:0 -cache "$WORK/cache2" \
    2> "$WORK/serve2.err" < /dev/null &
B2=$!
ADDR1="$(wait_addr "$WORK/serve1.err")"
ADDR2="$(wait_addr "$WORK/serve2.err")"
echo "backends up: $ADDR1 $ADDR2"

echo "== remote sweep: dispatch to both backends, SIGKILL one mid-sweep"
"$WORK/orion-sweep" "${ARGS[@]}" \
    -backends "http://$ADDR1,http://$ADDR2" -lease 2s \
    -journal "$WORK/remote.wal" -csv "$WORK/remote.csv" \
    > "$WORK/remote.out" 2>&1 &
COORD=$!

# Let the first wave of points reach the backends, then kill one
# SIGKILL-style: no drain, no goodbye — in-flight connections reset.
sleep 1.5
if kill -0 "$COORD" 2>/dev/null; then
    kill -9 "$B1" 2>/dev/null || true
    echo "SIGKILLed backend $B1 ($ADDR1) mid-sweep"
else
    echo "note: sweep finished before the kill landed" >&2
fi
B1=

wait "$COORD"
cat "$WORK/remote.out"

if ! grep -q 'orion-sweep: backends:' "$WORK/remote.out"; then
    echo "FAIL: coordinator did not report backend pool stats" >&2
    exit 1
fi

echo "== status after completion"
# printStatus exits non-zero on any failed point or live claim, so this
# line also asserts exactly one clean commit per point.
"$WORK/orion-sweep" -status -journal "$WORK/remote.wal" | tee "$WORK/status.out"
if ! grep -q '^6/6 points settled' "$WORK/status.out"; then
    echo "FAIL: queue journal does not show every point settled" >&2
    exit 1
fi
if grep -q 'failed' "$WORK/status.out"; then
    echo "FAIL: journal shows failed points after backend loss" >&2
    exit 1
fi

if ! diff "$WORK/clean.csv" "$WORK/remote.csv"; then
    echo "FAIL: remote-dispatched CSV differs from the single-process run" >&2
    exit 1
fi
echo "PASS: remote sweep with a SIGKILLed backend is byte-identical to the clean run"

echo "== in-memory remote sweep: no -journal, surviving backend"
"$WORK/orion-sweep" "${ARGS[@]}" -backends "http://$ADDR2" \
    -csv "$WORK/memory.csv" > "$WORK/memory.out" 2>&1
cat "$WORK/memory.out"
if ! grep -q 'orion-sweep: backends:' "$WORK/memory.out"; then
    echo "FAIL: in-memory remote sweep did not report backend pool stats" >&2
    exit 1
fi
if ! diff "$WORK/clean.csv" "$WORK/memory.csv"; then
    echo "FAIL: in-memory remote CSV differs from the single-process run" >&2
    exit 1
fi
echo "PASS: in-memory remote sweep is byte-identical to the clean run"
