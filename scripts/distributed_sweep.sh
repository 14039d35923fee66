#!/usr/bin/env bash
# distributed_sweep.sh — end-to-end multi-process sweep chaos check.
#
# Builds orion-sweep, records a clean single-process sweep's CSV, then
# runs the same sweep as a multi-process sweep: one `-journal ... -csv`
# process creates the work queue, runs its own workers and merges, and
# four `-worker` processes join the queue file. Two of the joined
# workers are SIGKILLed, each at a moment when `-status` shows it
# holding a live claim, and the merged CSV must be byte-identical to the
# clean one. This is the CI gate for the multi-process guarantee: a
# killed worker's leases expire, the survivors (and the merger's own
# workers) steal and re-run its points, and exactly one committed result
# per point ever lands — so the merged curve is indistinguishable from a
# sweep that never saw a crash.
#
# Usage: scripts/distributed_sweep.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/orion-sweep" ./cmd/orion-sweep
SWEEP="$WORK/orion-sweep"
WAL="$WORK/sweep.wal"

# Enough samples that each point runs for a second or two, so the kills
# land while workers hold live claims; a short lease so stolen points
# come back quickly.
ARGS=(-preset vc16 -samples 40000 -rates 0.02,0.04,0.06,0.08,0.10,0.12 -lease 2s)

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

echo "== clean run"
"$SWEEP" "${ARGS[@]}" -csv "$WORK/clean.csv" > "$WORK/clean.out"

# The merger runs one in-process worker per CPU it may use. Pinned to a
# single CPU (when taskset is available) it holds at most one claim at a
# time, so the joined workers get most of the points on any host size.
PIN=()
if command -v taskset > /dev/null; then
    cpu="$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')"
    PIN=(taskset -c "$cpu")
fi

echo "== multi-process run: merger + 4 joined workers, SIGKILL two holding claims"
"${PIN[@]}" "$SWEEP" "${ARGS[@]}" -journal "$WAL" -csv "$WORK/dist.csv" \
    > "$WORK/dist.out" 2>&1 &
MERGER=$!
PIDS+=("$MERGER")

# Workers join an existing queue: wait until the merger has written the
# header, which is when -status can read the file.
for _ in $(seq 1 200); do
    if "$SWEEP" -status -journal "$WAL" 2> /dev/null | grep -q 'points settled'; then
        break
    fi
    sleep 0.05
done
"$SWEEP" -status -journal "$WAL" 2> /dev/null | grep -q 'points settled' ||
    fail "the merger did not create the queue: $(cat "$WORK/dist.out")"

WORKERS=()
for i in 1 2 3 4; do
    "$SWEEP" "${ARGS[@]}" -worker -journal "$WAL" > "$WORK/worker$i.out" 2>&1 &
    WORKERS+=($!)
    PIDS+=($!)
done

# A worker's claims carry its identity, host-pid-random, in the -status
# worker column; a live claim has no detail after it (an expired one
# says "lease expired").
holds_live_claim() {
    awk -v pid="$1" '$3 == "claimed" && $4 ~ ("-" pid "-") && NF == 4 { found = 1 } END { exit !found }' \
        "$WORK/status.now"
}
killed=0
for _ in $(seq 1 600); do
    kill -0 "$MERGER" 2> /dev/null || break
    "$SWEEP" -status -journal "$WAL" > "$WORK/status.now" 2> /dev/null || true
    for idx in "${!WORKERS[@]}"; do
        pid="${WORKERS[$idx]}"
        if [ "$killed" -lt 2 ] && holds_live_claim "$pid" && kill -9 "$pid" 2> /dev/null; then
            killed=$((killed + 1))
            unset 'WORKERS[idx]'
            wait "$pid" 2> /dev/null || true
            echo "SIGKILLed worker $pid while it held a live claim ($killed/2)"
        fi
    done
    [ "$killed" -ge 2 ] && break
    sleep 0.1
done

wait "$MERGER" || fail "merger exited with status $?: $(cat "$WORK/dist.out")"
cat "$WORK/dist.out"
for pid in "${WORKERS[@]}"; do
    wait "$pid" || fail "surviving worker $pid exited with status $?"
done
PIDS=()
[ "$killed" -eq 2 ] || fail "only $killed worker(s) were caught holding a claim before the sweep finished"
grep -h 'claims' "$WORK"/worker*.out || true

echo "== status after completion"
"$SWEEP" -status -journal "$WAL" | tee "$WORK/status.out"
if ! grep -q '^6/6 points settled' "$WORK/status.out"; then
    echo "FAIL: queue journal does not show every point settled" >&2
    exit 1
fi

if ! diff "$WORK/clean.csv" "$WORK/dist.csv"; then
    echo "FAIL: distributed CSV differs from the single-process run" >&2
    exit 1
fi
echo "PASS: multi-process sweep with $killed killed workers is byte-identical to the clean run"
