#!/usr/bin/env bash
# cli_smoke.sh — end-to-end smoke of the command-line enum flags.
#
# Builds orion, orion-power and orion-sweep and checks that their enum
# flags read the same name tables as config files:
#
#   1. aliases and canonical names both work on the command line, and
#      -dump-config writes the canonical names;
#   2. a dumped config fed back through -config dumps byte for byte the
#      same;
#   3. orion-power takes both -arbiter round-robin and -arbiter rr;
#   4. orion-sweep -preset is case-insensitive;
#   5. a bad enum value exits 2 naming its flag;
#   6. a random port-stall fault is rejected (it is not a link fault);
#   7. orion-sweep -worker rejects -csv and -resume, which only the
#      -journal merger acts on;
#   8. an invalid config fails orion-sweep before any point runs.
#
# Usage: scripts/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for cmd in orion orion-power orion-sweep; do
    go build -o "$WORK/$cmd" "./cmd/$cmd"
done

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# 1. Aliases in, canonical names out.
"$WORK/orion" -router wh -pattern bit-complement -deadlock none -dump-config > "$WORK/a.json"
grep -q '"Kind": "wormhole"' "$WORK/a.json" || fail "-router wh did not dump as \"wormhole\""
grep -q '"Kind": "bit-complement"' "$WORK/a.json" || fail "-pattern bit-complement did not dump as \"bit-complement\""
grep -q '"Deadlock": "none"' "$WORK/a.json" || fail "-deadlock none did not dump as \"none\""
echo "ok: -router wh -pattern bit-complement -deadlock none dumps canonical names"

# 2. The dumped file reproduces itself.
"$WORK/orion" -config "$WORK/a.json" -dump-config > "$WORK/b.json"
cmp -s "$WORK/a.json" "$WORK/b.json" || fail "-config round trip changed the dump: $(diff "$WORK/a.json" "$WORK/b.json")"
echo "ok: -config FILE -dump-config reproduces FILE byte for byte"

# 3. Every arbiter spelling works in orion-power.
for arb in round-robin rr; do
    "$WORK/orion-power" -arbiter "$arb" > "$WORK/power.out" || fail "orion-power -arbiter $arb failed"
done
echo "ok: orion-power -arbiter round-robin and -arbiter rr"

# 4. A preset sweep (names are case-insensitive).
"$WORK/orion-sweep" -preset VC16 -rates 0.02 -samples 200 > "$WORK/sweep.out" ||
    fail "orion-sweep -preset VC16 failed: $(cat "$WORK/sweep.out")"
echo "ok: orion-sweep -preset VC16"

# 5. A bad enum value fails in flag parsing: exit 2, flag named.
set +e
"$WORK/orion" -router quantum -dump-config > /dev/null 2> "$WORK/bad.err"
status=$?
set -e
[ "$status" -eq 2 ] || fail "orion -router quantum exited $status, want 2"
grep -q -- '-router' "$WORK/bad.err" || fail "orion -router quantum did not name -router: $(cat "$WORK/bad.err")"
echo "ok: orion -router quantum exits 2 naming -router"

# 6. Port stalls are input-port faults, not link faults.
if "$WORK/orion" -fault-links 1 -fault-kind port-stall -dump-config > /dev/null 2> "$WORK/stall.err"; then
    fail "orion -fault-links 1 -fault-kind port-stall succeeded"
fi
grep -q 'port-stall' "$WORK/stall.err" || fail "port-stall rejection does not name the kind: $(cat "$WORK/stall.err")"
echo "ok: orion -fault-links 1 -fault-kind port-stall is rejected"

# 7. A joined worker writes no output and resumes nothing.
for flagname in -csv -resume; do
    extra=("$flagname")
    [ "$flagname" = -csv ] && extra+=("$WORK/w.csv")
    set +e
    "$WORK/orion-sweep" -worker -journal "$WORK/q.wal" "${extra[@]}" > /dev/null 2> "$WORK/worker.err"
    status=$?
    set -e
    [ "$status" -eq 1 ] || fail "orion-sweep -worker $flagname exited $status, want 1"
    grep -q -- "^orion-sweep: $flagname:" "$WORK/worker.err" ||
        fail "orion-sweep -worker $flagname did not name $flagname: $(cat "$WORK/worker.err")"
    [ ! -e "$WORK/q.wal" ] || fail "orion-sweep -worker $flagname touched the queue"
done
echo "ok: orion-sweep -worker rejects -csv and -resume"

# 8. Validation runs before the sweep: exit 1, field named, no CSV.
set +e
"$WORK/orion-sweep" -samples -5 -rates 0.02 -csv "$WORK/neg.csv" > /dev/null 2> "$WORK/neg.err"
status=$?
set -e
[ "$status" -eq 1 ] || fail "orion-sweep -samples -5 exited $status, want 1"
grep -q 'Sim.SamplePackets: must not be negative' "$WORK/neg.err" ||
    fail "orion-sweep -samples -5 did not name Sim.SamplePackets: $(cat "$WORK/neg.err")"
[ ! -e "$WORK/neg.csv" ] || fail "orion-sweep -samples -5 wrote a CSV"
echo "ok: orion-sweep -samples -5 exits 1 naming Sim.SamplePackets"

echo "PASS: cli smoke"
