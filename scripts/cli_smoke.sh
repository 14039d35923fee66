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
#   6. a random port-stall fault is rejected (it is not a link fault).
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

echo "PASS: cli smoke"
