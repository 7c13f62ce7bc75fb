#!/usr/bin/env bash
# End-to-end smoke test for the fault-injection subsystem, run by CI and
# usable locally: the same seeded fault plan must produce byte-identical
# JSON results (and the same exit code) across runs, every injected fault
# must be detected and recovered, exit codes must stay within the
# documented set, and a fault sweep must populate its fault columns.
#
# Usage: fault-smoke.sh [path-to-ccr-sim] [path-to-ccr-sweep]
set -euo pipefail

SIM=${1:-./ccr-sim}
SWEEP=${2:-./ccr-sweep}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
. "$(dirname "$0")/csv.sh"

SPEC='coll=0.01,dist=0.01,ho=0.005,crash=3@200+300,crash=5@1000+100,seed=9'

# run_sim captures JSON output and the exit code, which may be 0 (clean) or
# 3 (a real-time deadline missed — expected under injected faults). Any
# other code is a failure.
run_sim() { # out-file -> prints exit code
  local rc=0
  "$SIM" -nodes 8 -rt 0.4 -be 0.1 -slots 8000 -seed 1 -faults "$SPEC" -json \
    > "$1" || rc=$?
  case "$rc" in
    0|3) echo "$rc" ;;
    *) echo "fault-smoke: ccr-sim exited $rc, want 0 or 3" >&2; exit 1 ;;
  esac
}

# Determinism: same seed, same plan => byte-identical result and exit code.
RC_A=$(run_sim "$TMP/a.json")
RC_B=$(run_sim "$TMP/b.json")
cmp "$TMP/a.json" "$TMP/b.json"
[ "$RC_A" = "$RC_B" ] || { echo "fault-smoke: exit codes differ: $RC_A vs $RC_B" >&2; exit 1; }

# Recovery invariants: faults were injected, every one was detected and
# recovered, the full crash schedule fired, and the protocol invariants and
# wire codecs stayed clean while the ring kept delivering.
jq -e '
  .snapshot.faults_injected > 0 and
  .snapshot.node_crashes == 2 and
  .snapshot.faults_detected == .snapshot.faults_injected and
  .snapshot.faults_recovered == .snapshot.faults_injected and
  (.snapshot.invariant_violations // 0) == 0 and
  (.snapshot.wire_errors // 0) == 0 and
  .snapshot.messages_delivered > 0
' "$TMP/a.json" >/dev/null

# A malformed fault spec must be a usage error (exit 2), never a crash.
RC=0
"$SIM" -nodes 8 -slots 100 -faults 'coll=two' >/dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ] || { echo "fault-smoke: malformed spec exited $RC, want 2" >&2; exit 1; }

# A small fault sweep must run clean and carry populated fault columns in
# its CSV (faults_injected == faults_recovered > 0, no point errors).
"$SWEEP" -protocols ccr-edf -nodes 8 -loads 0.4 -slots 3000 \
  -faults 'coll=0.02,crash=2@100+200,seed=5' -csv "$TMP/sweep.csv" >/dev/null
head -1 "$TMP/sweep.csv" | grep -q 'faults_injected,faults_recovered,ring_util,cross_miss_ratio'
csv_row_ok "$TMP/sweep.csv" 'col("faults_injected")+0 > 0 &&
  col("faults_injected") == col("faults_recovered") &&
  col("ring_util") != "" && col("error") == ""'

# Bridge crash on a multi-ring topology: crashing a bridge endpoint
# partitions the chain, so in-flight relays expire at the dead bridge; after
# the restart the topology re-forms and traffic crosses again. The injected
# fault must be detected and recovered, the run must exit 3 (cross-ring
# deadlines were lost), and the whole thing must stay byte-deterministic.
cat > "$TMP/bridge.json" <<'JSON'
{
  "topology": {
    "rings": [8, 8, 8],
    "bridges": [
      {"ring_a": 0, "node_a": 3, "ring_b": 1, "node_b": 0},
      {"ring_a": 1, "node_a": 4, "ring_b": 2, "node_b": 1}
    ]
  },
  "horizon_slots": 4000,
  "seed": 7,
  "ring_faults": [
    {"ring": 1, "faults": {"crashes": [{"node": 0, "at_slot": 500, "restart_slot": 1500}]}}
  ],
  "cross_connections": [
    {"src_ring": 0, "src": 1, "dst_ring": 2, "dests": [5], "period_slots": 40, "slots": 1, "deadline_slots": 40}
  ]
}
JSON
run_bridge() { # out-file -> prints exit code
  local rc=0
  "$SIM" -config "$TMP/bridge.json" -json > "$1" || rc=$?
  case "$rc" in
    3) echo "$rc" ;;
    *) echo "fault-smoke: bridge-crash run exited $rc, want 3" >&2; exit 1 ;;
  esac
}
run_bridge "$TMP/bridge-a.json" >/dev/null
run_bridge "$TMP/bridge-b.json" >/dev/null
cmp "$TMP/bridge-a.json" "$TMP/bridge-b.json"
jq -e '
  (.rings | length) == 3 and
  .cross[0].expired > 0 and
  .cross[0].delivered > 0 and
  .snapshot.node_crashes == 1 and
  .snapshot.faults_injected > 0 and
  .snapshot.faults_detected == .snapshot.faults_injected and
  .snapshot.faults_recovered == .snapshot.faults_injected and
  (.snapshot.invariant_violations // 0) == 0 and
  (.snapshot.wire_errors // 0) == 0
' "$TMP/bridge-a.json" >/dev/null

echo "fault-smoke: ok"
