#!/usr/bin/env bash
# End-to-end smoke test for mixed-criticality admission under connection
# churn, run by CI and usable locally: experiment E23 must pass, a churned
# ccr-sim run must be byte-identical across two runs with the same seed, the
# hard class must show zero deadline misses while firm/best-effort absorb
# the overload through evictions, malformed churn specs must be usage
# errors, and a churn sweep must populate its per-criticality CSV columns.
#
# Usage: churn-smoke.sh [path-to-ccr-sim] [path-to-ccr-sweep] [path-to-ccr-bench]
set -euo pipefail

SIM=${1:-./ccr-sim}
SWEEP=${2:-./ccr-sweep}
BENCH=${3:-./ccr-bench}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
. "$(dirname "$0")/csv.sh"

# E23 is the reference experiment: zero hard misses and zero hard evictions
# across tens of thousands of churn arrivals, reproducible bit-for-bit.
"$BENCH" -id E23 -seed 1 >/dev/null

CHURN='rate=200000,hold=1500,seed=5'

# run_sim captures JSON output and the exit code, which may be 0 (clean) or
# 3 (a deadline missed — best-effort may degrade under overload). Any other
# code is a failure.
run_sim() { # out-file -> prints exit code
  local rc=0
  "$SIM" -nodes 16 -rt 0.3 -be 0 -slots 20000 -seed 1 -churn "$CHURN" -json \
    > "$1" || rc=$?
  case "$rc" in
    0|3) echo "$rc" ;;
    *) echo "churn-smoke: ccr-sim exited $rc, want 0 or 3" >&2; exit 1 ;;
  esac
}

# Determinism: same seed, same churn spec => byte-identical result and exit
# code across two runs.
RC_A=$(run_sim "$TMP/a.json")
RC_B=$(run_sim "$TMP/b.json")
cmp "$TMP/a.json" "$TMP/b.json"
[ "$RC_A" = "$RC_B" ] || { echo "churn-smoke: exit codes differ: $RC_A vs $RC_B" >&2; exit 1; }

# Mixed-criticality invariants: the hard class never misses and is never
# evicted; overload lands on firm/best-effort as visible evictions; every
# level sees admissions; protocol invariants and wire codecs stay clean.
jq -e '
  (.snapshot.missed_hard // 0) == 0 and
  (.snapshot.evicted_hard // 0) == 0 and
  (.snapshot.admitted_hard // 0) > 0 and
  (.snapshot.admitted_firm // 0) > 0 and
  (.snapshot.admitted_best_effort // 0) > 0 and
  ((.snapshot.evicted_firm // 0) + (.snapshot.evicted_best_effort // 0)) > 0 and
  (.snapshot.invariant_violations // 0) == 0 and
  (.snapshot.wire_errors // 0) == 0 and
  .snapshot.messages_delivered > 0
' "$TMP/a.json" >/dev/null

# A malformed churn spec must be a usage error (exit 2), never a crash.
RC=0
"$SIM" -nodes 8 -slots 100 -churn 'rate=0' >/dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ] || { echo "churn-smoke: malformed spec exited $RC, want 2" >&2; exit 1; }

# A small churn sweep must run clean and carry populated per-criticality
# columns in its CSV: admitted_hard > 0, evicted_hard == 0, missed_hard == 0,
# firm+best-effort evictions > 0, no point errors.
"$SWEEP" -protocols ccr-edf -nodes 16 -loads 0.2 -slots 10000 \
  -churn "$CHURN" -csv "$TMP/sweep.csv" >/dev/null
head -1 "$TMP/sweep.csv" | grep -q 'admitted_hard,admitted_firm,admitted_be,evicted_hard,evicted_firm,evicted_be,missed_hard,missed_firm,missed_be'
csv_row_ok "$TMP/sweep.csv" 'col("admitted_hard")+0 > 0 && col("evicted_hard") == "0" &&
  col("evicted_firm")+col("evicted_be") > 0 && col("missed_hard") == "0" &&
  col("error") == ""'

echo "churn-smoke: ok"
