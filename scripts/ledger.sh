#!/usr/bin/env bash
# Writes the benchmark ledger for one change: the last-line JSON object
# of each of the benchmark's three workloads, run untraced and traced,
# into BENCH_<N>.json at the repository root:
#
#   bash scripts/ledger.sh 23        # writes BENCH_23.json
#
# Each run is `bash perfbench/run.sh --workload W --seed 1996 --seconds 30
# --trace T` for W in serve-single, serve-bulk, lib-exact and T in 0, 1.
# The file is shaped {"<workload>": {"trace0": {...}, "trace1": {...}}}.
# The script exits non-zero, writing nothing, unless every run reports
# "correct":true and "failed":0.  The six runs take about four minutes
# on a 2-vCPU VM.  Needs jq.  Run it from the repository root.
set -euo pipefail

[ $# -eq 1 ] && [ -n "$1" ] || { echo "usage: bash scripts/ledger.sh N" >&2; exit 2; }
out="BENCH_$1.json"
ledger='{}'
for workload in serve-single serve-bulk lib-exact; do
  for trace in 0 1; do
    echo "ledger: $workload --trace $trace" >&2
    line="$(bash perfbench/run.sh --workload "$workload" --seed 1996 --seconds 30 --trace "$trace" | tail -n 1)"
    if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null; then
      echo "ledger: $workload --trace $trace did not pass: $line" >&2
      exit 1
    fi
    ledger="$(jq --arg w "$workload" --arg t "trace$trace" --argjson run "$line" \
      '.[$w][$t] = $run' <<<"$ledger")"
  done
done
jq . <<<"$ledger" >"$out"
echo "ledger: wrote $out" >&2
