#!/usr/bin/env bash
# Record the multi-core shard-scaling numbers ROADMAP item 1 asks for.
#
# The committed BENCH_pipeline.json was measured on a 1-hardware-thread
# runner, where the 2-shard gateway can only demonstrate correctness (the
# order-preserving merge), not speedup, and the 4-shard pass is skipped
# outright. On a machine with >= 4 hardware threads this script runs the
# ingest bench at shards {1, 2, 4} (the 1/2/4-shard passes of
# bench_net_ingest, 4-shard enabled automatically by the core count),
# prints the scaling table, and leaves a JSON trajectory to fold into
# BENCH_pipeline.json.
#
#   scripts/record_shard_scaling.sh [--repeat N] [--out FILE]
#
# After reviewing the numbers, refresh the committed baseline by replacing
# the net_* entries in BENCH_pipeline.json with the ones from --out (and
# update hw_threads at the top of the file to match the machine that
# produced them).
set -euo pipefail

cd "$(dirname "$0")/.."

REPEAT=5
OUT="build/BENCH_shard_scaling.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --repeat) REPEAT="$2"; shift 2 ;;
    --repeat=*) REPEAT="${1#--repeat=}"; shift ;;
    --out) OUT="$2"; shift 2 ;;
    --out=*) OUT="${1#--out=}"; shift ;;
    *) echo "usage: $0 [--repeat N] [--out FILE]" >&2; exit 2 ;;
  esac
done

CORES="$(nproc)"
if [[ "$CORES" -lt 4 ]]; then
  echo "record_shard_scaling: this box has $CORES hardware thread(s);" >&2
  echo "the scaling curve needs >= 4. Run this script on a multi-core" >&2
  echo "machine; bench_net_ingest runs its 4-shard pass only there." >&2
  exit 1
fi

cmake -S . -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNETFAIL_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)" --target bench_net_ingest

./build/bench/bench_net_ingest --json="$OUT" --repeat="$REPEAT" \
  --benchmark_filter='^$'

echo
echo "Trajectory written to $OUT — fold the net_* entries (and the"
echo "hw_threads header) into BENCH_pipeline.json to refresh the baseline."
