#!/usr/bin/env bash
# Benchmark-identity gate: builds the repository benchmark (perfbench/) from
# source, runs its in-process selftest, and requires the fingerprint line of
# every simulation cell (drained, events, tasks, makespan, short-job p90,
# per-job digest) of one short run of each workload at seed 1 to match the
# committed tests/golden/perfbench_fingerprints.txt. perfbench compiles
# straight from src/ and reaches into SchedulerBase, so this also keeps the
# benchmark building. A change that means to alter a schedule regenerates
# the golden from the lines this script prints on a mismatch, and says so.
#
# Usage: scripts/perfbench_identity.sh [build-dir]   (default: .bench_build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-.bench_build}"
GOLDEN="tests/golden/perfbench_fingerprints.txt"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

cmake -S perfbench -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" >/dev/null
BIN="$BUILD_DIR/perfbench"

# Budgeted drain loop == runner::RunSimulation, perturbation detection.
"$BIN" --workload=modules1k --seed=1 --selftest | grep '^selftest'

for workload in paper15k modules1k fabric1k; do
  "$BIN" --workload="$workload" --seed=1 --seconds=0 --min-rounds=1 |
    sed -n "s/^fingerprint: /$workload /p" >> "$OUT"
done

if ! diff -u "$GOLDEN" "$OUT"; then
  echo "perfbench fingerprints differ from $GOLDEN" >&2
  exit 1
fi
echo "perfbench identity ok: $(wc -l < "$OUT") cells match $GOLDEN"
