#!/usr/bin/env bash
# Repo health check: configure, build, run the full test suite, then smoke
# the observability stack (audited bench run + Chrome trace validity),
# elastic churn, multi-tenant preemption, network chaos, multi-shard
# gossip, the power subsystem (audited diurnal energy run), packed
# gang/malleable chaos, and DAG/deadline scheduling (audited chaos run +
# golden-diff byte-identity with the gates off), then the repository
# benchmark's fingerprints and the core-throughput perf smoke.
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== audited bench smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$BUILD_DIR/bench/bench_fig7_phoenix_vs_eagle_short" \
  --nodes=60 --jobs=1200 --runs=1 --audit \
  --trace-out="$SMOKE_DIR/trace.json" \
  --timeseries="$SMOKE_DIR/hb.tsv" >/dev/null

if command -v python3 >/dev/null 2>&1; then
  # The sweep runs many cells; each writes its own trace.<cell>.json.
  python3 - "$SMOKE_DIR" <<'EOF'
import glob, json, os, sys
paths = sorted(glob.glob(os.path.join(sys.argv[1], "trace.*.json")))
assert paths, "no per-cell chrome traces"
total = 0
for path in paths:
    with open(path) as f:
        records = json.load(f)
    assert isinstance(records, list) and records, f"empty chrome trace {path}"
    assert any(r.get("ph") == "X" for r in records), f"no task slices {path}"
    total += len(records)
print(f"chrome traces ok: {len(paths)} cells, {total} records")
EOF
else
  echo "python3 not found; skipped chrome trace JSON validation"
fi

echo "== elastic suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L elastic -j "$JOBS"

echo "== audited churn smoke =="
# Elastic lifecycle under load: reactive scale-up/down plus heavy transient
# reclamation (5-minute mean lease lifetime) with the invariant auditor on.
# The auditor aborts the run on any lost job, any binding to a non-active
# machine, or any capacity leak — so exiting 0 is the assertion.
"$BUILD_DIR/bench/bench_ext_elasticity" \
  --nodes=48 --jobs=1200 --runs=1 --audit \
  --json="$SMOKE_DIR/elasticity.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/elasticity.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert any(c["reclamations"] > 0 for c in cells), "reclamation never engaged"
print(f"churn smoke ok: {len(cells)} audited cells, reclamation engaged")
EOF
else
  echo "churn smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== tenancy suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L tenancy -j "$JOBS"

echo "== audited preemption smoke =="
# Multi-tenant sweep with the invariant auditor on: every preemption issue
# must pair with its requeue (none may outlive the run), quota-charge
# fractions must stay in [0, 1], and every job — preempted, downgraded, or
# rejected to scavenger class — must still complete.
"$BUILD_DIR/bench/bench_ext_tenancy" \
  --nodes=48 --jobs=1000 --runs=1 --audit \
  --json="$SMOKE_DIR/tenancy.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/tenancy.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert all(c["preemptions_issued"] == c["preemption_requeues"]
           for c in cells), "preemption conservation broken"
assert any(c["preemption"] and c["preemptions_issued"] > 0
           for c in cells), "preemption never engaged"
print(f"preemption smoke ok: {len(cells)} audited cells, issue==requeue")
EOF
else
  echo "preemption smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== audited chaos smoke =="
# Lossy control plane with retries on: the auditor enforces message
# conservation (every send is delivered, dropped, or expired) and the run
# must still complete every job.
"$BUILD_DIR/bench/bench_fig7_phoenix_vs_eagle_short" \
  --nodes=60 --jobs=1200 --runs=1 --audit \
  --net-model=lognormal --net-drop=0.05 --rpc-retries=4 >/dev/null
echo "chaos smoke ok: 5% drop, retries on, auditor clean"

echo "== federation suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L federation -j "$JOBS"

echo "== audited multi-shard chaos smoke =="
# Sharded control plane under a lossy, duplicating, reordering fabric: the
# auditor enforces fed-bind conservation (every optimistic cross-shard bind
# closes in exactly one accept or reject), accepts only on active machines,
# and gossip version monotonicity — exiting 0 with gossip traffic present
# is the assertion that stale views degraded placement, never correctness.
"$BUILD_DIR/bench/bench_ext_federation" \
  --nodes=48 --jobs=1000 --runs=1 \
  --json="$SMOKE_DIR/federation.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/federation.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert doc["config"]["audit"] is True, "federation smoke must run audited"
sharded = [c for c in cells if c["shards"] > 1]
assert sharded, "no multi-shard cells"
assert any(c["fed_gossip_applied"] > 0 for c in sharded), "gossip never landed"
assert any(c["chaos"] and c["fed_gossip_stale_dropped"] > 0
           for c in sharded), "version ordering never engaged under chaos"
spans = {c["shards"]: c["heartbeat_span"] for c in cells}
assert all(spans[s] < spans[1] for s in spans if s > 1), \
    "sharding did not shrink the heartbeat scan bound"
print(f"federation smoke ok: {len(sharded)} audited multi-shard cells, "
      "gossip + version ordering engaged, scan bound shrinks")
EOF
else
  echo "federation smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== power suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L power -j "$JOBS"

echo "== audited energy smoke =="
# Diurnal load with deep park + DVFS and the invariant auditor on: the
# auditor enforces power-transition legality (no binding to a parked
# machine, no DVFS while asleep, no double park/wake) and re-integrates
# the kPowerState stream against the meter total (energy conservation) —
# it aborts the run on any violation, so exiting 0 IS the
# violations == 0 assertion. The JSON then proves the policies engaged.
"$BUILD_DIR/bench/bench_ext_energy" \
  --nodes=48 --jobs=600 --runs=1 --audit \
  --json="$SMOKE_DIR/energy.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/energy.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert all(c["joules"] > 0 for c in cells), "a cell metered zero joules"
parked = [c for c in cells if c["policy"] in ("park", "all")]
assert parked, "no park-policy cells"
assert any(c["parks"] > 0 and c["sleep_fraction"] > 0 for c in parked), \
    "deep park never engaged"
meter = {(c["scheduler"], c["shape"]): c["joules"]
         for c in cells if c["policy"] == "meter"}
assert any(c["joules"] < meter[(c["scheduler"], c["shape"])]
           for c in parked), "parking saved no energy vs always-on"
print(f"energy smoke ok: {len(cells)} audited cells, joules metered, "
      "parks engaged, park < meter")
EOF
else
  echo "energy smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== packing suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L packing -j "$JOBS"

echo "== audited packed chaos smoke =="
# Gang + malleable mixes on a lossy, reordering fabric with the invariant
# auditor on: per-machine claims minus releases must return to exactly zero
# (capacity conservation) and every gang reservation round must close in
# exactly one commit or abort (gang atomicity) — the runner aborts on any
# violation, so exiting 0 is the assertion. The JSON then proves the
# subsystem engaged: packed co-location, gang commits, malleable width
# churn.
"$BUILD_DIR/bench/bench_ext_packing" \
  --nodes=32 --jobs=600 --runs=1 --audit \
  --net-model=lognormal --net-drop=0.02 --rpc-retries=4 \
  --json="$SMOKE_DIR/packing.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/packing.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert doc["config"]["audit"] is True, "packing smoke must run audited"
assert all(0 < c["packing_efficiency"] <= 1 for c in cells), \
    "packing efficiency outside (0, 1]"
assert all(c["packed_tasks"] > 0 for c in cells), "a cell never packed"
gangs = [c for c in cells if c["mix"] in ("gang", "mixed")]
assert gangs and any(c["gang_commits"] > 0 for c in gangs), \
    "gang commits never engaged"
malleable = [c for c in cells if c["mix"] in ("malleable", "mixed")]
assert malleable and any(
    c["malleable_expands"] + c["malleable_shrinks"] > 0
    for c in malleable), "malleable width never moved"
print(f"packed chaos smoke ok: {len(cells)} audited cells, "
      "ledger balanced, gangs committed, widths moved")
EOF
else
  echo "packed chaos smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== dag suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L dag -j "$JOBS"

echo "== audited dag chaos smoke =="
# DAG shapes crossed with deadline scheduling on a lossy fabric with the
# invariant auditor on: no task may start before its predecessors finish
# (precedence) and every DAG job must release exactly its task count — the
# runner aborts on any violation, so exiting 0 is the assertion. The JSON
# then proves the subsystem engaged: DAG jobs released tasks in waves and
# the EDF tie-break promoted earlier deadlines.
"$BUILD_DIR/bench/bench_ext_dag" \
  --nodes=32 --jobs=600 --runs=1 --audit \
  --net-model=lognormal --net-drop=0.02 --rpc-retries=4 \
  --json="$SMOKE_DIR/dag.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/dag.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc["cells"]
assert cells, "no bench cells"
assert doc["config"]["audit"] is True, "dag smoke must run audited"
dag = [c for c in cells if c["dag_shape"] != "flat"]
assert dag and all(c["dag_jobs"] > 0 for c in dag), "DAG jobs never engaged"
assert all(c["dag_tasks_released"] >= c["dag_jobs"] for c in dag), \
    "released fewer tasks than DAG jobs"
edf = [c for c in cells if c["deadline"]]
assert edf and all(c["deadline_jobs"] > 0 for c in edf), \
    "deadline tracking never engaged"
assert any(c["deadline_promotions"] > 0 for c in edf), \
    "EDF tie-break never promoted"
assert all(0 <= c[k] <= 1 for c in edf
           for k in ("attain_prod", "attain_batch", "attain_best_effort")), \
    "attainment outside [0, 1]"
off = [c for c in cells if not c["deadline"]]
assert all(c["deadline_jobs"] == 0 and c["deadline_promotions"] == 0
           for c in off), "deadline counters moved with the gate off"
print(f"dag chaos smoke ok: {len(dag)} audited DAG cells, precedence clean, "
      "deadlines tracked, EDF promoted")
EOF
else
  echo "dag chaos smoke ok (python3 not found; skipped JSON validation)"
fi

echo "== golden-diff guard =="
# Packing off must stay byte-identical to the committed pre-packing
# outputs: the figure benches never mention packing or DAGs, so any drift
# here means a disabled subsystem perturbed the scheduler (an RNG draw, an
# iteration-order change, a stray counter) — exactly the layering bug the
# guard exists to catch. This is also the `--dag`/`--deadline`-off
# byte-identity assertion: these benches run with both gates off.
"$BUILD_DIR/bench/bench_fig7_phoenix_vs_eagle_short" \
  --nodes=60 --jobs=1200 --runs=1 > "$SMOKE_DIR/fig7.txt" 2>&1
"$BUILD_DIR/bench/bench_fig10_phoenix_vs_hawk" \
  --nodes=60 --jobs=1200 --runs=1 > "$SMOKE_DIR/fig10.txt" 2>&1
"$BUILD_DIR/bench/bench_ext_affinity_failures" \
  --nodes=60 --jobs=1200 --runs=1 > "$SMOKE_DIR/ext_affinity.txt" 2>&1
diff "$SMOKE_DIR/fig7.txt" tests/golden/fig7_nodes60_jobs1200.txt
diff "$SMOKE_DIR/fig10.txt" tests/golden/fig10_nodes60_jobs1200.txt
diff "$SMOKE_DIR/ext_affinity.txt" tests/golden/ext_affinity_nodes60_jobs1200.txt
echo "golden-diff guard ok: fig7/fig10/ext_affinity byte-identical"

echo "== benchmark identity =="
# The repository benchmark builds from src/, passes its selftest, and
# reproduces the committed per-cell fingerprints of every workload.
scripts/perfbench_identity.sh

echo "== perf smoke =="
# Core-throughput gate: event counts must match the committed baseline
# exactly (determinism), events/sec within 25% (algorithmic regressions).
scripts/perf_smoke.sh "$BUILD_DIR"

echo "== all checks passed =="
