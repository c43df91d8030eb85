#!/usr/bin/env bash
# Bench-identity gate: re-run every extension bench at the config recorded
# in its committed BENCH_*.json and require every non-timing field of every
# cell to match. The goldens only cover default configs; this pins the
# packing, DAG, tenancy, federation, power and elasticity paths at the
# configs their artifacts were produced with. Timing fields (`*wall*`,
# `*per_sec`) are host measurements and are skipped.
#
# Usage: scripts/bench_identity.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

if ! command -v python3 >/dev/null 2>&1; then
  echo "python3 not found; cannot compare bench artifacts" >&2
  exit 1
fi

# Recorded config key -> bench flag. Every key of a committed config must
# map to a flag, so a new config key cannot be silently ignored.
flags_for() {
  python3 - "$1" <<'EOF'
import json, sys

FLAGS = {
    "nodes": "nodes", "jobs": "jobs", "load": "load", "seed": "seed",
    "runs": "runs", "audit": "audit",
    "frag_weight": "frag-weight", "gang_hold_s": "gang-hold",
    "malleable_min_frac": "malleable-min-frac",
    "dag_fraction": "dag-fraction",
    "slo_target_s": "slo",
    "park_idle_after_s": "power-park-idle",
    "min_active_fraction": "power-min-active",
    "target_wait_s": "power-target-wait",
    "wake_wait_factor": "power-wake-factor",
    "parked_supply_weight": "power-parked-weight",
    "sla_mix": "sla-mix",
    "reserve": "reserve", "transient": "transient",
    "warmup_delay_s": "warmup", "drain_grace_s": "drain-grace",
    "reclaim_grace_s": "reclaim-grace",
}
with open(sys.argv[1]) as f:
    config = json.load(f)["config"]
args = []
for key, value in config.items():
    if key not in FLAGS:
        sys.exit(f"{sys.argv[1]}: config key '{key}' has no flag mapping")
    if isinstance(value, bool):
        value = "true" if value else "false"
    args.append(f"--{FLAGS[key]}={value}")
print(" ".join(args))
EOF
}

failed=0
for name in packing dag tenancy federation energy elasticity; do
  baseline="BENCH_${name}.json"
  current="$OUT_DIR/${name}.json"
  arg_line="$(flags_for "$baseline")"
  read -r -a args <<<"$arg_line"
  "$BUILD_DIR/bench/bench_ext_${name}" "${args[@]}" --json="$current" \
    >/dev/null
  if ! python3 - "$baseline" "$current" <<'EOF'
import json, sys

def timing(key):
    return "wall" in key or key.endswith("per_sec")

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    cur = json.load(f)
errors = []
if base["config"] != cur["config"]:
    errors.append(f"config {base['config']} -> {cur['config']}")
if len(base["cells"]) != len(cur["cells"]):
    errors.append(f"{len(base['cells'])} cells -> {len(cur['cells'])}")
for i, (b, c) in enumerate(zip(base["cells"], cur["cells"])):
    for key in sorted(set(b) | set(c)):
        if timing(key):
            continue
        if b.get(key) != c.get(key):
            errors.append(f"cell {i} {key}: {b.get(key)} -> {c.get(key)}")
for e in errors[:20]:
    print(f"FAIL {sys.argv[1]}: {e}")
if errors:
    sys.exit(1)
print(f"ok   {sys.argv[1]}: {len(cur['cells'])} cells identical")
EOF
  then
    failed=1
  fi
done

if [ "$failed" -ne 0 ]; then
  echo "bench identity FAILED: a committed BENCH_*.json no longer reproduces"
  exit 1
fi
echo "bench identity ok"
