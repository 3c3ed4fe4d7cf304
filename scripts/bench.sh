#!/usr/bin/env bash
# Runs the criterion kernel benches with a pinned noise seed and emits
# BENCH_<n>.json — one "median ns/iter" entry per bench label, plus
# each label's [min, max] and the host's core count — so the kernel
# trajectory across PRs is machine-readable. End-to-end serving
# numbers (releases, ε-sweeps, dataset derivation, the store) come
# from the perfbench package (BENCHMARK.json), not from this script.
#
# Usage:
#   PR=<n> scripts/bench.sh       # run benches, write BENCH_<n>.json
#   scripts/bench.sh --smoke      # CI mode: lint, compile benches, run
#                                 # a tiny wire curve, write nothing
#   REPS=5 PR=<n> scripts/bench.sh  # more release_hot_path repetitions
#
# The cheap release_hot_path bench runs REPS times (median per label);
# the micro suite (isotonic, matching, EMD, noise, the Hc and Hg
# kernels `hc_stage/fused` and `hg_stage/fused`, the dataset digest
# `fingerprint/dataset_housing`, the engine's cache hit) and the
# wire-path curve
# (`wire_path/sweep100/framed`, `wire_path/submit_*/c{1,64,1000}`) run
# once. HCC_SEED pins the RNG stream the release_hot_path bench draws
# from (default 0). How the engine scales across workers is checked by
# the tier-1 `scaling_smoke` test, not recorded here.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
elif [[ -n "${1:-}" || ! "${PR:-}" =~ ^[0-9]+$ ]]; then
  echo "usage: PR=<n> scripts/bench.sh    (writes BENCH_<n>.json)" >&2
  echo "       scripts/bench.sh --smoke   (lint + compile + tiny wire curve, writes nothing)" >&2
  exit 2
fi

export HCC_SEED="${HCC_SEED:-0}"
REPS="${REPS:-3}"

# A scoreboard entry from a tree that violates the workspace
# invariants (docs/lints.md) would pin a number nobody should trust;
# refuse to emit one. Smoke mode runs the same gate so CI fails fast.
cargo run --release -q -p hcc-lint -- --deny all

if (( SMOKE )); then
  cargo bench -p hcc-bench --no-run
  # Tiny wire curve: reactor + framed protocol end-to-end over
  # loopback, without the full 1000-connection measurement.
  HCC_WIRE_SWEEP=8 HCC_WIRE_CONNS=1,8 HCC_WIRE_OPS=2 \
    cargo run --release -q -p hcc-bench --bin engine_wire
  echo "bench smoke OK (benches compile; wire curve ran)"
  exit 0
fi

OUT="BENCH_${PR}.json"
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

for _ in $(seq "$REPS"); do
  cargo bench -p hcc-bench --bench release_hot_path | tee -a "$RAW"
done
cargo bench -p hcc-bench --bench micro | tee -a "$RAW"
cargo run --release -q -p hcc-bench --bin engine_wire | tee -a "$RAW"

python3 - "$RAW" "$OUT" "$HCC_SEED" "$REPS" "$(nproc)" <<'EOF'
import json
import re
import statistics
import sys

samples = {}
with open(sys.argv[1]) as fh:
    for line in fh:
        m = re.match(r"^(\S+)\s+(\d+)\s+ns/iter\s*$", line)
        if m:
            samples.setdefault(m.group(1), []).append(int(m.group(2)))
if not samples:
    sys.exit("no bench output parsed — did the harness format change?")
doc = {
    "nproc": int(sys.argv[5]),
    "seed": int(sys.argv[3]),
    "reps_release_hot_path": int(sys.argv[4]),
    "unit": "ns/iter",
    "stat": "median",
    "benches": {k: int(statistics.median(v)) for k, v in sorted(samples.items())},
    # Spread per label over its runs; `benches` stays median-only so
    # earlier BENCH files remain comparable.
    "range": {k: [min(v), max(v)] for k, v in sorted(samples.items())},
}
with open(sys.argv[2], "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
print(f"wrote {sys.argv[2]} with {len(doc['benches'])} benches")
EOF
