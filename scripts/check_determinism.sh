#!/usr/bin/env bash
# Determinism verifier. Runs representative benches twice — a lossless
# MPI latency sweep, the fault-injection suite (fixed seed, so the
# drop schedule is part of the contract), and the multi-switch incast
# sweep (64 endpoints over a 2-level Clos, so LFT routing and per-port
# queues are part of the fingerprint) — and requires the two runs to
# be byte-identical: same report JSON, and in particular the same
# sim.digest (the engine's FNV-1a fold over every (time, seq) event it
# dispatched) for every cluster the benches fingerprinted.
#
# Cross-build mode: with a second build directory (say, a build of the
# parent commit), round 1 runs the baseline's benches and round 2 the
# candidate's, so the same diff proves a refactor left every report and
# every digest byte-identical to the code it replaced.
#
# Usage: scripts/check_determinism.sh [build-dir] [baseline-build-dir]
#        (paths relative to the repository root; default build-dir: build;
#        the baseline must already be built)
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
baseline="${2:-}"
if [[ ! -d "$build/bench" ]]; then
  cmake -B "$build" -G Ninja
  cmake --build "$build"
fi
if [[ -n "$baseline" && ! -d "$baseline/bench" ]]; then
  echo "baseline build directory $baseline has no bench/ (build it first)" >&2
  exit 2
fi
build="$(cd "$build" && pwd)"
round1="$build"
mismatch="NON-DETERMINISTIC"
if [[ -n "$baseline" ]]; then
  mismatch="CHANGED FROM BASELINE"
  round1="$(cd "$baseline" && pwd)"
  echo "cross-build: round 1 = $round1, round 2 = $build"
fi

# ext_chaos additionally self-checks: one invocation runs its probe
# scenario three times from the same seed and exits non-zero unless all
# three sim.digests are identical, so chaos failover (LFT reroute,
# drain/requeue, retry exhaustion) is part of the determinism contract.
benches=(fig3_mpi_latency ext_faults ext_incast ext_chaos)
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

for round in 1 2; do
  dir="$build"
  [[ "$round" == 1 ]] && dir="$round1"
  mkdir -p "$scratch/run$round/results"
  for bench in "${benches[@]}"; do
    echo "== round $round: $bench =="
    (cd "$scratch/run$round" && "$dir/bench/$bench" quick >/dev/null)
  done
done

# Benches may name their quick-mode report "<bench>_quick" to keep it
# distinct from the full sweep's artifacts.
report_of() {
  if [[ -f "$scratch/run1/results/$1.json" ]]; then echo "$1"; else echo "$1_quick"; fi
}

status=0
for bench in "${benches[@]}"; do
  report="$(report_of "$bench")"
  for ext in json csv; do
    a="$scratch/run1/results/$report.$ext"
    b="$scratch/run2/results/$report.$ext"
    if ! diff -q "$a" "$b" >/dev/null; then
      echo "$mismatch: $bench.$ext differs between round 1 and round 2" >&2
      diff "$a" "$b" | head -20 >&2 || true
      status=1
    fi
  done
  digests=$(python3 - "$scratch/run1/results/$report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print(sum(1 for k in doc.get("metrics", {}) if k.endswith("sim.digest")))
EOF
)
  if [[ "$digests" -lt 1 ]]; then
    echo "MISSING: $bench.json carries no sim.digest metric" >&2
    status=1
  else
    echo "$bench: $digests digest(s) identical across rounds"
  fi
done

if [[ "$status" == 0 ]]; then
  echo "determinism: OK"
fi
exit "$status"
