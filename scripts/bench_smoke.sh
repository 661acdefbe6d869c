#!/usr/bin/env bash
# Bench smoke: run every bench binary at one tiny sweep point (BENCH_SMOKE=1),
# validate each emitted BENCH_<name>.json against the pravega-bench/v1
# schema and its bench's gates (validate_bench_json.py), check the
# determinism contract (same-seed reruns of bench_micro_core, with its obs::
# registry dump, and of fig13's fleet sweep are byte-identical), and gate the
# engine's copy budget and events/s against the committed baseline.
#
# Usage: bench_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BENCH_DIR="${BUILD_DIR}/bench"
[[ -d "${BENCH_DIR}" ]] || { echo "no bench dir at ${BENCH_DIR}" >&2; exit 1; }

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

ran=0
for bin in "${BENCH_DIR}"/bench_*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  name="$(basename "${bin}")"
  echo "== smoke: ${name} =="
  # BENCH_CHAOS=1 also exercises the optional chaos+detection sections
  # (fig5c/fig8c) and the detection JSON schema path in every bench.
  BENCH_SMOKE=1 BENCH_CHAOS=1 BENCH_OUT_DIR="${OUT_DIR}" "${bin}" > "${OUT_DIR}/${name}.out" 2>&1 \
    || { echo "${name} FAILED:" >&2; tail -30 "${OUT_DIR}/${name}.out" >&2; exit 1; }
  ran=$((ran + 1))
done
[[ "${ran}" -gt 0 ]] || { echo "no bench binaries found in ${BENCH_DIR}" >&2; exit 1; }

echo "== validate JSON + per-bench gates (${ran} binaries) =="
json_count="$(ls "${OUT_DIR}"/BENCH_*.json 2>/dev/null | wc -l)"
if [[ "${json_count}" -ne "${ran}" ]]; then
  echo "expected ${ran} BENCH_*.json files, found ${json_count}" >&2
  ls "${OUT_DIR}" >&2
  exit 1
fi
python3 scripts/validate_bench_json.py "${OUT_DIR}"/BENCH_*.json

# check_rerun NAME REF_DIR ENV...: reruns bench_NAME with ENV and requires
# its stdout+stderr and BENCH_NAME.json to equal REF_DIR's bench_NAME.out and
# BENCH_NAME.json once bench_scrub.py has masked the run-to-run parts (the
# path-bearing "# wrote" line and the wall-clock events_per_sec value;
# everything else derives from virtual time). Compares masked copies, so the
# perf gate below still reads the reference's unmasked JSON.
check_rerun() {
  local name="$1" ref="$2"
  shift 2
  local dir="${OUT_DIR}/rerun-${name}"
  mkdir -p "${dir}/ref" "${dir}/new"
  env "$@" BENCH_OUT_DIR="${dir}/new" "${BENCH_DIR}/bench_${name}" > "${dir}/new/bench_${name}.out" 2>&1
  cp "${ref}/bench_${name}.out" "${ref}/BENCH_${name}.json" "${dir}/ref/"
  python3 scripts/bench_scrub.py "${dir}"/ref/* "${dir}"/new/*
  diff "${dir}/ref/BENCH_${name}.json" "${dir}/new/BENCH_${name}.json" \
    || { echo "BENCH_${name}.json differs between same-seed runs" >&2; exit 1; }
  diff "${dir}/ref/bench_${name}.out" "${dir}/new/bench_${name}.out" \
    || { echo "bench_${name} output differs between same-seed runs" >&2; exit 1; }
  echo "${name} determinism OK: JSON and output byte-identical across runs"
}

echo "== determinism: bench_micro_core twice, byte-identical output =="
DET_A="${OUT_DIR}/det-a"
mkdir -p "${DET_A}"
BENCH_SMOKE=1 BENCH_DUMP_METRICS=1 BENCH_OUT_DIR="${DET_A}" \
  "${BENCH_DIR}/bench_micro_core" > "${DET_A}/bench_micro_core.out" 2>&1
check_rerun micro_core "${DET_A}" BENCH_SMOKE=1 BENCH_DUMP_METRICS=1

echo "== determinism: fig13 fleet sweep rerun, byte-identical output =="
# The fleet workload's contract: same seed → byte-identical counts, key
# checksums, rebalance trajectory, and JSON — compare a fresh run against
# the main-loop run above (same env: BENCH_CHAOS was set there too).
check_rerun fig13_autoscaling "${OUT_DIR}" BENCH_SMOKE=1 BENCH_CHAOS=1

echo "== perf gate: engine events/sec vs committed baseline =="
# The copy budget is deterministic and always enforced. The events/sec floor
# is wall-clock and only meaningful on an unsanitized build on the reference
# container; BENCH_PERF_GATE=0 skips it (scripts/check.sh sets this for the
# ASan/UBSan/tsan suites, where the engine legitimately runs 3-8x slower).
python3 - "${DET_A}/BENCH_micro_core.json" bench/baselines/BENCH_micro_core_baseline.json \
  "${BENCH_PERF_GATE:-1}" <<'PY'
import json, sys

cur = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
gate_rate = sys.argv[3] != "0"
row = next(r for r in cur["rows"] if r["series"] == "engine")
copied = row["values"]["bytes_copied_per_event"]
want = base["values"]["bytes_copied_per_event"]
assert copied == want, (
    f"copy budget changed: {copied} bytes copied per event, baseline {want} "
    f"(exactly one client-side payload copy plus the reader-side fetch/hand-out)")
if gate_rate:
    got = row["values"]["events_per_sec"]
    floor = base["values"]["events_per_sec"] * base["gate_fraction"]
    assert got >= floor, (
        f"DES engine regressed: {got:,.0f} events/s < gate {floor:,.0f} "
        f"({base['gate_fraction']:.0%} of committed baseline "
        f"{base['values']['events_per_sec']:,.0f}); set BENCH_PERF_GATE=0 to bypass")
    print(f"perf gate OK: {got:,.0f} events/s >= {floor:,.0f}; "
          f"copy budget {copied} B/event unchanged")
else:
    print(f"perf gate: rate floor SKIPPED (BENCH_PERF_GATE=0); "
          f"copy budget {copied} B/event unchanged")
PY

echo "bench smoke OK (${ran} binaries, JSON valid, deterministic, perf-gated)"
