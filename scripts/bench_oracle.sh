#!/usr/bin/env bash
# Behaviour oracle for refactors: runs every bench binary of two builds at
# the smoke sweep point with the chaos sections on (BENCH_SMOKE=1
# BENCH_CHAOS=1), scrubs the run-to-run variable parts of the output with
# bench_scrub.py (the "# wrote" path line and the wall-clock
# events_per_sec value), and diffs each BENCH_*.json and each stdout.
# Exits 0 only when the two builds produce the same files with the same
# contents, i.e. the change did not alter any modelled result.
#
# Usage: bench_oracle.sh PARENT_BUILD CHANGE_BUILD   (cmake build dirs)
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -eq 2 ]] || { echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2; exit 2; }
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

run_all() {
  local build="$1" out="$2"
  [[ -d "${build}/bench" ]] || { echo "no bench dir at ${build}/bench" >&2; exit 1; }
  mkdir -p "${out}"
  for bin in "${build}"/bench/bench_*; do
    [[ -f "${bin}" && -x "${bin}" ]] || continue
    local name
    name="$(basename "${bin}")"
    BENCH_SMOKE=1 BENCH_CHAOS=1 BENCH_OUT_DIR="${out}" "${bin}" > "${out}/${name}.out" 2>&1 \
      || { echo "${name} FAILED in ${build}:" >&2; tail -30 "${out}/${name}.out" >&2; exit 1; }
  done
  python3 scripts/bench_scrub.py "${out}"/*
}

echo "== running benches: ${1} =="
run_all "$1" "${OUT_DIR}/parent"
echo "== running benches: ${2} =="
run_all "$2" "${OUT_DIR}/change"

diffs=0
binaries=0
for f in $( (cd "${OUT_DIR}/parent" && ls; cd "${OUT_DIR}/change" && ls) | sort -u); do
  [[ "${f}" == *.out ]] && binaries=$((binaries + 1))
  if [[ ! -f "${OUT_DIR}/parent/${f}" || ! -f "${OUT_DIR}/change/${f}" ]]; then
    echo "DIFF ${f}: present in only one build"
    diffs=$((diffs + 1))
  elif ! diff -q "${OUT_DIR}/parent/${f}" "${OUT_DIR}/change/${f}" > /dev/null; then
    echo "DIFF ${f}:"
    diff "${OUT_DIR}/parent/${f}" "${OUT_DIR}/change/${f}" | head -20 || true
    diffs=$((diffs + 1))
  else
    echo "same ${f}"
  fi
done
echo "bench oracle: ${binaries} bench binaries, ${diffs} differing files"
[[ "${diffs}" -eq 0 ]]
