#!/usr/bin/env bash
# Bench smoke: run every bench binary at one tiny sweep point (BENCH_SMOKE=1),
# validate each emitted BENCH_<name>.json against the pravega-bench/v1
# schema, and check the metrics determinism contract (two same-seed runs of
# bench_micro_core produce byte-identical JSON and obs:: registry dumps).
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

echo "== validate JSON (${ran} binaries) =="
json_count="$(ls "${OUT_DIR}"/BENCH_*.json 2>/dev/null | wc -l)"
if [[ "${json_count}" -ne "${ran}" ]]; then
  echo "expected ${ran} BENCH_*.json files, found ${json_count}" >&2
  ls "${OUT_DIR}" >&2
  exit 1
fi
python3 scripts/validate_bench_json.py "${OUT_DIR}"/BENCH_*.json

echo "== fig12 readahead ablation: on/off rows + read-pipeline metrics =="
python3 - "${OUT_DIR}/BENCH_fig12_historical_reads.json" <<'PY'
import json, sys

d = json.load(open(sys.argv[1]))
rows = d["rows"]
flags = {r["values"]["readahead"] for r in rows if "readahead" in r["values"]}
assert flags >= {0, 1}, f"expected readahead on AND off rows, got {flags}"
on = next(r for r in rows if r["series"] == "pravega-single[readahead=on]")
off = next(r for r in rows if r["series"] == "pravega-single[readahead=off]")
for key in ("store.read.coalesced", "store.read.lts_fetches",
            "store.prefetch.issued", "store.prefetch.hits",
            "store.prefetch.wasted_bytes"):
    assert key in on["metrics"], f"missing metric {key} in readahead=on row"
assert on["metrics"]["store.prefetch.issued"] > 0, "readahead=on issued no prefetches"
assert off["metrics"]["store.prefetch.issued"] == 0, "readahead=off issued prefetches"
print(f'fig12 ablation OK: single-reader catch-up '
      f'on={on["values"]["catchup_mbps"]:.1f} MB/s '
      f'off={off["values"]["catchup_mbps"]:.1f} MB/s, '
      f'prefetch.issued={on["metrics"]["store.prefetch.issued"]}')
PY

echo "== fig12 archive sweep: codec ratio, checksum cleanliness, tape latency =="
python3 - "${OUT_DIR}/BENCH_fig12_historical_reads.json" <<'PY'
import json, sys

d = json.load(open(sys.argv[1]))
rows = d["rows"]
on = next(r for r in rows if r["series"] == "pravega-archive[archive=on]")
off = next(r for r in rows if r["series"] == "pravega-archive[archive=off]")

# Same seed, same writes: the archive tier must never change the bytes the
# reader sees, only where they come from and how long the first byte takes.
crc_on, crc_off = on["values"]["payload_crc32"], off["values"]["payload_crc32"]
assert crc_on == crc_off != 0, f"payload CRC diverged: on={crc_on} off={crc_off}"
assert on["values"]["crc_events"] == off["values"]["crc_events"] > 0

for row in (on, off):
    name = row["series"]
    assert row["values"]["compression_ratio"] > 1, \
        f'{name}: lts compression_ratio not > 1: {row["values"]["compression_ratio"]}'
    raw = row["metrics"]["lts.codec.raw_bytes"]
    stored = row["metrics"]["lts.codec.stored_bytes"]
    assert stored > 0 and raw / stored > 1, \
        f"{name}: codec did not reduce bytes (raw={raw} stored={stored})"
    assert row["metrics"]["lts.checksum_failures"] == 0, \
        f'{name}: checksum failures in a fault-free run'

# Archive-on must actually hit tape, pay a mount, and show the deep
# first-byte latency; archive-off has no tape library at all.
assert on["metrics"].get("sim.tape.mounts", 0) >= 1, "archive=on never mounted tape"
assert on["metrics"].get("lts.archive.migrations", 0) >= 1, "nothing migrated"
assert on["metrics"].get("lts.archive.reads", 0) >= 1, "no reads served from archive"
fb = on["metrics"].get("sim.tape.first_byte_ns.p50_ns", 0)
assert fb >= 50e6, f"archive first-byte p50 too shallow: {fb} ns"
assert "sim.tape.ops" not in off["metrics"], "archive=off row has tape traffic"

print(f'fig12 archive OK: ratio={on["values"]["compression_ratio"]:.1f}x, '
      f'migrations={on["metrics"]["lts.archive.migrations"]:.0f}, '
      f'tape first-byte p50={fb/1e6:.0f} ms, payload crc match')
PY

echo "== fig13 fleet sweep: rebalancer + quota-isolation gates =="
python3 - "${OUT_DIR}/BENCH_fig13_autoscaling.json" <<'PY'
import json, sys

d = json.load(open(sys.argv[1]))
rows = {r["series"]: r for r in d["rows"] if r["series"].startswith("fleet-")}
for series in ("fleet-static", "fleet-rebalance", "fleet-noisy", "fleet-control"):
    assert series in rows, f"missing fleet row {series}"

static, rebal = rows["fleet-static"]["values"], rows["fleet-rebalance"]["values"]
# Scale floor: one sim really does model a fleet.
for v in (static, rebal):
    assert v["streams"] >= 10000, f'fleet run too small: {v["streams"]} streams'
    assert v["modeled_producers"] >= 100000, \
        f'fleet run models only {v["modeled_producers"]} producers'
    assert v["offered_events"] > 0 and v["acked_events"] == v["offered_events"], \
        "fleet run dropped events without a quota in play"
# Identical seed → identical generated workload on both placements.
for key in ("offered_events", "key_checksum_hi", "key_checksum_lo"):
    assert static[key] == rebal[key], f"placement pair diverged on {key}"
# The point of the sweep: load-aware placement beats static cid % N.
assert static["moves"] == 0, "static row issued container moves"
assert rebal["moves"] >= 1, "rebalancer never moved a container"
assert static["max_min_ratio"] > 1.5, \
    f'skewed fleet did not imbalance static placement: {static["max_min_ratio"]:.2f}'
assert rebal["max_min_ratio"] < 0.8 * static["max_min_ratio"], (
    f'rebalancer did not reduce load ratio: static={static["max_min_ratio"]:.2f} '
    f'rebalance={rebal["max_min_ratio"]:.2f}')

noisy, control = rows["fleet-noisy"]["values"], rows["fleet-control"]["values"]
assert noisy["quota_throttled_events"] > 0, "noisy tenant was never throttled"
assert noisy["steady_acked_frac"] >= 0.9, \
    f'noisy neighbor starved the steady tenant: {noisy["steady_acked_frac"]:.3f}'
assert noisy["noisy_splits"] >= 1, "auto-scaler never split under noisy load"
assert control["quota_throttled_events"] == 0, \
    "under-quota control run was throttled"
print(f'fig13 fleet OK: ratio static={static["max_min_ratio"]:.2f} -> '
      f'rebalance={rebal["max_min_ratio"]:.2f} ({int(rebal["moves"])} moves); '
      f'noisy throttled={int(noisy["quota_throttled_events"])}, '
      f'steady acked frac={noisy["steady_acked_frac"]:.3f}, '
      f'splits={int(noisy["noisy_splits"])}')
PY

echo "== fig14 detection: chaos-scored recall/precision acceptance =="
python3 - "${OUT_DIR}/BENCH_fig14_detection.json" <<'PY'
import json, sys

d = json.load(open(sys.argv[1]))
runs = {r["series"]: r for r in d["detection"]["runs"]}
for series in ("control/default", "bookie-crash/default", "partition/default"):
    assert series in runs, f"missing detection run {series}"

control = runs["control/default"]
assert not control["alarms"], \
    f'control run alarmed: {control["alarms"]}'
assert all(g["passed"] for g in control["guardrails"]), "control guardrail breached"

for series in ("bookie-crash/default", "partition/default"):
    s = runs[series]["scores"]
    assert s["recall"] >= 0.9, f'{series} recall {s["recall"]} < 0.9'
    assert s["precision"] >= 0.9, f'{series} precision {s["precision"]} < 0.9'
    assert s["faults"] > 0, f"{series} injected no faults"

print("fig14 detection OK: " + ", ".join(
    f'{s}={runs[s]["scores"]["recall"]:.2f}R/{runs[s]["scores"]["precision"]:.2f}P'
    for s in ("bookie-crash/default", "partition/default")))
PY

echo "== fig11 cores sweep: shard-per-core throughput scaling gate =="
python3 - "${OUT_DIR}/BENCH_fig11_max_throughput.json" <<'PY'
import json, sys

d = json.load(open(sys.argv[1]))
rows = {int(r["values"]["cores"]): r for r in d["rows"]
        if r["section"] == "cores" and r["series"] == "pravega-cores"}
assert 1 in rows and 4 in rows, f"need cores=1 and cores=4 rows, got {sorted(rows)}"
one = rows[1]["values"]["max_throughput_mbps"]
four = rows[4]["values"]["max_throughput_mbps"]
assert four >= 2.0 * one, \
    f"4-core throughput {four:.1f} MB/s < 2x 1-core {one:.1f} MB/s — sharding is not scaling"
assert rows[1]["values"]["xcore_messages"] == 0, \
    "single-core run sent cross-core mailbox messages"
assert rows[4]["values"]["xcore_messages"] > 0, \
    "4-core run sent no cross-core mailbox messages"
print(f"fig11 cores OK: 1c={one:.1f} MB/s, 4c={four:.1f} MB/s "
      f"({four / one:.1f}x), xcore@4c={int(rows[4]['values']['xcore_messages'])}")
PY

echo "== determinism: bench_micro_core twice, byte-identical output =="
DET_A="${OUT_DIR}/det-a"
DET_B="${OUT_DIR}/det-b"
mkdir -p "${DET_A}" "${DET_B}"
BENCH_SMOKE=1 BENCH_DUMP_METRICS=1 BENCH_OUT_DIR="${DET_A}" \
  "${BENCH_DIR}/bench_micro_core" > "${DET_A}/stdout.txt"
BENCH_SMOKE=1 BENCH_DUMP_METRICS=1 BENCH_OUT_DIR="${DET_B}" \
  "${BENCH_DIR}/bench_micro_core" > "${DET_B}/stdout.txt"
# Mask the run-to-run variable parts (the path-bearing "# wrote" line and
# the wall-clock events_per_sec value; everything else derives from virtual
# time) in copies — the perf gate below reads the unmasked JSON.
for d in "${DET_A}" "${DET_B}"; do
  cp "${d}/stdout.txt" "${d}/stdout.scrubbed"
  cp "${d}/BENCH_micro_core.json" "${d}/json.scrubbed"
  python3 scripts/bench_scrub.py "${d}/stdout.scrubbed" "${d}/json.scrubbed"
done
diff "${DET_A}/json.scrubbed" "${DET_B}/json.scrubbed" \
  || { echo "BENCH_micro_core.json differs between same-seed runs" >&2; exit 1; }
echo "determinism OK: JSON byte-identical modulo the wall-clock rate"
diff "${DET_A}/stdout.scrubbed" "${DET_B}/stdout.scrubbed" \
  || { echo "metric dump differs between same-seed runs" >&2; exit 1; }

echo "== determinism: fig13 fleet sweep rerun, byte-identical output =="
# The fleet workload's contract: same seed → byte-identical counts, key
# checksums, rebalance trajectory, and JSON — compare a fresh run against
# the main-loop run above (same env: BENCH_CHAOS was set there too).
FLEET_B="${OUT_DIR}/fleet-det"
mkdir -p "${FLEET_B}"
BENCH_SMOKE=1 BENCH_CHAOS=1 BENCH_OUT_DIR="${FLEET_B}" \
  "${BENCH_DIR}/bench_fig13_autoscaling" > "${FLEET_B}/stdout.txt" 2>&1
cp "${OUT_DIR}/bench_fig13_autoscaling.out" "${FLEET_B}/a.txt"
cp "${FLEET_B}/stdout.txt" "${FLEET_B}/b.txt"
python3 scripts/bench_scrub.py "${FLEET_B}/a.txt" "${FLEET_B}/b.txt"
diff "${FLEET_B}/a.txt" "${FLEET_B}/b.txt" \
  || { echo "fig13 stdout differs between same-seed runs" >&2; exit 1; }
diff "${OUT_DIR}/BENCH_fig13_autoscaling.json" "${FLEET_B}/BENCH_fig13_autoscaling.json" \
  || { echo "fig13 JSON differs between same-seed runs" >&2; exit 1; }
echo "fig13 determinism OK: fleet sweep byte-identical across runs"

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
