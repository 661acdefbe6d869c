#!/usr/bin/env python3
"""Validates BENCH_*.json files against the pravega-bench/v1 schema, then
applies the gates that GATES lists for the file's bench "name": presence
checks on its rows plus the acceptance bounds of its smoke run
(scripts/bench_smoke.sh validates the BENCH_SMOKE=1 BENCH_CHAOS=1 output of
every bench binary).

Usage: validate_bench_json.py FILE [FILE...]
Exits non-zero (with a message naming the file and violation) on the first
file that does not conform.
"""
import json
import sys

SCHEMA = "pravega-bench/v1"


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_number_map(path, obj, where):
    if not isinstance(obj, dict):
        fail(path, f"{where} must be an object")
    for key, value in obj.items():
        if not isinstance(key, str):
            fail(path, f"{where} key {key!r} is not a string")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(path, f"{where}[{key!r}] is not a number: {value!r}")


def check_number(path, obj, where):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        fail(path, f"{where} is not a number: {obj!r}")


def check_detection(path, det):
    """The optional "detection" section: chaos-scored detector runs."""
    if not isinstance(det, dict) or "runs" not in det:
        fail(path, 'detection must be an object with a "runs" array')
    if not isinstance(det["runs"], list) or not det["runs"]:
        fail(path, "detection.runs must be a non-empty array")
    for i, run in enumerate(det["runs"]):
        where = f"detection.runs[{i}]"
        if not isinstance(run, dict):
            fail(path, f"{where} must be an object")
        for key in ("series", "ticks", "ground_truth", "alarms", "guardrails",
                    "scores"):
            if key not in run:
                fail(path, f"{where} missing key {key!r}")
        if not isinstance(run["series"], str) or not run["series"]:
            fail(path, f"{where}.series must be a non-empty string")
        check_number(path, run["ticks"], f"{where}.ticks")

        truth = run["ground_truth"]
        if truth is not None:
            if not isinstance(truth, dict) or "windows" not in truth:
                fail(path, f"{where}.ground_truth must be null or have windows")
            for j, w in enumerate(truth["windows"]):
                for key in ("class", "start_ms", "end_ms"):
                    if key not in w:
                        fail(path, f"{where}.ground_truth.windows[{j}] missing {key!r}")
                check_number(path, w["start_ms"],
                             f"{where}.ground_truth.windows[{j}].start_ms")
                check_number(path, w["end_ms"],
                             f"{where}.ground_truth.windows[{j}].end_ms")

        if not isinstance(run["alarms"], list):
            fail(path, f"{where}.alarms must be an array")
        for j, a in enumerate(run["alarms"]):
            for key in ("t_ms", "detector", "metric", "kind", "value", "score",
                        "cleared_ms"):
                if key not in a:
                    fail(path, f"{where}.alarms[{j}] missing key {key!r}")
            check_number(path, a["t_ms"], f"{where}.alarms[{j}].t_ms")
            if a["kind"] not in ("spike", "drop", "collapse", "slo"):
                fail(path, f"{where}.alarms[{j}].kind is {a['kind']!r}")

        if not isinstance(run["guardrails"], list):
            fail(path, f"{where}.guardrails must be an array")
        for j, g in enumerate(run["guardrails"]):
            for key in ("rule", "passed", "evaluations", "violations", "episodes"):
                if key not in g:
                    fail(path, f"{where}.guardrails[{j}] missing key {key!r}")
            if not isinstance(g["passed"], bool):
                fail(path, f"{where}.guardrails[{j}].passed must be a boolean")

        scores = run["scores"]
        if not isinstance(scores, dict):
            fail(path, f"{where}.scores must be an object")
        for key in ("faults", "detected", "total_alarms", "matched_alarms",
                    "false_positives", "recall", "precision", "mean_detect_ms",
                    "max_detect_ms", "per_class"):
            if key not in scores:
                fail(path, f"{where}.scores missing key {key!r}")
        for key in ("recall", "precision"):
            check_number(path, scores[key], f"{where}.scores.{key}")
            if not 0.0 <= scores[key] <= 1.0:
                fail(path, f"{where}.scores.{key} out of [0,1]: {scores[key]}")
        if not isinstance(scores["per_class"], list):
            fail(path, f"{where}.scores.per_class must be an array")
        for j, c in enumerate(scores["per_class"]):
            for key in ("class", "faults", "detected", "recall"):
                if key not in c:
                    fail(path, f"{where}.scores.per_class[{j}] missing {key!r}")


def need(path, ok, msg):
    if not ok:
        fail(path, msg)


def rows_by_series(doc, prefix):
    return {r["series"]: r for r in doc["rows"] if r["series"].startswith(prefix)}


def need_rows(path, rows, *series):
    for name in series:
        need(path, name in rows, f"missing row {name!r}")
    return [rows[name] for name in series]


def need_keys(path, obj, keys, where):
    for key in keys:
        need(path, key in obj, f"{where} missing {key!r}")


def gate_cores_sweep(path, doc):
    """Throughput-vs-core-count sweeps (fig10, fig11): every row in a
    section named "cores" carries a positive integer "cores" value plus at
    least one measurement, and within one series the core counts are
    distinct and increasing (a sweep, not repeats)."""
    by_series = {}
    for i, row in enumerate(doc["rows"]):
        if row["section"] != "cores":
            continue
        where = f"rows[{i}]"
        values = row["values"]
        need(path, "cores" in values, f'{where} is in section "cores" but has no "cores" value')
        cores = values["cores"]
        need(path, cores == int(cores) and cores >= 1,
             f"{where}.values.cores must be a positive integer: {cores!r}")
        need(path, len(values) >= 2, f"{where} has no measurement besides the cores count")
        by_series.setdefault(row["series"], []).append(int(cores))
    for series, counts in by_series.items():
        need(path, len(set(counts)) == len(counts),
             f"series {series!r} repeats a cores value: {counts}")
        need(path, counts == sorted(counts),
             f"series {series!r} cores values not increasing: {counts}")
    return f"cores sweep OK: {sum(map(len, by_series.values()))} rows"


def gate_fig11_cores(path, doc):
    """Shard-per-core scaling: 4 cores reach at least twice the 1-core
    throughput, and only the multi-core run uses cross-core mailboxes."""
    rows = {int(r["values"]["cores"]): r["values"] for r in doc["rows"]
            if r["section"] == "cores" and r["series"] == "pravega-cores"}
    need(path, 1 in rows and 4 in rows, f"need cores=1 and cores=4 rows, got {sorted(rows)}")
    for row in (rows[1], rows[4]):
        need_keys(path, row, ("max_throughput_mbps", "xcore_messages"), "pravega-cores row")
    one, four = rows[1]["max_throughput_mbps"], rows[4]["max_throughput_mbps"]
    need(path, four >= 2.0 * one,
         f"4-core throughput {four:.1f} MB/s < 2x 1-core {one:.1f} MB/s — sharding is not scaling")
    need(path, rows[1]["xcore_messages"] == 0,
         "single-core run sent cross-core mailbox messages")
    need(path, rows[4]["xcore_messages"] > 0,
         "4-core run sent no cross-core mailbox messages")
    return (f"fig11 cores OK: 1c={one:.1f} MB/s, 4c={four:.1f} MB/s "
            f"({four / one:.1f}x), xcore@4c={int(rows[4]['xcore_messages'])}")


def gate_fig12_readahead(path, doc):
    """Readahead ablation: on and off rows, the read-pipeline metrics, and
    prefetches issued only with readahead on."""
    flags = {r["values"]["readahead"] for r in doc["rows"] if "readahead" in r["values"]}
    need(path, flags >= {0, 1}, f"expected readahead on AND off rows, got {flags}")
    on, off = need_rows(path, rows_by_series(doc, "pravega-single["),
                        "pravega-single[readahead=on]", "pravega-single[readahead=off]")
    need_keys(path, on["metrics"],
              ("store.read.coalesced", "store.read.lts_fetches", "store.prefetch.issued",
               "store.prefetch.hits", "store.prefetch.wasted_bytes"), "readahead=on row metrics")
    need(path, on["metrics"]["store.prefetch.issued"] > 0, "readahead=on issued no prefetches")
    need(path, off["metrics"].get("store.prefetch.issued") == 0,
         "readahead=off issued prefetches")
    return (f'fig12 ablation OK: single-reader catch-up '
            f'on={on["values"]["catchup_mbps"]:.1f} MB/s '
            f'off={off["values"]["catchup_mbps"]:.1f} MB/s, '
            f'prefetch.issued={on["metrics"]["store.prefetch.issued"]}')


def gate_fig12_archive(path, doc):
    """Archive-tier ablation (codec + cold archive). Same seed, same writes:
    the archive tier must never change the bytes the reader sees, only where
    they come from and how long the first byte takes. Archive-on must hit
    tape, pay a mount and show the deep first-byte latency; archive-off has
    no tape library at all."""
    rows = rows_by_series(doc, "pravega-archive[")
    on, off = need_rows(path, rows, "pravega-archive[archive=on]", "pravega-archive[archive=off]")
    flags = set()
    for name, row in rows.items():
        values, metrics = row["values"], row["metrics"]
        need_keys(path, values, ("archive", "payload_crc32", "crc_events", "compression_ratio"),
                  f"archive-ablation row {name}")
        need(path, values["archive"] in (0, 1),
             f'{name}: values.archive must be 0 or 1: {values["archive"]!r}')
        flags.add(int(values["archive"]))
        need_keys(path, metrics,
                  ("lts.codec.raw_bytes", "lts.codec.stored_bytes", "lts.checksum_failures"),
                  f"archive-ablation row {name} metrics")
    need(path, flags == {0, 1},
         f"archive ablation needs archive=0 AND archive=1 rows, got {flags}")

    crc_on, crc_off = on["values"]["payload_crc32"], off["values"]["payload_crc32"]
    need(path, crc_on == crc_off != 0, f"payload CRC diverged: on={crc_on} off={crc_off}")
    need(path, on["values"]["crc_events"] == off["values"]["crc_events"] > 0,
         "archive on/off read different event counts")
    for row in (on, off):
        name, values, metrics = row["series"], row["values"], row["metrics"]
        need(path, values["compression_ratio"] > 1,
             f'{name}: lts compression_ratio not > 1: {values["compression_ratio"]}')
        raw, stored = metrics["lts.codec.raw_bytes"], metrics["lts.codec.stored_bytes"]
        need(path, stored > 0 and raw / stored > 1,
             f"{name}: codec did not reduce bytes (raw={raw} stored={stored})")
        need(path, metrics["lts.checksum_failures"] == 0,
             f"{name}: checksum failures in a fault-free run")

    m = on["metrics"]
    need(path, m.get("sim.tape.mounts", 0) >= 1, "archive=on never mounted tape")
    need(path, m.get("lts.archive.migrations", 0) >= 1, "nothing migrated")
    need(path, m.get("lts.archive.reads", 0) >= 1, "no reads served from archive")
    fb = m.get("sim.tape.first_byte_ns.p50_ns", 0)
    need(path, fb >= 50e6, f"archive first-byte p50 too shallow: {fb} ns")
    need(path, "sim.tape.ops" not in off["metrics"], "archive=off row has tape traffic")
    return (f'fig12 archive OK: ratio={on["values"]["compression_ratio"]:.1f}x, '
            f'migrations={m["lts.archive.migrations"]:.0f}, '
            f'tape first-byte p50={fb / 1e6:.0f} ms, payload crc match')


def gate_fig13_fleet(path, doc):
    """Fleet workload (fig13): one sim really models a fleet; the placement
    pair (static vs rebalance) runs the same generated workload and
    load-aware placement beats static cid % N; the quota pair throttles the
    noisy tenant without starving the steady one."""
    rows = rows_by_series(doc, "fleet-")
    static, rebal, noisy, control = (r["values"] for r in need_rows(
        path, rows, "fleet-static", "fleet-rebalance", "fleet-noisy", "fleet-control"))
    for name, row in rows.items():
        v = row["values"]
        counts = ("streams", "modeled_producers", "offered_events", "acked_events")
        need_keys(path, v, counts, f"fleet row {name}")
        for key in counts:
            need(path, v[key] >= 0, f"{name}: values.{key} is negative")
        need(path, v["acked_events"] <= v["offered_events"],
             f"{name} acked more events than it offered")
    for v in (static, rebal):
        need_keys(path, v, ("max_min_ratio", "moves", "key_checksum_hi", "key_checksum_lo"),
                  "fleet placement row")
        need(path, v["max_min_ratio"] >= 1, f'max_min_ratio < 1: {v["max_min_ratio"]}')
        need(path, v["streams"] >= 10000, f'fleet run too small: {v["streams"]} streams')
        need(path, v["modeled_producers"] >= 100000,
             f'fleet run models only {v["modeled_producers"]} producers')
        need(path, v["offered_events"] > 0 and v["acked_events"] == v["offered_events"],
             "fleet run dropped events without a quota in play")
    for v in (noisy, control):
        need_keys(path, v, ("quota_throttled_events", "steady_acked_frac", "noisy_splits"),
                  "fleet quota row")
        need(path, 0.0 <= v["steady_acked_frac"] <= 1.0, "steady_acked_frac out of [0,1]")
    for key in ("offered_events", "key_checksum_hi", "key_checksum_lo"):
        need(path, static[key] == rebal[key], f"placement pair diverged on {key}")
    need(path, static["moves"] == 0, "static row issued container moves")
    need(path, rebal["moves"] >= 1, "rebalancer never moved a container")
    need(path, static["max_min_ratio"] > 1.5,
         f'skewed fleet did not imbalance static placement: {static["max_min_ratio"]:.2f}')
    need(path, rebal["max_min_ratio"] < 0.8 * static["max_min_ratio"],
         f'rebalancer did not reduce load ratio: static={static["max_min_ratio"]:.2f} '
         f'rebalance={rebal["max_min_ratio"]:.2f}')
    need(path, noisy["quota_throttled_events"] > 0, "noisy tenant was never throttled")
    need(path, noisy["steady_acked_frac"] >= 0.9,
         f'noisy neighbor starved the steady tenant: {noisy["steady_acked_frac"]:.3f}')
    need(path, noisy["noisy_splits"] >= 1, "auto-scaler never split under noisy load")
    need(path, control["quota_throttled_events"] == 0, "under-quota control run was throttled")
    return (f'fig13 fleet OK: ratio static={static["max_min_ratio"]:.2f} -> '
            f'rebalance={rebal["max_min_ratio"]:.2f} ({int(rebal["moves"])} moves); '
            f'noisy throttled={int(noisy["quota_throttled_events"])}, '
            f'steady acked frac={noisy["steady_acked_frac"]:.3f}, '
            f'splits={int(noisy["noisy_splits"])}')


def gate_fig14_detection(path, doc):
    """Chaos-scored detection: the fault-free control run stays silent and
    within its guardrails; the fault runs reach recall and precision 0.9."""
    need(path, "detection" in doc, "no detection section")
    runs = {r["series"]: r for r in doc["detection"]["runs"]}
    faulty = ("bookie-crash/default", "partition/default")
    control = need_rows(path, runs, "control/default", *faulty)[0]
    need(path, not control["alarms"], f'control run alarmed: {control["alarms"]}')
    need(path, all(g["passed"] for g in control["guardrails"]), "control guardrail breached")
    for series in faulty:
        s = runs[series]["scores"]
        need(path, s["recall"] >= 0.9, f'{series} recall {s["recall"]} < 0.9')
        need(path, s["precision"] >= 0.9, f'{series} precision {s["precision"]} < 0.9')
        need(path, s["faults"] > 0, f"{series} injected no faults")
    return "fig14 detection OK: " + ", ".join(
        f'{s}={runs[s]["scores"]["recall"]:.2f}R/{runs[s]["scores"]["precision"]:.2f}P'
        for s in faulty)


def gate_micro_core(path, doc):
    """bench_micro_core must publish the DES-engine row: scheduler events,
    the wall-clock dispatch rate, and the deterministic copy budget."""
    engine = [r for r in doc["rows"] if r["series"] == "engine"]
    need(path, len(engine) == 1, f"micro_core needs exactly one engine row, got {len(engine)}")
    values = engine[0]["values"]
    need_keys(path, values,
              ("events", "events_per_sec", "bytes_copied_per_event", "copy_ops_per_event"),
              "engine row")
    need(path, values["events"] > 0, f'engine row executed no events: {values["events"]!r}')
    need(path, values["events_per_sec"] >= 0,
         f'engine events_per_sec negative: {values["events_per_sec"]!r}')
    need(path, values["bytes_copied_per_event"] > 0,
         "engine bytes_copied_per_event must be positive (the framing copy always counts)")
    return "micro_core engine row OK"


# Per-bench gates, keyed by the JSON's "name".
GATES = {
    "fig10_parallelism": (gate_cores_sweep,),
    "fig11_max_throughput": (gate_cores_sweep, gate_fig11_cores),
    "fig12_historical_reads": (gate_fig12_readahead, gate_fig12_archive),
    "fig13_autoscaling": (gate_fig13_fleet,),
    "fig14_detection": (gate_fig14_detection,),
    "micro_core": (gate_micro_core,),
}


def validate(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"invalid JSON: {e}")

    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    for key in ("schema", "name", "title", "smoke", "rows", "notes"):
        if key not in doc:
            fail(path, f"missing top-level key {key!r}")
    if doc["schema"] != SCHEMA:
        fail(path, f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if not isinstance(doc["name"], str) or not doc["name"]:
        fail(path, "name must be a non-empty string")
    if not isinstance(doc["title"], str):
        fail(path, "title must be a string")
    if not isinstance(doc["smoke"], bool):
        fail(path, "smoke must be a boolean")
    if not isinstance(doc["rows"], list):
        fail(path, "rows must be an array")
    if not doc["rows"]:
        fail(path, "rows is empty — the bench reported nothing")
    for i, row in enumerate(doc["rows"]):
        where = f"rows[{i}]"
        if not isinstance(row, dict):
            fail(path, f"{where} must be an object")
        for key in ("section", "series", "values", "metrics"):
            if key not in row:
                fail(path, f"{where} missing key {key!r}")
        if not isinstance(row["section"], str):
            fail(path, f"{where}.section must be a string")
        if not isinstance(row["series"], str) or not row["series"]:
            fail(path, f"{where}.series must be a non-empty string")
        if "note" in row and not isinstance(row["note"], str):
            fail(path, f"{where}.note must be a string")
        check_number_map(path, row["values"], f"{where}.values")
        if not row["values"]:
            fail(path, f"{where}.values is empty")
        check_number_map(path, row["metrics"], f"{where}.metrics")
    if not isinstance(doc["notes"], list) or any(
        not isinstance(n, str) for n in doc["notes"]
    ):
        fail(path, "notes must be an array of strings")
    runs = 0
    if "detection" in doc:
        check_detection(path, doc["detection"])
        runs = len(doc["detection"]["runs"])
    passed = [gate(path, doc) for gate in GATES.get(doc["name"], ())]
    suffix = f", {runs} detection runs" if runs else ""
    print(f"{path}: OK ({len(doc['rows'])} rows{suffix})")
    for line in passed:
        print(f"  {line}")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        validate(path)


if __name__ == "__main__":
    main()
