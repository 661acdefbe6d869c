#!/usr/bin/env python3
"""Self-test of validate_bench_json.py's per-bench gates.

    python3 scripts/validate_bench_json_test.py

For each gated bench it builds one minimal document that passes (its gate
bounds sit at or next to their thresholds) and, for every bound and presence
check, a copy broken just past it. The validator must exit 0 on the first
and non-zero on each broken copy, so a gate that is weakened or dropped
fails this test. Registered with ctest as validate_bench_json_test.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

VALIDATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "validate_bench_json.py")


def row(series, values, metrics=None, section=""):
    return {"section": section, "series": series, "values": values, "metrics": metrics or {}}


def doc(name, rows, **extra):
    return {"schema": "pravega-bench/v1", "name": name, "title": name, "smoke": True,
            "rows": rows, "notes": [], **extra}


def find(d, series):
    """The row (or detection run) named `series`."""
    return next(r for r in d["rows"] + d.get("detection", {}).get("runs", [])
                if r["series"] == series)


def cores(d, n):
    return next(r["values"] for r in d["rows"] if r["values"].get("cores") == n)


def drop(d, series):
    d["rows"] = [r for r in d["rows"] if r["series"] != series]


# ------------------------------------------------------------ fig10/fig11

FIG11 = doc("fig11_max_throughput", [
    row("pravega", {"segments": 10, "max_throughput_mbps": 100}),
    row("pravega-cores", {"cores": 1, "max_throughput_mbps": 30, "xcore_messages": 0},
        section="cores"),
    row("pravega-cores", {"cores": 4, "max_throughput_mbps": 60, "xcore_messages": 1},
        section="cores"),
    # Outside the scaling gate's section/series: a gate that read them would fail.
    row("pravega-cores", {"cores": 4, "max_throughput_mbps": 0, "xcore_messages": 0}),
    row("other-cores", {"cores": 4, "max_throughput_mbps": 0, "xcore_messages": 0},
        section="cores"),
])

FIG11_BROKEN = {
    "4 cores < 2x 1 core": lambda d: cores(d, 4).update(max_throughput_mbps=59.9),
    "cross-core messages at 1 core": lambda d: cores(d, 1).update(xcore_messages=1),
    "no cross-core messages at 4 cores": lambda d: cores(d, 4).update(xcore_messages=0),
    "no 1-core row": lambda d: d["rows"].pop(1),
    "no 4-core row": lambda d: d["rows"].pop(2),
    "4-core row without throughput": lambda d: cores(d, 4).pop("max_throughput_mbps"),
    "4-core row without xcore count": lambda d: cores(d, 4).pop("xcore_messages"),
    "cores sweep not increasing": lambda d: d["rows"].append(d["rows"].pop(1)),
    "cores sweep repeats a count": lambda d: d["rows"].append(copy.deepcopy(d["rows"][2])),
    "cores row without cores": lambda d: d["rows"].append(
        row("other", {"max_throughput_mbps": 1}, section="cores")),
    "fractional cores": lambda d: d["rows"].append(
        row("other", {"cores": 1.5, "max_throughput_mbps": 1}, section="cores")),
    "zero cores": lambda d: d["rows"].append(
        row("other", {"cores": 0, "max_throughput_mbps": 1}, section="cores")),
    "cores row with no measurement": lambda d: d["rows"].append(
        row("other", {"cores": 1}, section="cores")),
}

FIG10 = doc("fig10_parallelism", [
    row("pravega-cores", {"cores": 1, "achieved": 1}, section="cores"),
    row("pravega-cores", {"cores": 2, "achieved": 1}, section="cores"),
])

FIG10_BROKEN = {
    "cores sweep not increasing": lambda d: d["rows"].reverse(),
    "cores row without cores": lambda d: d["rows"][0]["values"].pop("cores"),
}

# ------------------------------------------------------------------ fig12

READAHEAD_METRICS = ("store.read.coalesced", "store.read.lts_fetches", "store.prefetch.issued",
                     "store.prefetch.hits", "store.prefetch.wasted_bytes")
ARCHIVE_VALUES = ("archive", "payload_crc32", "crc_events", "compression_ratio")
ARCHIVE_METRICS = ("lts.codec.raw_bytes", "lts.codec.stored_bytes", "lts.checksum_failures")
RA_ON, RA_OFF = "pravega-single[readahead=on]", "pravega-single[readahead=off]"
AR_ON, AR_OFF = "pravega-archive[archive=on]", "pravega-archive[archive=off]"


def archive_row(series, flag, tape):
    metrics = {"lts.codec.raw_bytes": 101, "lts.codec.stored_bytes": 100,
               "lts.checksum_failures": 0}
    if tape:
        metrics.update({"sim.tape.mounts": 1, "lts.archive.migrations": 1,
                        "lts.archive.reads": 1, "sim.tape.first_byte_ns.p50_ns": 50e6})
    return row(series, {"archive": flag, "payload_crc32": 7, "crc_events": 5,
                        "compression_ratio": 1.01}, metrics)


FIG12 = doc("fig12_historical_reads", [
    row(RA_ON, {"readahead": 1, "catchup_mbps": 70},
        {key: (1 if key == "store.prefetch.issued" else 0) for key in READAHEAD_METRICS}),
    row(RA_OFF, {"readahead": 0, "catchup_mbps": 60}, {"store.prefetch.issued": 0}),
    archive_row(AR_ON, 1, tape=True),
    archive_row(AR_OFF, 0, tape=False),
])


def metric(series, key, value):
    return lambda d: find(d, series)["metrics"].update({key: value})


def value(series, key, val):
    return lambda d: find(d, series)["values"].update({key: val})


FIG12_BROKEN = {
    "no readahead=on flag": value(RA_ON, "readahead", 0),
    "no readahead=off flag": value(RA_OFF, "readahead", 1),
    "no readahead=on row": lambda d: drop(d, RA_ON),
    "no readahead=off row": lambda d: drop(d, RA_OFF),
    "readahead=on issued no prefetches": metric(RA_ON, "store.prefetch.issued", 0),
    "readahead=off issued prefetches": metric(RA_OFF, "store.prefetch.issued", 1),
    "readahead=off without prefetch count": lambda d: find(d, RA_OFF)["metrics"].clear(),
    **{f"readahead=on without {key}": (lambda k: lambda d: find(d, RA_ON)["metrics"].pop(k))(key)
       for key in READAHEAD_METRICS},
    "no archive=on row": lambda d: drop(d, AR_ON),
    "no archive=off row": lambda d: drop(d, AR_OFF),
    "archive flags not 0 and 1": value(AR_OFF, "archive", 1),
    "archive flag out of range": lambda d: d["rows"].append(
        archive_row("pravega-archive[x]", 0.5, tape=False)),
    **{f"archive row without {key}": (lambda k: lambda d: find(d, AR_OFF)["values"].pop(k))(key)
       for key in ARCHIVE_VALUES},
    **{f"archive row without {key}": (lambda k: lambda d: find(d, AR_OFF)["metrics"].pop(k))(key)
       for key in ARCHIVE_METRICS},
    "payload CRC diverged": value(AR_OFF, "payload_crc32", 8),
    "payload CRC zero": lambda d: [value(s, "payload_crc32", 0)(d) for s in (AR_ON, AR_OFF)],
    "event counts diverged": value(AR_OFF, "crc_events", 6),
    "no events read": lambda d: [value(s, "crc_events", 0)(d) for s in (AR_ON, AR_OFF)],
    "archive=on ratio 1": value(AR_ON, "compression_ratio", 1),
    "archive=off ratio 1": value(AR_OFF, "compression_ratio", 1),
    "archive=on codec no reduction": metric(AR_ON, "lts.codec.raw_bytes", 100),
    "archive=off codec no reduction": metric(AR_OFF, "lts.codec.raw_bytes", 100),
    "codec stored nothing": metric(AR_ON, "lts.codec.stored_bytes", 0),
    "archive=on checksum failure": metric(AR_ON, "lts.checksum_failures", 1),
    "archive=off checksum failure": metric(AR_OFF, "lts.checksum_failures", 1),
    "tape never mounted": metric(AR_ON, "sim.tape.mounts", 0),
    "nothing migrated": metric(AR_ON, "lts.archive.migrations", 0),
    "no reads from archive": metric(AR_ON, "lts.archive.reads", 0),
    "first byte too shallow": metric(AR_ON, "sim.tape.first_byte_ns.p50_ns", 49.9e6),
    **{f"archive=on without {key}": (lambda k: lambda d: find(d, AR_ON)["metrics"].pop(k))(key)
       for key in ("sim.tape.mounts", "lts.archive.migrations", "lts.archive.reads",
                   "sim.tape.first_byte_ns.p50_ns")},
    "archive=off has tape traffic": metric(AR_OFF, "sim.tape.ops", 0),
}

# ------------------------------------------------------------------ fig13

FLEET_SERIES = ("fleet-static", "fleet-rebalance", "fleet-noisy", "fleet-control")


def fleet(series, **values):
    return row(series, values)


FIG13 = doc("fig13_autoscaling", [
    row("scale-up", {"segments": 4}),
    fleet("fleet-static", streams=10000, modeled_producers=100000, offered_events=10,
          acked_events=10, max_min_ratio=1.51, moves=0, key_checksum_hi=1, key_checksum_lo=2),
    fleet("fleet-rebalance", streams=10000, modeled_producers=100000, offered_events=10,
          acked_events=10, max_min_ratio=1.2, moves=1, key_checksum_hi=1, key_checksum_lo=2),
    fleet("fleet-noisy", streams=1, modeled_producers=1, offered_events=10, acked_events=9,
          quota_throttled_events=1, steady_acked_frac=0.9, noisy_splits=1),
    fleet("fleet-control", streams=1, modeled_producers=1, offered_events=10, acked_events=10,
          quota_throttled_events=0, steady_acked_frac=1.0, noisy_splits=0),
])

FIG13_BROKEN = {
    **{f"no {s} row": (lambda s: lambda d: drop(d, s))(s) for s in FLEET_SERIES},
    "static fleet too small": value("fleet-static", "streams", 9999),
    "rebalance fleet too small": value("fleet-rebalance", "streams", 9999),
    "static too few producers": value("fleet-static", "modeled_producers", 99999),
    "rebalance too few producers": value("fleet-rebalance", "modeled_producers", 99999),
    "static dropped events": value("fleet-static", "acked_events", 9),
    "rebalance dropped events": value("fleet-rebalance", "acked_events", 9),
    "placement offered nothing": lambda d: [
        find(d, s)["values"].update(offered_events=0, acked_events=0)
        for s in ("fleet-static", "fleet-rebalance")],
    "placement workloads diverged": lambda d: find(d, "fleet-rebalance")["values"].update(
        offered_events=11, acked_events=11),
    "key checksum hi diverged": value("fleet-rebalance", "key_checksum_hi", 3),
    "key checksum lo diverged": value("fleet-rebalance", "key_checksum_lo", 3),
    "static placement moved": value("fleet-static", "moves", 1),
    "rebalancer never moved": value("fleet-rebalance", "moves", 0),
    "static placement balanced": lambda d: [
        value("fleet-static", "max_min_ratio", 1.5)(d),
        value("fleet-rebalance", "max_min_ratio", 1.1)(d)],
    "rebalance did not reduce ratio": value("fleet-rebalance", "max_min_ratio", 0.8 * 1.51),
    "noisy never throttled": value("fleet-noisy", "quota_throttled_events", 0),
    "steady tenant starved": value("fleet-noisy", "steady_acked_frac", 0.89),
    "noisy never split": value("fleet-noisy", "noisy_splits", 0),
    "control throttled": value("fleet-control", "quota_throttled_events", 1),
    "fleet row without streams": lambda d: find(d, "fleet-noisy")["values"].pop("streams"),
    "negative count": value("fleet-control", "modeled_producers", -1),
    "acked more than offered": value("fleet-noisy", "acked_events", 11),
    "placement ratio < 1": lambda d: [
        value("fleet-static", "max_min_ratio", 100)(d),
        value("fleet-rebalance", "max_min_ratio", 0.99)(d)],
    "placement row without key checksum": lambda d: find(d, "fleet-static")["values"].pop(
        "key_checksum_lo"),
    "quota row without splits": lambda d: find(d, "fleet-control")["values"].pop("noisy_splits"),
    "steady fraction > 1": value("fleet-control", "steady_acked_frac", 1.01),
}

# ------------------------------------------------------------------ fig14

DETECTION_RUNS = ("control/default", "bookie-crash/default", "partition/default")


def detection_run(series, faults):
    return {"series": series, "ticks": 10, "ground_truth": None, "alarms": [],
            "guardrails": [{"rule": "p99 < 50ms", "passed": True, "evaluations": 1,
                            "violations": 0, "episodes": 0}],
            "scores": {"faults": faults, "detected": faults, "total_alarms": faults,
                       "matched_alarms": faults, "false_positives": 0, "recall": 0.9,
                       "precision": 0.9, "mean_detect_ms": 1, "max_detect_ms": 1,
                       "per_class": []}}


FIG14 = doc("fig14_detection", [row("summary", {"runs": 3})],
            detection={"runs": [detection_run("control/default", 0),
                                detection_run("bookie-crash/default", 1),
                                detection_run("partition/default", 1)]})


def score(series, key, val):
    return lambda d: find(d, series)["scores"].update({key: val})


def drop_run(series):
    return lambda d: d["detection"].update(
        runs=[r for r in d["detection"]["runs"] if r["series"] != series])


FIG14_BROKEN = {
    **{f"no {s} run": drop_run(s) for s in DETECTION_RUNS},
    "no detection section": lambda d: d.pop("detection"),
    "control run alarmed": lambda d: find(d, "control/default")["alarms"].append(
        {"t_ms": 1, "detector": "ewma", "metric": "m", "kind": "spike", "value": 1,
         "score": 1, "cleared_ms": None}),
    "control guardrail breached": lambda d: find(d, "control/default")["guardrails"][0].update(
        passed=False),
    **{f"{s} {key} 0.89": score(s, key, 0.89)
       for s in DETECTION_RUNS[1:] for key in ("recall", "precision")},
    **{f"{s} injected no faults": score(s, "faults", 0) for s in DETECTION_RUNS[1:]},
}

# -------------------------------------------------------------- micro_core

MICRO = doc("micro_core", [
    row("engine", {"events": 1, "events_per_sec": 0, "bytes_copied_per_event": 1,
                   "copy_ops_per_event": 1}),
])

MICRO_BROKEN = {
    "no engine row": lambda d: d["rows"][0].update(series="other"),
    "two engine rows": lambda d: d["rows"].append(copy.deepcopy(d["rows"][0])),
    "no events": lambda d: d["rows"][0]["values"].update(events=0),
    "negative rate": lambda d: d["rows"][0]["values"].update(events_per_sec=-1),
    "no copies counted": lambda d: d["rows"][0]["values"].update(bytes_copied_per_event=0),
    "no copy ops key": lambda d: d["rows"][0]["values"].pop("copy_ops_per_event"),
}

CASES = [(FIG10, FIG10_BROKEN), (FIG11, FIG11_BROKEN), (FIG12, FIG12_BROKEN),
         (FIG13, FIG13_BROKEN), (FIG14, FIG14_BROKEN), (MICRO, MICRO_BROKEN)]


def validator_exit(tmp, d):
    path = os.path.join(tmp, "BENCH_case.json")
    with open(path, "w") as f:
        json.dump(d, f)
    return subprocess.run([sys.executable, VALIDATOR, path], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main():
    failures = []
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        for passing, broken in CASES:
            name = passing["name"]
            checked += 1
            if validator_exit(tmp, passing) != 0:
                failures.append(f"{name}: minimal passing document rejected")
            for label, mutate in broken.items():
                d = copy.deepcopy(passing)
                mutate(d)
                checked += 1
                if validator_exit(tmp, d) == 0:
                    failures.append(f"{name}: accepted a document with {label}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{checked - len(failures)}/{checked} validator cases OK")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
