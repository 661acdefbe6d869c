#!/usr/bin/env python3
"""Masks the run-to-run variable parts of bench output, in place.

    python3 scripts/bench_scrub.py FILE...

A same-seed rerun of any bench binary reproduces its stdout and its
BENCH_*.json byte for byte except for two things: the "# wrote <path>"
line, which names the output directory, and the engine row's
events_per_sec, which is wall-clock. This drops the former and replaces
the latter's value with "*" (stdout) or null (JSON), so that two scrubbed
runs can be compared with plain diff. Used by bench_smoke.sh's determinism
checks and by bench_oracle.sh.
"""
import re
import sys

WROTE = re.compile(r"^# wrote .*\n?", re.M)
# The exact key only: offered_/achieved_events_per_sec are virtual-time.
STDOUT_RATE = re.compile(r"(?<![\w])events_per_sec=[^\s]+")
JSON_RATE = re.compile(r'"events_per_sec":[-+0-9.eE]+')


def scrub(text):
    text = WROTE.sub("", text)
    text = STDOUT_RATE.sub("events_per_sec=*", text)
    return JSON_RATE.sub('"events_per_sec":null', text)


def main(paths):
    for path in paths:
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(scrub(text))


if __name__ == "__main__":
    main(sys.argv[1:])
