#!/usr/bin/env python3
"""Compare fsx-bench-v1 reports against a committed baseline.

Usage: bench_diff.py BASELINE_DIR RUN_DIR

For every BENCH_*.json in BASELINE_DIR, reads the file of the same name
in RUN_DIR and matches result rows by (name, config). Wire bytes and
rounds are deterministic, so these must match exactly:
  - the set of rows;
  - rounds;
  - bytes.total, bytes.up, bytes.down and every bytes.phases entry.
wall_ns is reported as a run/baseline ratio (geometric mean over the
rows that carry a time) and never gates: it depends on the host. A
ratio outside the noise band, above 1 + WALL_NOISE_BAND or below
1 / (1 + WALL_NOISE_BAND), is flagged SLOWER or FASTER in the report
line; the exit status ignores it.

Reports in RUN_DIR without a baseline are ignored. Standard library
only; prints one line per report and per mismatch, and exits non-zero
if any gated field differs or a baselined report is missing.
"""

import glob
import json
import math
import os
import sys

# Noise in a report's geometric-mean wall ratio: three runs of the eight
# paper drivers, unchanged, on one 4-vCPU host read 0.74x to 1.26x
# against the committed baseline. Symmetric in log space, so a 1.4x
# slowdown and a 1.4x speed-up are flagged alike.
WALL_NOISE_BAND = 0.4


def row_key(row):
    return (row["name"], tuple(sorted(row.get("config", {}).items())))


def index_rows(doc):
    rows = {}
    for row in doc["results"]:
        key = row_key(row)
        # Repeated (name, config) pairs are told apart by their order.
        n = 0
        while (key, n) in rows:
            n += 1
        rows[(key, n)] = row
    return rows


def label(key):
    (name, config), n = key
    text = name
    if config:
        text += " [" + ", ".join(f"{k}={v}" for k, v in config) + "]"
    if n:
        text += f" #{n}"
    return text


def diff_bytes(base, run):
    """Yields (field, baseline, run) for every differing byte counter."""
    for field in ("total", "up", "down"):
        if base.get(field) != run.get(field):
            yield f"bytes.{field}", base.get(field), run.get(field)
    base_phases = base.get("phases", {})
    run_phases = run.get("phases", {})
    for phase in sorted(set(base_phases) | set(run_phases)):
        for flow in ("up", "down"):
            b = base_phases.get(phase, {}).get(flow, 0)
            r = run_phases.get(phase, {}).get(flow, 0)
            if b != r:
                yield f"bytes.phases.{phase}.{flow}", b, r


def compare(base_doc, run_doc):
    """Returns (mismatch lines, wall ratio or None)."""
    problems = []
    base_rows = index_rows(base_doc)
    run_rows = index_rows(run_doc)
    for key in base_rows.keys() - run_rows.keys():
        problems.append(f"missing row: {label(key)}")
    for key in run_rows.keys() - base_rows.keys():
        problems.append(f"extra row: {label(key)}")
    log_ratio_sum = 0.0
    timed = 0
    for key in sorted(base_rows.keys() & run_rows.keys()):
        base, run = base_rows[key], run_rows[key]
        if base["rounds"] != run["rounds"]:
            problems.append(f"{label(key)}: rounds {base['rounds']} -> "
                            f"{run['rounds']}")
        for field, b, r in diff_bytes(base["bytes"], run["bytes"]):
            problems.append(f"{label(key)}: {field} {b} -> {r}")
        if base["wall_ns"] > 0 and run["wall_ns"] > 0:
            log_ratio_sum += math.log(run["wall_ns"] / base["wall_ns"])
            timed += 1
    ratio = math.exp(log_ratio_sum / timed) if timed else None
    return problems, ratio


def wall_text(ratio):
    """The report line's wall_ns field, flagged outside the noise band."""
    if ratio is None:
        return "wall_ns run/baseline n/a, not gated"
    text = f"wall_ns run/baseline {ratio:.2f}x"
    band = f"outside the {1 + WALL_NOISE_BAND:.2f}x noise band"
    if ratio > 1 + WALL_NOISE_BAND:
        text += f", SLOWER, {band}"
    elif ratio < 1 / (1 + WALL_NOISE_BAND):
        text += f", FASTER, {band}"
    return text + ", not gated"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    baseline_dir, run_dir = argv[1], argv[2]
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baselines:
        print(f"no BENCH_*.json under {baseline_dir}", file=sys.stderr)
        return 2
    failed = False
    for base_path in baselines:
        name = os.path.basename(base_path)
        run_path = os.path.join(run_dir, name)
        if not os.path.exists(run_path):
            print(f"{name}: MISSING from {run_dir}")
            failed = True
            continue
        with open(base_path) as f:
            base_doc = json.load(f)
        with open(run_path) as f:
            run_doc = json.load(f)
        problems, ratio = compare(base_doc, run_doc)
        status = "DIFF" if problems else "ok"
        print(f"{name}: {status} ({wall_text(ratio)})")
        for line in problems:
            print(f"  {line}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
