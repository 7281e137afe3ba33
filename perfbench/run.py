#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the repository root:

    python3 perfbench/run.py --workload release-update --seed 1 \
        --seconds 20 --trace 0

builds the library and the workload runner from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the workload and prints its
result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics.

Steadiness mode runs one workload on several seeds and prints, for each
end-to-end metric, the median, the quartiles and their spread as a share
of the median, beside the bound in BENCHMARK.json:

    python3 perfbench/run.py --steadiness --workload tree-mirror --runs 10

With --overhead it also makes a traced run per seed, prints the median of
every per-layer metric, and the tracing overhead (traced over untraced
median sync latency).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("release-update", "tree-mirror", "daemon-fanout")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds the runner (a no-op when up to date);
    returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "fsx_perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "fsx_perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (parsed result, raw last line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", ".bench_work",
           "--trace-out", os.path.join(".bench_work", f"trace-{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1]), lines[-1]


def steadiness(binary, args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values, traced, shares = {}, {}, []
    for i in range(args.runs):
        seed = args.seed + i
        result, _ = run_once(binary, args.workload, seed, seconds, 0)
        shares.append((result["failed"], result["attempted"]))
        log(f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.overhead:
            t, _ = run_once(binary, args.workload, seed, seconds, 1)
            for name, m in t["metrics"].items():
                traced.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {args.runs} runs of {seconds} s, "
          f"seeds {args.seed}..{args.seed + args.runs - 1}")
    print(f"failed/attempted per run: {shares}")
    print(f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  steady")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, float("nan"))
        ok = "yes" if spread < bound / 3 else "NO"
        print(f"{name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound:6.3g}  {ok}")
        print("    values: " + " ".join(f"{v:.6g}" for v in vals))
    if traced:
        print("per-layer medians of the traced runs:")
        for name, vals in traced.items():
            print(f"  {name:34} {statistics.median(vals):14.6g}")
        op = statistics.median(traced["trace.op_ms"])
        untraced = statistics.median(values["client_sync_p50_ms"])
        print(f"tracing overhead: traced op median {op:.3f} ms vs untraced "
              f"{untraced:.3f} ms ({op / untraced - 1:+.2%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.steadiness:
        steadiness(binary, args)
        return
    result, line = run_once(binary, args.workload, args.seed,
                            args.seconds or 10, args.trace)
    print(line, flush=True)


if __name__ == "__main__":
    main()
