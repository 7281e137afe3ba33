#!/usr/bin/env python3
"""Validate fsx JSON artifacts: BENCH_*.json and fsxsync metrics files.

Usage: validate_bench_json.py FILE [FILE...]

Dispatches on the document's "schema" field:
  - fsx-bench-v1: benchmark result sets (docs/benchmarks.md);
  - fsx-metrics-v1: single-run metrics emitted by
    `fsxsync --metrics-json`.

Checks the structural schema plus the accounting invariants the
observability layer guarantees:
  - bytes.up + bytes.down == bytes.total whenever the split is present;
  - results carrying a "throughput" object (the GB/s sweeps) have
    non-negative bytes_processed/gib_per_s and a config tag naming the
    variant measured: config.dispatch_tier (the kernel tier) or
    config.num_threads (the pool lanes);
  - the per-phase byte matrix sums to exactly bytes.up / bytes.down per
    direction whenever phases are present (the same equality the
    conformance suite pins against the channel's TrafficStats);
  - metrics documents carry the full event-counter vocabulary,
    including the durable-apply counters (journal_commits, recoveries,
    rolled_back_files, conflicts_detected), the server-cache counters
    (cache_hits, cache_misses, cache_evictions, cache_bytes_saved,
    cache_cpu_saved_ns), the daemon counters (connections_accepted,
    connections_evicted, connections_drained, backpressure_stalls,
    deadline_expirations), and the disk-fault counters
    (disk_faults_injected, enospc_aborts, fsync_failures, disk_retries).

Standard library only; exits non-zero on the first invalid file.
"""

import json
import sys

PHASES = {
    "handshake",
    "candidates",
    "verification",
    "continuation",
    "literals",
    "delta",
    "fallback",
    "transport",
    "manifest",
}

EVENTS = {
    "retransmits",
    "timeouts",
    "corrupt_records",
    "duplicate_records",
    "reorder_buffered",
    "resumes",
    "repaired_regions",
    "full_fallbacks",
    "journal_commits",
    "recoveries",
    "rolled_back_files",
    "conflicts_detected",
    "renames_adopted",
    "small_files_batched",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_bytes_saved",
    "cache_cpu_saved_ns",
    "connections_accepted",
    "connections_evicted",
    "connections_drained",
    "backpressure_stalls",
    "deadline_expirations",
    "disk_faults_injected",
    "enospc_aborts",
    "fsync_failures",
    "disk_retries",
}


class Invalid(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Invalid(msg)


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_bytes(where, b):
    require(isinstance(b, dict), f"{where}: 'bytes' must be an object")
    require(is_uint(b.get("total")),
            f"{where}: bytes.total must be a non-negative integer")
    has_up = "up" in b
    has_down = "down" in b
    require(has_up == has_down,
            f"{where}: bytes.up and bytes.down must appear together")
    if has_up:
        require(is_uint(b["up"]) and is_uint(b["down"]),
                f"{where}: bytes.up/down must be non-negative integers")
        require(b["up"] + b["down"] == b["total"],
                f"{where}: up ({b['up']}) + down ({b['down']}) != "
                f"total ({b['total']})")
    if "phases" in b:
        require(has_up, f"{where}: phases require the up/down split")
        phases = b["phases"]
        require(isinstance(phases, dict),
                f"{where}: bytes.phases must be an object")
        sum_up = sum_down = 0
        for name, split in phases.items():
            require(name in PHASES,
                    f"{where}: unknown phase '{name}' "
                    f"(expected one of {sorted(PHASES)})")
            require(isinstance(split, dict) and is_uint(split.get("up"))
                    and is_uint(split.get("down")),
                    f"{where}: phase '{name}' must be "
                    "{{\"up\": uint, \"down\": uint}}")
            sum_up += split["up"]
            sum_down += split["down"]
        require(sum_up == b["up"],
                f"{where}: phase up-bytes sum to {sum_up}, "
                f"but bytes.up is {b['up']}")
        require(sum_down == b["down"],
                f"{where}: phase down-bytes sum to {sum_down}, "
                f"but bytes.down is {b['down']}")


def check_result(index, r):
    where = f"results[{index}]"
    require(isinstance(r, dict), f"{where}: must be an object")
    require(isinstance(r.get("name"), str) and r["name"],
            f"{where}: 'name' must be a non-empty string")
    where = f"results[{index}] ({r['name']!r})"
    config = r.get("config")
    require(isinstance(config, dict),
            f"{where}: 'config' must be an object")
    for k, v in config.items():
        require(isinstance(v, str),
                f"{where}: config['{k}'] must be a string")
    require(is_uint(r.get("rounds")),
            f"{where}: 'rounds' must be a non-negative integer")
    require(is_uint(r.get("wall_ns")),
            f"{where}: 'wall_ns' must be a non-negative integer")
    if "throughput" in r:
        tp = r["throughput"]
        require(isinstance(tp, dict),
                f"{where}: 'throughput' must be an object")
        require(is_uint(tp.get("bytes_processed")),
                f"{where}: throughput.bytes_processed must be a "
                "non-negative integer")
        rate = tp.get("gib_per_s")
        require(isinstance(rate, (int, float))
                and not isinstance(rate, bool) and rate >= 0,
                f"{where}: throughput.gib_per_s must be a non-negative "
                "number")
        require(any(isinstance(config.get(k), str) and config[k]
                    for k in ("dispatch_tier", "num_threads")),
                f"{where}: throughput results must tag "
                "config.dispatch_tier with the kernel tier measured "
                "or config.num_threads with the pool lanes")
    require("bytes" in r, f"{where}: missing 'bytes'")
    check_bytes(where, r["bytes"])


def check_metrics_document(doc):
    require(isinstance(doc.get("method"), str) and doc["method"],
            "'method' must be a non-empty string")
    require("bytes" in doc, "missing 'bytes'")
    check_bytes("metrics", doc["bytes"])
    require(is_uint(doc.get("rounds")),
            "'rounds' must be a non-negative integer")
    require(is_uint(doc.get("wall_ns")),
            "'wall_ns' must be a non-negative integer")
    events = doc.get("events")
    require(isinstance(events, dict), "'events' must be an object")
    missing = EVENTS - events.keys()
    require(not missing, f"events: missing counters {sorted(missing)}")
    unknown = events.keys() - EVENTS
    require(not unknown, f"events: unknown counters {sorted(unknown)}")
    for name, v in events.items():
        require(is_uint(v),
                f"events['{name}'] must be a non-negative integer")
    if "dispatch" in doc:
        dispatch = doc["dispatch"]
        require(isinstance(dispatch, dict),
                "'dispatch' must be an object")
        require(isinstance(dispatch.get("tier"), str)
                and dispatch["tier"],
                "dispatch.tier must be a non-empty string")
        require(isinstance(dispatch.get("forced_scalar"), bool),
                "dispatch.forced_scalar must be a boolean")
    if "transport" in doc:
        transport = doc["transport"]
        require(isinstance(transport, dict),
                "'transport' must be an object")
        for name, v in transport.items():
            require(is_uint(v),
                    f"transport['{name}'] must be a non-negative integer")
    if "cache" in doc:
        cache = doc["cache"]
        require(isinstance(cache, dict), "'cache' must be an object")
        for name, v in cache.items():
            require(is_uint(v),
                    f"cache['{name}'] must be a non-negative integer")


def check_bench_document(doc):
    require(isinstance(doc.get("benchmark"), str) and doc["benchmark"],
            "'benchmark' must be a non-empty string")
    require(isinstance(doc.get("title"), str),
            "'title' must be a string")
    workload = doc.get("workload")
    require(isinstance(workload, dict), "'workload' must be an object")
    require(isinstance(workload.get("dataset"), str),
            "workload.dataset must be a string")
    require(is_uint(workload.get("files")),
            "workload.files must be a non-negative integer")
    require(is_uint(workload.get("bytes")),
            "workload.bytes must be a non-negative integer")
    results = doc.get("results")
    require(isinstance(results, list) and results,
            "'results' must be a non-empty array")
    for i, r in enumerate(results):
        check_result(i, r)


def check_document(doc):
    require(isinstance(doc, dict), "top level must be an object")
    schema = doc.get("schema")
    if schema == "fsx-bench-v1":
        check_bench_document(doc)
    elif schema == "fsx-metrics-v1":
        check_metrics_document(doc)
    else:
        raise Invalid("'schema' must be 'fsx-bench-v1' or "
                      f"'fsx-metrics-v1', got {schema!r}")
    return schema


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            with open(path, "rb") as f:
                doc = json.load(f)
            schema = check_document(doc)
            if schema == "fsx-bench-v1":
                n_phases = sum(
                    1 for r in doc["results"] if "phases" in r["bytes"])
                print(f"{path}: OK ({len(doc['results'])} results, "
                      f"{n_phases} with phase attribution)")
            else:
                nonzero = sorted(
                    k for k, v in doc["events"].items() if v)
                print(f"{path}: OK (metrics, method={doc['method']}, "
                      f"events: {', '.join(nonzero) or 'none'})")
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: UNREADABLE: {e}", file=sys.stderr)
            failures += 1
        except Invalid as e:
            print(f"{path}: INVALID: {e}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
