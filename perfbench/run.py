#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (see BENCHMARK.json and perfbench/README.md):
    p2p_pingpong  2 ranks, one message in flight, three size bands
    p2p_stream    2 sender->receiver pairs, seeded bursts + 1-message acks
    collectives   3 ranks + 1 progress-engine worker, seeded collective mix
    kasched       4 ranks, run_scheduler over 2^20 tasks per run

The build goes to .bench_build/perfbench under the checkout root. The binary
prints human-readable metric lines (with sample counts) and one JSON line;
this script prints those lines and, last, one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json for --trace 0, the per_layer ones for --trace 1. A per-layer
metric of a layer the workload does not exercise (RMA on p2p_pingpong, ...)
is reported as 0. With --trace 1 the spans are written to
.bench_build/spans/<workload>-seed<seed>.json.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["p2p_pingpong", "p2p_stream", "collectives", "kasched"]
# Every run must end within 180 s; an up-to-date build check takes about 1 s.
RUN_LIMIT_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    commands = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    commands.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for command in commands:
            if subprocess.call(command, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                if "-S" in command:
                    # A failed configure must not leave a cache that skips it next time.
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("build failed: " + " ".join(command))


def run_binary(arguments, deadline):
    """Runs the binary; returns (human lines, parsed JSON line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left to run the workload")
    try:
        done = subprocess.run([BINARY] + arguments, stdout=subprocess.PIPE, timeout=timeout,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %.0f s" % timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")
    return lines[:-1], result


def summary_line(result, spec, trace):
    """The last output line: the metrics BENCHMARK.json lists, with their units."""
    metrics = {}
    produced = result["metrics"]
    if trace:
        for entry in spec["per_layer"]:
            name = entry["name"]
            value = produced.get(name, {"value": 0.0})["value"]
            metrics[name] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name not in produced:
                fail("workload %s did not produce %s" % (result["workload"], name))
            if produced[name]["unit"] != entry["unit"]:
                fail("%s has unit %s, BENCHMARK.json says %s"
                     % (name, produced[name]["unit"], entry["unit"]))
            metrics[name] = {"value": produced[name]["value"], "unit": entry["unit"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": result["failed"] == 0 and finite,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def run_workload(args, spec, deadline):
    arguments = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", "1" if args.trace else "0"]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        arguments += ["--spans-out",
                      os.path.join(SPANS_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    lines, result = run_binary(arguments, deadline)
    for line in lines:
        print(line)
    attempted = max(1, result["attempted"])
    print("  %-40s %16.6g %-8s (n=%d)" % ("error_rate", result["failed"] / attempted, "frac",
                                         attempted))
    print(json.dumps(summary_line(result, spec, args.trace)))


def self_test(spec):
    """Runs every workload at a tiny size: every named metric must be printed
    with its unit, no operation may fail, and the exact counts (messages per
    band, collective messages, tasks executed) must repeat bit-for-bit across
    two runs with the same seed."""
    problems = []
    layer_seen = set()
    for workload in WORKLOADS:
        exact = []
        for trace in ("0", "1", "1"):
            _, result = run_binary(["--workload", workload, "--seed", "7", "--seconds", "1",
                                    "--trace", trace, "--tiny"], time.monotonic() + RUN_LIMIT_S)
            names = spec["per_layer"] if trace == "1" else spec["end_to_end"]
            for entry in names:
                metric = result["metrics"].get(entry["name"])
                if metric is None:
                    if trace == "0":
                        problems.append("%s: %s missing" % (workload, entry["name"]))
                    continue
                if trace == "1":
                    layer_seen.add(entry["name"])
                if metric["unit"] != entry["unit"]:
                    problems.append("%s: %s unit %s, expected %s"
                                    % (workload, entry["name"], metric["unit"], entry["unit"]))
            if result["failed"] != 0:
                problems.append("%s (trace %s): %d failed: %s"
                                % (workload, trace, result["failed"], result["failures"]))
            if not result["exact"]:
                problems.append("%s: no exact counts" % workload)
            if trace == "1":
                exact.append(result["exact"])
        if exact[0] != exact[1]:
            problems.append("%s: exact counts differ across same-seed runs: %s vs %s"
                            % (workload, exact[0], exact[1]))
        print("self-test %s: exact counts %s" % (workload, exact[0]))
    for entry in spec["per_layer"]:
        if entry["name"] not in layer_seen:
            problems.append("no workload produces per-layer metric %s" % entry["name"])
    for problem in problems:
        print("FAIL: " + problem)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    build()
    if args.self_test:
        sys.exit(self_test(spec))
    run_workload(args, spec, time.monotonic() + RUN_LIMIT_S)


if __name__ == "__main__":
    main()
