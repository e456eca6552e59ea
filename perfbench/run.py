#!/usr/bin/env python3
"""Builds and runs perfbench, the stack benchmark, for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source tree. The first run configures and builds
the benchmark (with the repository's libraries, from source) under
.bench_build/perfbench; later runs reuse that build. A run prints a
human-readable report and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer ledger with --trace 1 (which also writes a Chrome
trace under .bench_build/traces). The exit status is 0 only if every output
of the workload was checked correct.
"""

import argparse
import fcntl
import hashlib
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
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_catalogue():
    with open(os.path.join(HERE, "layers.json")) as f:
        catalogue = json.load(f)
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_path):
        # The benchmark definition and this catalogue must name the same metrics.
        with open(bench_path) as f:
            bench = json.load(f)
        for kind in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
            known = [(m["name"], m["unit"], m["better"]) for m in catalogue[kind]]
            if listed != known:
                fail(f"BENCHMARK.json {kind} does not match perfbench/layers.json")
        if sorted(w["name"] for w in bench["workloads"]) != sorted(catalogue["workloads"]):
            fail("BENCHMARK.json workloads do not match perfbench/layers.json")
    return catalogue


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "xmpi", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT} (expected src/xmpi); nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    configure += ["-G", "Ninja"]
                if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT, timeout=600).returncode:
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                    os.makedirs(BUILD_DIR, exist_ok=True)
                    fail_with_log(log_path, "configure failed")
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT, timeout=800).returncode:
                fail_with_log(log_path, "build failed")
    # Write the build's output back now, not while the workload is timed.
    os.sync()
    return os.path.join(BUILD_DIR, "perfbench")


def fail_with_log(log_path, message):
    try:
        with open(log_path) as f:
            tail = f.readlines()[-30:]
        sys.stderr.write("".join(tail))
    except OSError:
        pass
    fail(f"{message} (log: {log_path})")


def provenance():
    """Git commit when the tree is a git checkout, and a digest of the sources."""
    sha = "unavailable (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def check_trace(path, p):
    """The trace must load as Chrome trace-event JSON with a lane per rank."""
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        return False, f"trace does not load: {e}"
    events = trace.get("traceEvents", [])
    lanes = {e.get("tid") for e in events if e.get("ph") == "X"}
    if lanes != set(range(p)):
        return False, f"trace has lanes {sorted(lanes)}, expected one per rank 0..{p - 1}"
    return True, f"{len(events)} events, {len(lanes)} lanes"


def main():
    catalogue = load_catalogue()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalogue["workloads"]))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        command += ["--trace-out", trace_path]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no report from the benchmark binary (exit status {proc.returncode})")

    kind = "per_layer" if args.trace else "end_to_end"
    problems = list(report.get("errors", []))
    metrics = {}
    for spec in catalogue[kind]:
        got = report["metrics"].get(spec["name"])
        if got is None or got.get("unit") != spec["unit"] or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            problems.append(f"metric {spec['name']} missing or malformed")
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    trace_note = None
    if args.trace:
        ok, trace_note = check_trace(trace_path, report["p"])
        if not ok:
            problems.append(trace_note)
    correct = bool(report.get("correct")) and proc.returncode == 0 and not problems

    # Human-readable report, then the result line.
    prov = provenance()
    host = report["host"]
    census = report["census"]
    caches = ", ".join(f"{k} {v}" for k, v in host["caches"].items())
    print(f"perfbench {args.workload}: seed {args.seed}, p {report['p']}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}, wall {time.monotonic() - started:.1f} s")
    print(f"  host: nproc {host['nproc']}; caches {caches}; {host['compiler']}; build {host['build_type']}")
    print(f"  source: git {prov['git_sha']}; sha256 {prov['source_sha256']}")
    print(f"  threads: rank+engine max {census['rank_and_engine_threads_max']} "
          f"(ranks {census['rank_threads']}, engine cap {census['engine_threads_cap']}) <= nproc "
          f"{census['limit_nproc']}: {census['ok']}; process max {census['process_threads_max']}")
    print(f"  correctness: attempted {report['attempted']}, failed {report['failed']}, "
          f"error_rate {report['error_rate']:g}")
    for problem in problems:
        print(f"  ERROR: {problem}")
    for name, got in report["metrics"].items():
        notes = []
        if "samples" in got:
            notes.append(f"n={got['samples']:g}")
        if "band" in got:
            notes.append(f"band ±{got['band']:.3g}")
        if "resolved" in got:
            notes.append("resolved" if got["resolved"] else "unresolved")
        print(f"  {name:44s} {got['value']:16.6g} {got['unit']:6s} {' '.join(notes)}")
    if args.trace:
        spans = report["trace_spans"]
        print(f"  trace: {trace_path}: {trace_note}; {spans['ops']:g} traced ops, "
              f"op self {spans['op_self_us_per_op']:.3f} us/op")
        for name, layer in spans["layers"].items():
            print(f"    {name:40s} {layer['self_us_per_op']:12.3f} us/op {layer['self_us_per_call']:12.3f} us/call")
    print(json.dumps({"correct": correct, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
