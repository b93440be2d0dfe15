#!/usr/bin/env python3
"""Repository benchmark for the reuse-cache simulator.

Run from the repository root:

    python3 perfbench/run.py --workload kernel-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The script builds the simulator library (../src), the sweep harness
(../bench/harness.cc) and the benchmark binary (perfbench/src) with CMake
into .bench_build/ as a Release build, then runs one workload:

  kernel-mix    serial plain Cmp runs: the simulation kernel alone
  sweep-repeat  a cold and a warm fan-out sweep sharing a feed cache
  daemon-rpc    two closed-loop clients against an in-process daemon

BENCHMARK.json gates the first two.  daemon-rpc runs the same way and
prints request latency percentiles, but its throughput swings too far
between runs on a shared 4-vCPU host (first-seen requests fsync the
result cache) to carry a bound; its layers are measured in every traced
run.

Untraced runs (--trace 0) report the end-to-end metrics of BENCHMARK.json,
each the median over PROCESSES fresh processes; their times are in
"reference seconds" (host seconds scaled by a fixed reference loop timed
next to each unit of work, see perfbench/src/support.hh), and the raw
host throughput is printed beside them.  Traced runs (--trace 1) report
the per-layer metrics.  The binary's output starts with a run manifest
(source revision, compiler, build flags, CPU, seed); its last line,
reprinted here holding exactly the metrics BENCHMARK.json lists for the
mode, is one JSON object {"correct", "attempted", "failed", "metrics"}.
Traced runs also leave their spans in .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
GOLDENS = os.path.join(ROOT, "perfbench", "goldens.json")
RUN_TIMEOUT_S = 170
PROCESSES = 4
SERIAL_WORKLOADS = ("kernel-mix",)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_revision():
    """git HEAD when available, else a digest of the benchmarked sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    for need in ("src/CMakeLists.txt", "bench/harness.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("missing %s: run from a checkout of the simulator" % need, 2)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)


def run_workload(args, spec):
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # Untraced runs split their time over PROCESSES fresh processes and
    # report each metric's median across them: on a shared host a
    # process's speed also depends on where its memory landed, which
    # no number of repetitions inside one process averages out.
    processes = 1 if args.trace else PROCESSES
    # A serial workload runs its processes side by side, each pinned to
    # its own CPU, so one run samples every CPU of a host whose CPUs
    # slow down independently; others run them one after another.
    cpus = sorted(os.sched_getaffinity(0))
    side_by_side = (args.workload in SERIAL_WORKLOADS and processes > 1
                    and len(cpus) >= processes)
    rev = source_revision()

    def command(seconds):
        return [BINARY, args.workload, "--seed", str(args.seed),
                "--seconds", "%g" % seconds, "--trace", str(args.trace),
                "--goldens", GOLDENS, "--out", os.path.join(ROOT, ".bench_out"),
                "--rev", rev]

    if side_by_side:
        procs = [subprocess.Popen(command(args.seconds), cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  preexec_fn=lambda c=cpus[k]:
                                  os.sched_setaffinity(0, {c}))
                 for k in range(processes)]
        outputs = []
        for p in procs:
            try:
                out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for q in procs:
                    q.kill()
                    q.wait()
                fail("run exceeded %d s" % RUN_TIMEOUT_S)
            outputs.append((p.returncode, out))
    else:
        outputs = []
        for k in range(processes):
            try:
                p = subprocess.run(command(args.seconds / processes),
                                   cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True,
                                   timeout=RUN_TIMEOUT_S / processes)
            except subprocess.TimeoutExpired as e:
                sys.stdout.write(e.stdout or "")
                fail("run exceeded %d s" % RUN_TIMEOUT_S)
            outputs.append((p.returncode, p.stdout))

    results = []
    for k, (code, out) in enumerate(outputs):
        lines = out.rstrip("\n").split("\n")
        if code != 0:
            sys.stdout.write(out)
            fail("perfbench exited with %d" % code)
        try:
            results.append(json.loads(lines[-1]))
        except ValueError:
            sys.stdout.write(out)
            fail("perfbench printed no result line")
        for line in lines[:-1]:
            print("[%d] %s" % (k, line) if processes > 1 else line)

    emitted = {}
    for r in results:
        for name, m in r["metrics"].items():
            emitted.setdefault(name, (m["unit"], []))[1].append(m["value"])
    for name, (unit, values) in emitted.items():
        if processes > 1:
            print("median %s = %.6g %s (per process: %s)"
                  % (name, statistics.median(values), unit,
                     ", ".join("%.6g" % v for v in values)))
    metrics = {}
    for m in wanted:
        if m["name"] not in emitted:
            fail("metric %s was not emitted" % m["name"])
        unit, values = emitted[m["name"]]
        if unit != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], unit, m["unit"]))
        value = statistics.median(values)
        if not math.isfinite(value):
            fail("metric %s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    sys.stdout.flush()


def self_test(spec):
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    if len(set(names)) != len(names):
        fail("BENCHMARK.json uses a metric name twice")
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    return subprocess.run([BINARY, "selftest"] + names,
                          cwd=os.path.join(ROOT, ".bench_tmp")).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    build()
    if args.self_test:
        sys.exit(self_test(spec))
    if not args.workload:
        fail("--workload is required", 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    run_workload(args, spec)


if __name__ == "__main__":
    main()
