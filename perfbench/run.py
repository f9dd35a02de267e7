#!/usr/bin/env python3
"""End-to-end benchmark of the FastCap repository.

Builds the benchmark program (perfbench/CMakeLists.txt, Release) from
the checkout's own sources into .bench_build/, runs one workload and
prints the program's metric table followed by one JSON result line:

    python3 perfbench/run.py --workload paper64 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (telemetry off); --trace 1
prints the per-layer metrics of a traced run. --smoke runs every
workload in both modes at tiny sizes and checks that each metric is
printed with a unit and a finite value (the benchmark's own test):

    python3 perfbench/run.py --smoke

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fastcap_perfbench")
WORKLOADS = ("paper64", "scale1024", "rack", "governor")
# A hung run is killed before three minutes are up.
RUN_TIMEOUT_S = 175
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build; an up-to-date build is a no-op."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target",
                  "fastcap_perfbench", "--parallel", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit (with -dirty when the measured sources differ
    from it), or a hash of src/ in a checkout without git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--",
                                       "src", "bench", "perfbench"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        if head.returncode == 0 and status.returncode == 0:
            return head.stdout.strip() + ("-dirty" if status.stdout else "")
    h = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1-" + h.hexdigest()[:12]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def validate(result, trace):
    """Problems with a result line, as a list of messages."""
    problems = []
    if list(result) != RESULT_KEYS:
        return ["result keys are %s, not %s" % (list(result), RESULT_KEYS)]
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing was attempted")
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if want is not None and sorted(metrics) != sorted(want):
        problems.append("metrics %s differ from BENCHMARK.json %s"
                        % (sorted(metrics), sorted(want)))
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"] or not m["unit"]:
            problems.append("metric %s lacks a unit or value" % name)
        elif not isinstance(m["value"], (int, float)) or \
                isinstance(m["value"], bool) or \
                not math.isfinite(m["value"]):
            problems.append("metric %s is not a finite number" % name)
    return problems


def fixed_layout():
    """The prefix that runs a program with address-space randomisation
    off, or [] where the host does not allow it.

    With randomisation on, each process gets its own heap and stack
    addresses, and on rack the same seed ran 14% apart from one process
    to the next; with it off, 3%."""
    cmd = ["setarch", os.uname().machine, "-R"]
    if shutil.which("setarch") is None:
        return []
    try:
        ok = subprocess.run(cmd + ["true"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        ok = False
    return cmd if ok else []


def run_benchmark(args):
    """Run the program; return (table lines, result line, parsed result)."""
    try:
        proc = subprocess.run(fixed_layout() + [BINARY] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1], object_pairs_hook=dict)
    except ValueError:
        fail("benchmark printed no result line")
    return lines[:-1], lines[-1], result


def smoke():
    """Every workload, both modes, tiny sizes: metrics present and finite."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            table, _, result = run_benchmark(
                ["--workload", workload, "--seed", "1", "--trace",
                 str(trace), "--smoke", "--commit", source_id()])
            problems = validate(result, trace)
            if not result["correct"] or result["failed"]:
                problems.append("output checks failed")
            # Every table row: name, finite value, unit, sample count.
            header = table.index(next(l for l in table
                                      if l.startswith("metric ")))
            for line in table[header + 1:]:
                if line.startswith(("largest share", "checks:")):
                    break
                parts = line.split()
                if len(parts) < 4 or not math.isfinite(float(parts[1])):
                    problems.append("bad table row: " + line)
            status = "ok" if not problems else "FAILED"
            print("smoke %-9s trace=%d: %s (%d metrics)"
                  % (workload, trace, status, len(result["metrics"])))
            for p in problems:
                print("  " + p)
            bad += bool(problems)
    if bad:
        fail("%d smoke run(s) failed" % bad)
    print("smoke: all %d runs passed" % (2 * len(WORKLOADS)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check "
                             "the output")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required (or --smoke)")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.smoke:
        smoke()
        return
    table, line, result = run_benchmark(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", source_id()])
    problems = validate(result, args.trace)
    sys.stdout.write("\n".join(table) + "\n")
    if problems:
        fail("invalid result line: " + "; ".join(problems))
    print(line)


if __name__ == "__main__":
    main()
