#!/usr/bin/env python3
"""Run the end-to-end benchmark on one workload.

    python3 e2ebench/run.py --workload paper_attacks --seed 1 --seconds 20 --trace 0

Builds the e2ebench binary (CMake, Release, under .bench_build/ in the
checkout), runs it, checks a traced run's trace with tools/check_trace.py,
and prints the result object as the last line of standard output. The
workloads, metrics and layer map are described in e2ebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("paper_attacks", "defense_matrix", "fleet_population")

# Spans the traced run must leave in its trace, per workload kind.
XP_SPANS = ("trial", "attack.step", "attack.absorb", "defense.stack", "core.victim",
            "helperdata.parse_check", "sim.measure_batch", "ecc.regen")
FLEET_SPANS = ("fleet.pass", "fleet.enroll", "fleet.map_open", "fleet.campaign",
               "fleet.shard", "fleet.shard_replay")


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the benchmark binary."""
    for needed in ("CMakeLists.txt", "src/ropuf", "bench/bench_util.hpp", "tools/check_trace.py"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found beside e2ebench/: run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    try:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"build failed: {e}") from e


def load_pins(smoke):
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)["smoke" if smoke else "full"]


def run_timeout_s(seconds):
    """How long one run may take: the measured seconds, the canonical pass,
    set-ups and the last pass beyond them, and a traced run's reference
    pass."""
    return 2 * seconds + 100


def run(workload, seed, seconds, trace, smoke=False):
    """Runs the binary once; returns (report lines, detail dict, result dict)."""
    pin = load_pins(smoke).get(workload)
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--work-dir", work]
        if smoke:
            cmd.append("--smoke")
        if pin:
            cmd += ["--pin", pin]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=run_timeout_s(seconds))
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{workload} did not finish within {run_timeout_s(seconds)} s") from e
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"e2ebench exited with code {proc.returncode}")
        detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
        result = json.loads(lines[-1])
        if trace:
            spans = FLEET_SPANS if workload == "fleet_population" else XP_SPANS
            check = [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
                     detail["trace"]]
            for span in spans:
                check += ["--require-span", span]
            verdict = subprocess.run(check, stdout=sys.stderr, stderr=sys.stderr)
            if verdict.returncode != 0:
                print("e2ebench: FAILED: the trace did not pass tools/check_trace.py",
                      file=sys.stderr)
                result["correct"] = False
                result["failed"] += 1
        for name, metric in result["metrics"].items():
            if not math.isfinite(metric["value"]):
                raise BenchError(f"metric {name} is not finite")
        return lines[:-1], detail, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds within 1..600")
    try:
        build()
        lines, _, result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
