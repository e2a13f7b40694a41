#!/usr/bin/env python3
"""Build and run one workload of the request-anatomy benchmark.

    python3 perfbench/run.py --workload open-query --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Builds perfbench/anatomy.exe with dune
from the checkout's sources, runs it, checks that the metrics it printed
are exactly the ones BENCHMARK.json names for the mode, stamps a result
file under .perfbench_out/ with nproc, the OCaml version, the seed and
the run length, and prints the result as the last line of standard
output.  Exits non-zero, without a result line, when the build or the
run fails; a failed or wrong run still leaves a result file marked
"correct": false.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "anatomy.exe")
OUT = ".perfbench_out"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/anatomy.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
    return r.returncode == 0


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def ocaml_version():
    try:
        return subprocess.run([EXE, "--ocaml-version"], stdout=subprocess.PIPE,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs since boot, from
    /proc/stat; (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
        return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)
    except (OSError, ValueError):
        return 0, 0


def write_stamp(args, result, ticks0):
    """The result file: the result stamped with how it was obtained,
    including the share of CPU time the host stole from this machine
    while the run lasted (a virtual machine's neighbours slow every
    metric alike)."""
    os.makedirs(OUT, exist_ok=True)
    (s0, t0), (s1, t1) = ticks0, cpu_ticks()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml_version": ocaml_version(),
        "host_steal_share": (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0,
        "result": result,
    }
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(stamp, f, indent=1)


def failed(args, msg, ticks0):
    """Stamp a failed result, so that a comparison sees the failure, and
    exit without a result line."""
    write_stamp(args, {"correct": False, "attempted": 1, "failed": 1,
                       "metrics": {}}, ticks0)
    fail(msg)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.exists("dune-project"):
        fail("no dune-project here: run from the root of a full checkout")
    if not build():
        failed(args, "build failed", cpu_ticks())
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    ticks0 = cpu_ticks()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failed(args, "workload run timed out", ticks0)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        failed(args, "workload run failed (exit %d)" % r.returncode, ticks0)
    result = json.loads(lines[-1])
    names = sorted(result["metrics"])
    want = sorted(expected_metrics(args.trace))
    if names != want:
        failed(args, "metric names differ from BENCHMARK.json: %s"
               % sorted(set(names) ^ set(want)), ticks0)
    write_stamp(args, result, ticks0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
