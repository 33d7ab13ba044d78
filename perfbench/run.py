#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (a CMake package over the repository's layer libraries) into
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build.
Every run first passes the benchmark's own self-tests, then runs the
workload.  The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1.  A traced run also writes a Chrome trace
(open it in Perfetto) to .bench_out/<workload>-seed<N>.trace.json.
Exit status: 0 when every correctness check passed, nonzero otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"error: {msg}")
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}")
    jobs = str(max(1, min(8, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def select_metrics(raw, spec):
    """The metrics BENCHMARK.json publishes, with the units it declares.

    Every end-to-end metric must have been measured.  A per-layer metric a
    workload does not exercise (no campaigns in decode_paper, say) is 0.
    """
    out = {}
    for m in spec:
        got = raw.get(m["name"])
        if got is None:
            if "bound" in m:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("benchmark self-tests failed")

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"perfbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": select_metrics(raw["metrics"], spec)}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
