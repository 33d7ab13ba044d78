#!/usr/bin/env python3
"""Perf-regression gate: diff fresh BENCH_*.json snapshots against committed
baselines and exit nonzero when something got worse.

Field policy (what "worse" means):

* Booleans (bit_identical, token_agreement, post_storm_healthy, ...) are
  correctness claims: any flip from the baseline fails, in either direction —
  a baseline that claims false when the fresh run says true means the
  baseline is stale and must be refreshed deliberately.
* Config fields ("scale", "smoke", "bench", and the per-bench STRICT_KEYS
  accounting/shape numbers) must match exactly: a drifted config silently
  invalidates every comparison, so the diff refuses to compare apples to
  pears and tells you to refresh the baselines instead.  STRICT_KEYS also
  holds deterministic work counters (training GEMM calls, fixed-budget
  datagen attempts, AC measurements and Newton iterations, the decode
  batch's stacked group steps): they do not
  depend on the host, so any change is real and must be re-baselined on
  purpose.
* In-process ratio fields (*speedup*, decode_occupancy) gate throughput:
  fresh >= baseline * (1 - tolerance).  Both sides of a ratio come from the
  same run, so host speed cancels out of it.  The default tolerance is
  generous, so the gate targets step-change regressions (a lost SIMD tier,
  accidentally-enabled telemetry).
* Absolute rates (*_per_sec) and everything else numeric (seconds,
  latencies, error bounds) are reported informationally but never fail the
  gate: smoke windows of tens of milliseconds swing by +-30% on unchanged
  code, and absolute throughput is gated by the repo benchmark
  (BENCHMARK.json, perfbench/).
* "runs" arrays are matched per-entry by thread count and the same policy
  applies inside each entry.
* A fresh key missing from the baseline warns (new fields appear when
  benches grow); a baseline key missing from the fresh snapshot fails (a
  bench silently lost coverage).

Usage:
  scripts/bench_diff.py --baseline-dir bench/baselines --current-dir . \
      [--tolerance 0.35] [--report bench_diff_report.txt] [--allow-missing]
  scripts/bench_diff.py --self-test
"""

import argparse
import json
import os
import sys
import tempfile

BENCHES = ["train", "ac", "campaign", "infer", "fault"]

# Numeric fields that must match the baseline exactly: workload shape,
# exactly-once accounting and deterministic work counters.  A mismatch means
# config drift, an accounting bug or changed work, not noise.
STRICT_KEYS = {
    "train_runtime": ["corpus_pairs", "epochs", "batch_size",
                      "gemm_nn_calls", "gemm_nt_calls", "gemm_tn_calls",
                      "datagen_attempts", "datagen_ac_measurements",
                      "datagen_newton_iterations"],
    "ac_sweep": ["points", "system_size"],
    "campaign_server": ["campaigns", "workers", "overload_attempts",
                        "overload_queue_cap"],
    "infer_tier": ["probes", "max_tokens", "decode_steps_per_pass",
                   "batch_group_steps", "repeats"],
    "fault_storm": ["campaigns", "served", "failed", "retried", "recovered",
                    "degrade_campaigns", "degrade_failed"],
}

# String-valued config fields: strict equality.
STRICT_STRINGS = ["bench", "scale", "storm_spec"]
# "smoke" is a boolean but semantically config; booleans are strict anyway.


def is_ratio_key(key):
    return "speedup" in key or key == "decode_occupancy"


class Diff:
    def __init__(self):
        self.failures = []
        self.warnings = []
        self.infos = []

    def fail(self, msg):
        self.failures.append(msg)

    def warn(self, msg):
        self.warnings.append(msg)

    def info(self, msg):
        self.infos.append(msg)


def diff_scalar(diff, bench, key, base, cur, tolerance, strict_nums):
    where = f"{bench}.{key}"
    if isinstance(base, bool) or isinstance(cur, bool):
        if base != cur:
            diff.fail(f"{where}: boolean flipped {base} -> {cur} "
                      f"(correctness claim changed; if intentional, refresh "
                      f"bench/baselines/)")
        return
    if isinstance(base, str) or isinstance(cur, str):
        if key in STRICT_STRINGS and base != cur:
            diff.fail(f"{where}: config drift '{base}' -> '{cur}' "
                      f"(baseline and run disagree on what was measured; "
                      f"refresh bench/baselines/ for the new config)")
        elif base != cur:
            diff.warn(f"{where}: '{base}' -> '{cur}'")
        return
    # Numeric.
    if key in strict_nums:
        if base != cur:
            diff.fail(f"{where}: strict field {base} -> {cur} "
                      f"(workload shape / accounting must match the baseline "
                      f"exactly; refresh bench/baselines/ if intentional)")
        return
    if is_ratio_key(key):
        floor = base * (1.0 - tolerance)
        if cur < floor:
            diff.fail(f"{where}: throughput regression {base:g} -> {cur:g} "
                      f"(below floor {floor:g} = baseline * "
                      f"(1 - {tolerance:g}))")
        else:
            diff.info(f"{where}: {base:g} -> {cur:g} (floor {floor:g}, ok)")
        return
    diff.info(f"{where}: {base:g} -> {cur:g} (informational)")


def diff_runs(diff, bench, base_runs, cur_runs, tolerance):
    base_by_threads = {r.get("threads"): r for r in base_runs}
    cur_by_threads = {r.get("threads"): r for r in cur_runs}
    for threads, base_run in base_by_threads.items():
        cur_run = cur_by_threads.get(threads)
        if cur_run is None:
            diff.fail(f"{bench}.runs: baseline has a threads={threads} entry "
                      f"the fresh snapshot lost")
            continue
        for key, base_val in base_run.items():
            if key == "threads":
                continue
            if key not in cur_run:
                diff.fail(f"{bench}.runs[threads={threads}].{key}: missing "
                          f"from fresh snapshot")
                continue
            diff_scalar(diff, f"{bench}.runs[threads={threads}]", key,
                        base_val, cur_run[key], tolerance, strict_nums=())
    for threads in cur_by_threads:
        if threads not in base_by_threads:
            diff.warn(f"{bench}.runs: new threads={threads} entry not in "
                      f"baseline")


def diff_bench(diff, name, baseline, current, tolerance):
    bench_id = baseline.get("bench", name)
    strict_nums = STRICT_KEYS.get(bench_id, [])
    for key, base_val in baseline.items():
        if key not in current:
            diff.fail(f"{name}.{key}: present in baseline, missing from "
                      f"fresh snapshot")
            continue
        cur_val = current[key]
        if key == "runs":
            diff_runs(diff, name, base_val, cur_val, tolerance)
        else:
            diff_scalar(diff, name, key, base_val, cur_val, tolerance,
                        strict_nums)
    for key in current:
        if key not in baseline:
            diff.warn(f"{name}.{key}: new field not in baseline "
                      f"(add it on the next baseline refresh)")


def run_diff(args):
    diff = Diff()
    compared = []
    for name in args.benches:
        base_path = os.path.join(args.baseline_dir, f"BENCH_{name}.json")
        cur_path = os.path.join(args.current_dir, f"BENCH_{name}.json")
        if not os.path.exists(base_path):
            diff.warn(f"{name}: no baseline at {base_path} (gate skipped; "
                      f"commit one via scripts/bench_snapshot.sh)")
            continue
        if not os.path.exists(cur_path):
            msg = (f"{name}: fresh snapshot {cur_path} absent "
                   f"(bench skipped or failed upstream)")
            if args.allow_missing:
                diff.warn(msg)
            else:
                diff.fail(msg)
            continue
        try:
            with open(base_path) as f:
                baseline = json.load(f)
            with open(cur_path) as f:
                current = json.load(f)
        except json.JSONDecodeError as e:
            diff.fail(f"{name}: unparseable snapshot JSON: {e}")
            continue
        compared.append(name)
        diff_bench(diff, name, baseline, current, args.tolerance)

    lines = []
    lines.append(f"bench_diff: compared {len(compared)} snapshot(s) "
                 f"({', '.join(compared) or 'none'}) at tolerance "
                 f"{args.tolerance:g}")
    for f in diff.failures:
        lines.append(f"FAIL: {f}")
    for w in diff.warnings:
        lines.append(f"warn: {w}")
    for i in diff.infos:
        lines.append(f"  ok: {i}")
    verdict = "REGRESSED" if diff.failures else "OK"
    lines.append(f"verdict: {verdict} ({len(diff.failures)} failure(s), "
                 f"{len(diff.warnings)} warning(s))")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    return 1 if diff.failures else 0


def self_test():
    """Proves the gate actually gates: a clean pair passes, a regressed ratio
    fails, a flipped correctness bool fails, drifted config or a changed work
    counter fails (a decode batch that steps each request alone, too), and a
    missing fresh snapshot fails; a drop in an absolute rate alone passes."""
    baseline = {
        "bench": "train_runtime", "scale": "small", "smoke": True,
        "corpus_pairs": 48, "epochs": 2, "batch_size": 16,
        "bit_identical": True,
        "gemm_nn_calls": 9432, "gemm_nt_calls": 9036, "gemm_tn_calls": 8748,
        "runs": [
            {"threads": 1, "seconds": 10.0, "examples_per_sec": 100.0,
             "speedup": 1.0},
            {"threads": 4, "seconds": 3.0, "examples_per_sec": 330.0,
             "speedup": 3.3},
        ],
    }

    infer_baseline = {
        "bench": "infer_tier", "scale": "small", "smoke": True,
        "probes": 8, "max_tokens": 96, "decode_steps_per_pass": 768,
        "batch_group_steps": 96, "repeats": 2,
        "f32_speedup": 1.67, "token_agreement": True, "deterministic": True,
    }

    def run_case(name, mutate, expect_fail, allow_missing=False,
                 write_current=True, bench="train", base=baseline):
        snapshot = f"BENCH_{bench}.json"
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "base")
            cur_dir = os.path.join(tmp, "cur")
            os.makedirs(base_dir)
            os.makedirs(cur_dir)
            with open(os.path.join(base_dir, snapshot), "w") as f:
                json.dump(base, f)
            current = json.loads(json.dumps(base))  # deep copy
            mutate(current)
            if write_current:
                with open(os.path.join(cur_dir, snapshot), "w") as f:
                    json.dump(current, f)
            args = argparse.Namespace(
                baseline_dir=base_dir, current_dir=cur_dir,
                tolerance=0.35, report=None, allow_missing=allow_missing,
                benches=[bench])
            rc = run_diff(args)
            failed = rc != 0
            status = "ok" if failed == expect_fail else "SELF-TEST BROKEN"
            print(f"[self-test] {name}: expected "
                  f"{'fail' if expect_fail else 'pass'}, got "
                  f"{'fail' if failed else 'pass'} -> {status}")
            return failed == expect_fail

    ok = True
    ok &= run_case("identical snapshots pass", lambda c: None, False)
    ok &= run_case(
        "small ratio wobble within tolerance passes",
        lambda c: c["runs"][1].update(speedup=3.0), False)
    ok &= run_case(
        "ratio regression fails",
        lambda c: c["runs"][1].update(speedup=1.5), True)

    def drop_absolute_rates(c):
        for r in c["runs"]:
            r["examples_per_sec"] *= 0.3

    ok &= run_case("absolute rate drop alone passes (informational)",
                   drop_absolute_rates, False)
    ok &= run_case(
        "flipped correctness boolean fails",
        lambda c: c.update(bit_identical=False), True)
    ok &= run_case(
        "strict accounting drift fails",
        lambda c: c.update(corpus_pairs=47), True)
    ok &= run_case(
        "changed work counter fails",
        lambda c: c.update(gemm_tn_calls=8749), True)
    ok &= run_case(
        "decode batch stepping each request alone fails",
        lambda c: c.update(batch_group_steps=c["decode_steps_per_pass"]),
        True, bench="infer", base=infer_baseline)
    ok &= run_case(
        "config (scale) drift fails",
        lambda c: c.update(scale="paper"), True)
    ok &= run_case(
        "missing fresh snapshot fails",
        lambda c: None, True, write_current=False)
    ok &= run_case(
        "missing fresh snapshot tolerated with --allow-missing",
        lambda c: None, False, allow_missing=True, write_current=False)
    print(f"[self-test] {'ALL OK' if ok else 'FAILURES ABOVE'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--baseline-dir", default="bench/baselines")
    p.add_argument("--current-dir", default=".")
    p.add_argument("--tolerance", type=float, default=0.45,
                   help="allowed fractional drop on in-process ratio fields "
                        "(default 0.45: the gate is for step-change "
                        "regressions, not drift)")
    p.add_argument("--report", default=None,
                   help="also write the report to this path")
    p.add_argument("--allow-missing", action="store_true",
                   help="warn instead of fail when a fresh snapshot is "
                        "absent")
    p.add_argument("--benches", default=",".join(BENCHES),
                   help=f"comma-separated subset of {BENCHES}")
    p.add_argument("--self-test", action="store_true",
                   help="verify the gate fails on synthetic regressions")
    args = p.parse_args()
    if args.self_test:
        sys.exit(self_test())
    args.benches = [b.strip() for b in args.benches.split(",") if b.strip()]
    sys.exit(run_diff(args))


if __name__ == "__main__":
    main()
