#!/usr/bin/env python3
"""Fail CI when the benchmark numbers regress.

Two inputs, either or both:

  * --fresh-ledger: the captured standard output of
    `perfbench/run.py --workload <w> --seed 1 --seconds 0.1 --trace 1`, one
    file per workload. Its deterministic counters (RR sets, pools, edges,
    RNG draws, pool fills, decisions, seeds, profit) are functions of the
    seed alone, so they are compared for exact equality against
    bench/baselines/perfbench_counters.json: any change is a behaviour
    change, not noise.
  * --fresh: google-benchmark JSON written by micro_substrates with the
    BM_Kernel* series. Wall-clock is machine-dependent, so only ratios of
    two variants measured in the same run are checked, against the fixed
    bounds below. They cover what neither the ledger nor a ctest sees: the
    LT reverse walk and whole-world sampling run in no ledger workload's
    timed loop, and the batched pool fill's one alive-list build on a
    depleted graph moves no counter.

Stdlib only; exit 0 = no regression, 1 = regression or malformed input.
"""

import argparse
import json
import re
import sys

EPS = 1e-9

# Most a jump:1 variant's CPU time may be, as a multiple of its jump:0
# (per-edge) twin's.
MAX_JUMP_TIME_RATIO = {
    "BM_KernelLtRrGeneration/weighting:0": 1.567,
    "BM_KernelLtRrGeneration/weighting:1": 1.808,
    "BM_KernelWorldSample/weighting:0": 3.007,
    "BM_KernelWorldSample/weighting:1": 1.335,
    "BM_KernelWorldSample/weighting:2": 1.549,
}
# Least items/s of BM_KernelBatchGeneration/batched:1, as a multiple of
# batched:0's (one GenerateBatch call vs a Generate loop on a depleted
# residual graph).
MIN_BATCHED_SPEEDUP = 11.68


class Checker:
    def __init__(self):
        self.failures = []
        self.checks = 0

    def expect(self, ok, message):
        self.checks += 1
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {message}")
        if not ok:
            self.failures.append(message)


def load_variants(path, knob):
    """google-benchmark JSON -> {family: {variant: entry}} for `knob`.

    BM_Foo/weighting:1/jump:0 is variant 0 of family BM_Foo/weighting:1
    for knob=jump; aggregates are skipped.
    """
    with open(path) as f:
        data = json.load(f)
    families = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        match = re.search(rf"/{knob}:(\d+)", entry["name"])
        if match is None:
            continue
        family = entry["name"].replace(match.group(0), "")
        families.setdefault(family, {})[int(match.group(1))] = entry
    return families


def check_micro(check, path):
    print(f"micro benchmarks: {path}")
    jump = load_variants(path, "jump")
    for family, bound in MAX_JUMP_TIME_RATIO.items():
        pair = jump.get(family, {})
        if len(pair) != 2:
            check.expect(False, f"{family}: jump:0 and jump:1 present")
            continue
        ratio = pair[1]["cpu_time"] / max(pair[0]["cpu_time"], EPS)
        check.expect(ratio <= bound,
                     f"{family}: jump/per-edge time ratio {ratio:.3f} "
                     f"<= {bound:g}")
    pair = load_variants(path, "batched").get("BM_KernelBatchGeneration", {})
    if len(pair) != 2:
        check.expect(False,
                     "BM_KernelBatchGeneration: batched:0 and batched:1 "
                     "present")
        return
    speedup = (pair[1]["items_per_second"] /
               max(pair[0]["items_per_second"], EPS))
    check.expect(speedup >= MIN_BATCHED_SPEEDUP,
                 f"BM_KernelBatchGeneration: batched speedup "
                 f"{speedup:.2f}x >= {MIN_BATCHED_SPEEDUP:g}x")


def load_ledger_run(path):
    """Ledger stdout -> (workload, seed, {metric: value}).

    The input record line names the workload and seed; the last line is the
    result JSON.
    """
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    workload = seed = None
    for line in lines:
        if line.startswith("{") and '"input"' in line:
            record = json.loads(line)["input"]
            workload, seed = record["workload"], record["seed"]
            break
    result = json.loads(lines[-1])
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    return workload, seed, metrics


def check_ledger(check, fresh_paths, baseline):
    counters = baseline["counters"]
    expected = baseline["workloads"]
    print(f"perfbench ledger: {len(fresh_paths)} run(s), seed "
          f"{baseline['seed']}, {len(counters)} exact counters")
    seen = set()
    for path in fresh_paths:
        workload, seed, metrics = load_ledger_run(path)
        if workload not in expected:
            check.expect(False, f"{path}: workload {workload} has a baseline")
            continue
        seen.add(workload)
        check.expect(seed == baseline["seed"],
                     f"{workload}: seed {seed} == baseline seed "
                     f"{baseline['seed']}")
        for name in counters:
            want = expected[workload][name]
            got = metrics.get(name)
            check.expect(got == want,
                         f"{workload}: {name} {got} == baseline {want}")
    missing = sorted(set(expected) - seen)
    check.expect(not missing,
                 f"every baseline workload ran (missing: {missing})"
                 if missing else "every baseline workload ran")


def main():
    parser = argparse.ArgumentParser(
        description="Fail CI when the ledger counters or the same-run "
                    "micro benchmark ratios regress.")
    parser.add_argument("--fresh",
                        help="micro_substrates google-benchmark JSON with "
                             "the BM_Kernel* series")
    parser.add_argument("--fresh-ledger", nargs="+",
                        help="captured perfbench/run.py standard output, "
                             "one file per workload")
    parser.add_argument("--baseline-ledger",
                        default="bench/baselines/perfbench_counters.json",
                        help="checked-in ledger counters (default "
                             "bench/baselines/perfbench_counters.json)")
    args = parser.parse_args()
    if not args.fresh and not args.fresh_ledger:
        parser.error("nothing to check: pass --fresh and/or --fresh-ledger")

    check = Checker()
    if args.fresh:
        check_micro(check, args.fresh)
    if args.fresh_ledger:
        with open(args.baseline_ledger) as f:
            baseline_ledger = json.load(f)
        check_ledger(check, args.fresh_ledger, baseline_ledger)

    if check.failures:
        print(f"\n{len(check.failures)}/{check.checks} checks FAILED")
        return 1
    print(f"\nall {check.checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
