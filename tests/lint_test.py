#!/usr/bin/env python3
"""Self-test for tools/atpm_lint: every rule fires on its fixture violation,
suppression annotations work, and clean trees and the real tree report
zero findings.

Registered with ctest as `lint_test`; ATPM_REPO_ROOT points at the source
tree (defaults to two levels above this file).
"""

import os
import re
import subprocess
import sys

ROOT = os.environ.get(
    "ATPM_REPO_ROOT",
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LINT = os.path.join(ROOT, "tools", "atpm_lint", "atpm_lint.py")
TESTDATA = os.path.join(ROOT, "tools", "atpm_lint", "testdata")

FAILURES = []


def check(name, condition, detail=""):
    if condition:
        print("ok   %s" % name)
    else:
        print("FAIL %s %s" % (name, detail))
        FAILURES.append(name)


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def findings_by_rule(stdout):
    counts = {}
    for m in re.finditer(r"\[([a-z-]+)\]", stdout):
        counts[m.group(1)] = counts.get(m.group(1), 0) + 1
    return counts


def main():
    # ---- violations tree: every rule fires, at the expected sites.
    code, out, _ = run_lint("--root", os.path.join(TESTDATA, "violations"))
    check("violations tree exits 1", code == 1, "exit=%d" % code)
    counts = findings_by_rule(out)
    # (rule, minimum distinct findings) — one per deliberate violation.
    expectations = (
        ("rng-discipline", 5),        # random_device, time, srand, rand, mt19937
        ("determinism-hygiene", 3),   # range-for, iterator walk, ptr-keyed map
        ("mmap-safety", 4),           # const_cast, bare MutableVec, 2x outside
        ("format-stability", 3),      # 2x unpinned header + 1 missing trivial
        ("failpoint-discipline", 4),  # 2x unregistered, non-literal, throw
        ("metrics-discipline", 5),    # non-literal, bad prefix, dup reg,
                                      # non-literal span, steady_clock
    )
    for rule, minimum in expectations:
        check("rule %s fires (>=%d)" % (rule, minimum),
              counts.get(rule, 0) >= minimum, "counts=%r" % counts)
    check("no unexpected rules", set(counts) == {r for r, _ in expectations},
          "counts=%r" % counts)
    # Specific sites that must be flagged.
    for needle in (
            "bad_rng.cc:11", "bad_rng.cc:16", "bad_rng.cc:20",
            "bad_rng.cc:21", "bad_rng.cc:25",
            "bad_determinism.cc:18", "bad_determinism.cc:23",
            "bad_determinism.cc:32",
            "bad_mmap.cc:26", "bad_mmap.cc:32",
            "bad_outside_mutation.cc:27", "bad_outside_mutation.cc:31",
            "graph_store.cc:13", "graph_store.cc:21",
            "bad_failpoints.cc:9", "bad_failpoints.cc:10",
            "bad_failpoints.cc:11", "bad_failpoints.cc:13",
            "bad_metrics.cc:13", "bad_metrics.cc:14", "bad_metrics.cc:16",
            "bad_metrics.cc:20", "bad_metrics.cc:26",
    ):
        check("flags %s" % needle, needle in out)
    # Sites that must NOT be flagged (allow-path / lookup-only / pinned).
    for forbidden in ("bad_mmap.cc:40", "FixtureSection", "ParseScratch",
                      "Operand", "ElapsedTime", "bad_failpoints.cc:8",
                      "engine.serial_batch", "bad_metrics.cc:21",
                      "atpm_fixture_probes_total"):
        check("does not flag %s" % forbidden, forbidden not in out,
              "output:\n%s" % out)

    # ---- suppressed tree: annotations silence every finding.
    code, out, _ = run_lint("--root", os.path.join(TESTDATA, "suppressed"))
    check("suppressed tree exits 0", code == 0,
          "exit=%d output:\n%s" % (code, out))

    # ---- clean tree.
    code, out, _ = run_lint("--root", os.path.join(TESTDATA, "clean"))
    check("clean tree exits 0", code == 0,
          "exit=%d output:\n%s" % (code, out))

    # ---- the real tree must be clean (this is the CI gate).
    code, out, err = run_lint("--root", ROOT)
    check("real tree exits 0", code == 0,
          "exit=%d output:\n%s%s" % (code, out, err))

    if FAILURES:
        print("\n%d check(s) failed: %s" % (len(FAILURES), FAILURES))
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
