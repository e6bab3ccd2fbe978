"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Feeds the gate deliberately wrong material and checks that it notices:
a wrong expected survivor set and a corrupted witness must each raise
the failure ratio above 0, while a frontier probe that hits the guard
(exit 3) or the time limit must end the climb without counting as a
failure. Takes about ten seconds; exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import random
import sys

import harness
import run


def wrong_survivors() -> bool:
    """Expecting no survivors where the theorem has two must fail."""
    work = run.Workload("verify-sweep", 0)
    inv = harness.invoke(run.verify_args("full", 2, timing=False))
    work.gate(harness.verify_problems(inv.rc, inv.stdout, "full", 2), "true expectation")
    work.gate(
        harness.verify_problems(inv.rc, inv.stdout, "full", 2, expected=lambda s, n, q: {}),
        "wrong expectation",
    )
    return work.tally.failed == 1 and 1 - work.tally.pass_ratio > 0


def corrupted_witness() -> bool:
    """A witness whose observed outcome is swapped must not replay."""
    work = run.Workload("check-axioms", 0)
    inp = next(harness.check_inputs(random.Random(0)))
    path = harness.write_table(inp, "selftest")
    try:
        args, problems = run.check_calls(inp, path)[1]
        inv = harness.invoke(args)
    finally:
        path.unlink()
    work.gate(problems(inv.rc, inv.stdout), "true witnesses")
    reports = json.loads(inv.stdout)
    for r in reports:
        if not r["passed"]:
            w = r["witness"]
            w["observed"] = "X" if w["observed"] == "Y" else "Y"
            break
    work.gate(problems(inv.rc, json.dumps(reports)), "corrupted witness")
    return work.tally.failed == 1 and 1 - work.tally.pass_ratio > 0


def guard_ends_probe() -> bool:
    """Full n=3 exits 3: the climb stops at n=2 and nothing failed."""
    saved = run.LADDER, run.REFERENCE
    run.LADDER, run.REFERENCE = (2, 3), {"full": 2, "anonymous": 2}
    try:
        work = run.Workload("frontier-10s", 0)
        sample = run.Sample()
        work.frontier(sample)
    finally:
        run.LADDER, run.REFERENCE = saved
    guard = [e for e in work.log if e.get("space") == "full" and e.get("rc") == harness.EXIT_GUARD]
    return bool(guard) and sample.reached["full"] == 2 and work.tally.failed == 0


def time_limit_ends_probe() -> bool:
    """A probe killed at the limit is not reached, and not a failure."""
    saved = run.LADDER, harness.PROBE_LIMIT_S
    run.LADDER, harness.PROBE_LIMIT_S = (2,), 0.01
    try:
        work = run.Workload("frontier-10s", 0)
        sample = run.Sample()
        work.frontier(sample)
    finally:
        run.LADDER, harness.PROBE_LIMIT_S = saved
    killed = all(e.get("rc") is None for e in work.log)
    return killed and sample.reached == {"full": 1, "anonymous": 1} and work.tally.failed == 0


def main() -> int:
    harness.require_source()
    sys.path.insert(0, str(harness.SRC))
    ok = True
    for case in (wrong_survivors, corrupted_witness, guard_ends_probe, time_limit_ends_probe):
        passed = case()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {case.__name__}: {case.__doc__}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
