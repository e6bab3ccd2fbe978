"""The qmvote benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S    # table of every workload
    python3 perfbench/selftest.py                          # the gate catches bad output

With ``--trace 0`` it drives the real CLI, ``python -m qmvote ...``, one
subprocess per invocation from a single client in a closed loop, and
reports the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` it
runs the same CLI calls in this process with spans around each layer
(see tracing.py) and reports the per-layer metrics; one that cannot be
measured, or has no base on the workload, reads -1. Every invocation goes
through a correctness gate (harness.py); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Workloads, and why each exists:

* ``verify-sweep`` runs ``verify --all-q --no-timing`` on the anonymous
  space at n=5 and the full space at n=2. Nearly all its time is the
  ``_kernels`` scan of 2^21 encodings per quota; the full-space call adds
  the profile-table build and the anonymity checks. It barely touches
  ``axioms``. A faster search shows here.
* ``check-axioms`` runs two ``check`` calls at n=8 per iteration on seeded
  inputs: a builtin quota rule, which passes and sweeps all 6561
  profiles three times, and that rule's table with one seeded cell
  flipped, which fails with witnesses. The flip lies among the last
  profiles in canonical order, so each check exits near the end of its
  sweep and every seed costs about the same. All work is in ``axioms``,
  ``core`` and ``rules``, with no scan at all. Cheaper profile tables
  show here.
* ``frontier-10s`` probes ``verify --n N --all-q --space S`` with default
  flags up a fixed ladder of N in each space until a probe runs past
  10 s, exits with the guard code 3, or fails: ROADMAP's headline reach.

Every workload reports every end-to-end metric:

* ``setup_s``: median wall time of a fresh ``python -m qmvote --help``.
* ``wall_s``: median wall time of one iteration, summed over its
  invocations. On ``frontier-10s`` only the probes at or below the
  reference frontier (``REFERENCE``) count, so that reaching further never
  reads as a slowdown.
* ``rules_per_s``: rules decided per second of that wall time:
  ``rules_examined`` from ``verify`` output, or one per ``check`` call.
* ``peak_rss_mb``: peak RSS of any child counted in ``wall_s``.
* ``max_n.full`` / ``max_n.anonymous``: the largest n at which every
  ``verify`` call of the workload in that space passed the gate within
  10 s, on every iteration; 1 when the workload makes no such call.
* ``pass_ratio``: invocations that passed the gate over those attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import harness
import tracing
from harness import invoke

# (space, n) of each verify-sweep call
SWEEP = (("anonymous", 5), ("full", 2))
# The frontier when this benchmark was defined. Frontier probes at or
# below it are always run, and are the ones frontier-10s times.
REFERENCE = {"full": 2, "anonymous": 5}
# Frontier probe sizes: every n while probes are cheap, then sparser so
# that a large reach stays inside the run's time.
LADDER = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64,
          80, 96, 112, 128, 160, 192, 256)
SETUP_REPS = 3
WORKLOADS = ("verify-sweep", "check-axioms", "frontier-10s")


def load_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


@dataclass
class Sample:
    """One iteration: its timed wall, rules decided, peak child RSS, and the
    largest n reached in each space by its verify calls."""

    wall_s: float = 0.0
    rules: int = 0
    rss_mb: float = 0.0
    reached: dict = field(default_factory=dict)

    def add(self, inv: harness.Invocation, rules: int) -> None:
        self.wall_s += inv.wall_s
        self.rules += rules
        self.rss_mb = max(self.rss_mb, inv.maxrss_mb)


class Workload:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.tally = harness.Tally()
        self.inputs = harness.check_inputs(random.Random(seed))
        self.log: list[dict] = []

    def gate(self, problems: list[str], what: str) -> bool:
        for problem in problems:
            print(f"gate: {what}: {problem}", file=sys.stderr)
        return self.tally.record(not problems, f"{what}: {'; '.join(problems)}")

    # ------------------------------------------------------------ end to end

    def setup_time(self) -> float:
        """One fresh ``--help``: interpreter start, imports, argument parsing."""
        inv = invoke(["--help"])
        self.gate([] if inv.rc == 0 and "Usage" in inv.stdout else [f"exit {inv.rc}"], "--help")
        return inv.wall_s

    def iterate(self, first: bool, budget_s: float) -> Sample:
        sample = Sample()
        if self.name == "verify-sweep":
            for space, n in SWEEP:
                args = verify_args(space, n, timing=False)
                inv = invoke(args)
                problems = harness.verify_problems(inv.rc, inv.stdout, space, n)
                ok = self.gate(problems, " ".join(args))
                sample.add(inv, harness.rules_examined(inv.stdout) if ok else 0)
                if ok and inv.wall_s <= harness.PROBE_LIMIT_S:
                    sample.reached[space] = n
        elif self.name == "check-axioms":
            self.check_iteration(sample)
        else:
            self.frontier(sample, climb=first, budget_s=budget_s)
        return sample

    @contextmanager
    def check_input(self):
        """The next seeded check input, written to a table file for the
        iteration, as the two check calls with their gates."""
        inp = next(self.inputs)
        self.log.append({"q": inp.q, "reform": inp.reform, "flipped": inp.flipped,
                         "table_sha256": inp.sha256})
        path = harness.write_table(inp, f"check-seed{self.seed}")
        try:
            yield check_calls(inp, path)
        finally:
            path.unlink()

    def check_iteration(self, sample: Sample) -> None:
        with self.check_input() as calls:
            for args, problems in calls:
                inv = invoke(args)
                ok = self.gate(problems(inv.rc, inv.stdout), " ".join(args))
                sample.add(inv, 1 if ok else 0)

    def frontier(self, sample: Sample, climb: bool = True, budget_s: float = float("inf")) -> None:
        """Climb the ladder in each space. Probes up to REFERENCE always
        run and are timed; past it, the climb stops at the first probe
        that is killed at the limit, hits the guard, or fails. Without
        ``climb`` only the timed probes run. No probe past REFERENCE
        starts after ``budget_s``, so a run ends within one probe limit
        of its measuring time; max_n is then a lower bound and the run
        says so."""
        start = time.perf_counter()
        reached = {}
        for space in ("full", "anonymous"):
            reached[space] = 1
            stopped = False
            for n in LADDER:
                reference = n <= REFERENCE[space]
                if (stopped or not climb) and not reference:
                    break
                if not reference and time.perf_counter() - start > budget_s:
                    print(f"frontier: out of time, max_n.{space} is a floor", file=sys.stderr)
                    break
                args = verify_args(space, n, timing=True)
                inv = invoke(args, timeout=harness.PROBE_LIMIT_S)
                if inv.timed_out or inv.rc == harness.EXIT_GUARD:
                    self.gate([], " ".join(args))  # not reached, and not a failure
                    ok = False
                else:
                    ok = self.gate(
                        harness.verify_problems(inv.rc, inv.stdout, space, n), " ".join(args)
                    )
                if reference:
                    sample.add(inv, harness.rules_examined(inv.stdout) if ok else 0)
                self.log.append({"space": space, "n": n, "rc": inv.rc, "wall_s": inv.wall_s})
                stopped = stopped or not ok
                if not stopped:
                    reached[space] = n
        if climb:
            sample.reached = reached

    def end_to_end(self, seconds: float) -> tuple[dict, int]:
        """Closed loop for ``seconds``. Set-up is timed a few times first and
        once after every iteration, so both figures sample the same span
        of the machine's load."""
        start = time.perf_counter()
        self.setup_time()  # warms the bytecode cache
        setups = [self.setup_time() for _ in range(SETUP_REPS)]
        samples = []
        while not samples or time.perf_counter() - start < seconds:
            samples.append(self.iterate(first=not samples, budget_s=seconds))
            setups.append(self.setup_time())
        reached = [s.reached for s in samples if s.reached]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(s.wall_s for s in samples),
            "rules_per_s": statistics.median(s.rules / s.wall_s for s in samples),
            "peak_rss_mb": max(s.rss_mb for s in samples),
            "max_n.full": min(r.get("full", 1) for r in reached) if reached else 1,
            "max_n.anonymous": min(r.get("anonymous", 1) for r in reached) if reached else 1,
            "pass_ratio": self.tally.pass_ratio,
        }
        self.log.append({"samples": [vars(s) for s in samples]})
        return values, len(samples)

    # ------------------------------------------------------------ traced

    def traced(self, seconds: float) -> tuple[dict, int, list[str]]:
        start = time.perf_counter()
        import_s = tracing.import_time()
        speedup = tracing.NOT_MEASURED
        if self.name != "check-axioms":
            speedup = tracing.pool_speedup(max(n for s, n in SWEEP if s == "anonymous"))
        run = tracing.TracedRun(self.name)
        verify_calls = [
            (args, lambda rc, out, s=space, n=n: harness.verify_problems(rc, out, s, n))
            for space, n, args in traced_verify_calls(self.name)
        ]
        while not run.rows or time.perf_counter() - start < seconds:
            checks = self.name == "check-axioms"
            with self.check_input() if checks else nullcontext(verify_calls) as calls:
                run.iteration(
                    [args for args, _ in calls],
                    lambda i, rc, out: self.gate(calls[i][1](rc, out), " ".join(calls[i][0])),
                )
        values, unmeasured = run.metrics(import_s, speedup)
        run.write(harness.OUT / f"trace-{self.name}-seed{self.seed}.json")
        return values, len(run.rows), unmeasured


def verify_args(space: str, n: int, timing: bool) -> list[str]:
    args = ["verify", "--n", str(n), "--all-q", "--space", space]
    return args if timing else args + ["--no-timing"]


def traced_verify_calls(workload: str):
    if workload == "verify-sweep":
        return [(space, n, verify_args(space, n, False)) for space, n in SWEEP]
    return [
        (space, n, verify_args(space, n, True))
        for space in ("full", "anonymous")
        for n in LADDER
        if n <= REFERENCE[space]
    ]


def check_calls(inp: harness.CheckInput, path):
    """The two check-axioms calls with their gates."""
    n = str(harness.CHECK_N)
    return [
        (
            ["check", "--rule", f"builtin:qm:{inp.q}:{inp.reform}", "--n", n, "--q", str(inp.q)],
            lambda rc, out: harness.builtin_check_problems(rc, out, inp.q),
        ),
        (
            ["check", "--rule", str(path), "--n", n, "--q", str(inp.q)],
            lambda rc, out: harness.table_check_problems(
                rc, out, harness.CHECK_N, inp.q, inp.line, inp.flipped
            ),
        ),
    ]


def run_one(name: str, seed: int, seconds: float, traced: bool, facts: dict) -> dict:
    spec = load_spec()
    metrics = spec["per_layer"] if traced else spec["end_to_end"]
    work = Workload(name, seed)
    wall_start = time.perf_counter()
    unmeasured: list[str] = []
    if traced:
        values, iterations, unmeasured = work.traced(seconds)
    else:
        values, iterations = work.end_to_end(seconds)
    print(f"machine: {json.dumps(facts)}")
    print(f"workload {name}, seed {seed}, trace {int(traced)}: {iterations} iterations, "
          f"{time.perf_counter() - wall_start:.1f} s, {work.tally.attempted} invocations, "
          f"{work.tally.failed} failed")
    for m in metrics:
        print(f"  {m['name']:<24} {values[m['name']]:>14.6g} {m['unit']}")
    tables = [e["table_sha256"] for e in work.log if "table_sha256" in e]
    if tables:
        digest = hashlib.sha256("".join(tables).encode()).hexdigest()
        print(f"inputs: {len(tables)} seeded tables, sha256 of their sha256s {digest}")
    if unmeasured:
        print(f"not measured (reads {tracing.NOT_MEASURED:g}): {', '.join(sorted(unmeasured))}")
    record = {
        "workload": name, "seed": seed, "trace": int(traced), "seconds": seconds,
        "machine": facts, "iterations": iterations, "values": values,
        "not_measured": sorted(unmeasured), "failures": work.tally.notes, "log": work.log,
    }
    harness.OUT.mkdir(parents=True, exist_ok=True)
    (harness.OUT / f"run-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return {
        "correct": work.tally.failed == 0,
        "attempted": work.tally.attempted,
        "failed": work.tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def summary(seed: int, seconds: float, facts: dict) -> int:
    """Every end-to-end metric of every workload, as one table."""
    spec = load_spec()
    results = {name: run_one(name, seed, seconds, False, facts) for name in WORKLOADS}
    print()
    print(f"{'metric':<18} {'unit':<6} " + " ".join(f"{w:>14}" for w in WORKLOADS))
    for m in spec["end_to_end"]:
        cells = " ".join(f"{results[w]['metrics'][m['name']]['value']:>14.6g}" for w in WORKLOADS)
        print(f"{m['name']:<18} {m['unit']:<6} {cells}")
    fails = " ".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values())
    print(f"{'fail_ratio':<18} {'ratio':<6} {fails}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through the normal unwinding on SIGTERM, so a running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness.require_source()
    sys.path.insert(0, str(harness.SRC))
    facts = harness.machine_facts()
    if args.workload == "all":
        return summary(args.seed, args.seconds, facts)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
