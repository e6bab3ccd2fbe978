"""Shared pieces of the qmvote benchmark: the pinned CLI invocation,
seeded inputs, the correctness gates and the machine facts.

Every expectation here is computed from the problem statement (base-3
profile numbering, tally-class order, the quota-q rule definitions), not
from qmvote's own helpers, so a broken program cannot vouch for itself.
The one exception is witness replay, which the gate deliberately routes
through ``qmvote.axioms.replay_witness`` against the same table.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The headline limit: a frontier probe that runs longer than this is killed.
PROBE_LIMIT_S = 10.0
# Exit code the CLI uses for precondition and guard violations.
EXIT_GUARD = 3

CHECK_N = 8


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is not beside us."""
    if not (SRC / "qmvote" / "__init__.py").is_file():
        print(f"error: no qmvote sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    """The environment for every qmvote subprocess.

    PYTHONPATH points at the checkout's sources because the package is not
    installed; QMVOTE_NO_NUMBA is dropped so the program picks its own
    default kernel.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("QMVOTE_NO_NUMBA", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Invocation:
    rc: int | None  # None when killed at the time limit
    wall_s: float
    maxrss_mb: float
    stdout: str

    @property
    def timed_out(self) -> bool:
        return self.rc is None


def invoke(args, timeout: float | None = None) -> Invocation:
    """Run ``python -m qmvote *args`` once and wait for it.

    Standard output goes to an unlinked file in the checkout, so a large
    report cannot fill a pipe; standard error passes through. ``wait4``
    gives this child's own peak RSS.
    """
    argv = [sys.executable, "-m", "qmvote", *args]
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out:
        lock = threading.Lock()
        state = {"exited": False, "killed": False}
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill) if timeout else None
        if timer:
            timer.start()
        try:
            # Wait without reaping, so the pid stays ours while the timer may still fire.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            if timer:
                timer.cancel()
                timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Invocation(
            None if state["killed"] else proc.returncode,
            wall,
            usage.ru_maxrss / 1024.0,
            out.read().decode(),
        )


# ---------------------------------------------------------------- expectations


def num_cells(space: str, n: int) -> int:
    return 3**n if space == "full" else (n + 1) * (n + 2) // 2


def cell_counts(space: str, n: int):
    """(n_x, n_y) of every cell in encoding order."""
    if space == "anonymous":
        return [(nx, ny) for nx in range(n + 1) for ny in range(n + 1 - nx)]
    counts = []
    for index in range(3**n):
        nx = ny = 0
        for _ in range(n):
            digit = index % 3
            nx += digit == 0
            ny += digit == 1
            index //= 3
        counts.append((nx, ny))
    return counts


def qm_table(space: str, n: int, q: int, reform: str) -> str:
    """The quota-q rule with the given reform as a table line (X/Y per cell)."""
    other = "Y" if reform == "X" else "X"
    return "".join(
        reform if (nx if reform == "X" else ny) >= q else other
        for nx, ny in cell_counts(space, n)
    )


def table_bits(line: str) -> int:
    return sum(1 << k for k, c in enumerate(line) if c == "Y")


def expected_survivors(space: str, n: int, q: int) -> dict[int, str]:
    """Encoding -> name of the rules the theorem says survive at quota q."""
    if 2 * q <= n:
        return {}
    return {table_bits(qm_table(space, n, q, a)): f"sigma_{q}^{a}" for a in ("X", "Y")}


# ---------------------------------------------------------------- gates


@dataclass
class Tally:
    """Invocations attempted and failed under the correctness gate."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    @property
    def pass_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def _reports(stdout: str):
    """The CLI's JSON list of reports, or None when it is not one."""
    try:
        docs = json.loads(stdout)
    except ValueError:
        return None
    return docs if isinstance(docs, list) and all(isinstance(d, dict) for d in docs) else None


def verify_problems(rc, stdout: str, space: str, n: int, expected=expected_survivors) -> list[str]:
    """Why a ``verify --all-q`` report is wrong; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}"]
    docs = _reports(stdout)
    if docs is None:
        return ["output is not a JSON list of reports"]
    problems = []
    if [d.get("q") for d in docs] != list(range(n + 1)):
        problems.append("reports do not cover q = 0..n in order")
    for doc in docs:
        q = doc.get("q")
        if doc.get("n") != n or doc.get("space") != space:
            problems.append(f"q={q}: wrong n or space")
        if doc.get("matches_theorem") is not True:
            problems.append(f"q={q}: matches_theorem is not true")
        if doc.get("rules_examined") != 1 << num_cells(space, n):
            problems.append(f"q={q}: rules_examined is not 2^cells")
        survivors = doc.get("survivors")
        if not isinstance(survivors, list) or not all(isinstance(s, dict) for s in survivors):
            problems.append(f"q={q}: survivors are not a list of rules")
            continue
        want = expected(space, n, q) if isinstance(q, int) else {}
        got = {s.get("encoding"): s.get("pretty") for s in survivors}
        if got != want or len(got) != len(survivors):
            problems.append(f"q={q}: survivors differ from the quota-q rules")
    return problems


def rules_examined(stdout: str) -> int:
    return sum(doc["rules_examined"] for doc in json.loads(stdout))


def builtin_check_problems(rc, stdout: str, q: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    reports = _reports(stdout)
    if reports is None:
        return ["output is not a JSON list of reports"]
    axioms = [r.get("axiom") for r in reports]
    problems = []
    if axioms != ["anonymity", "responsiveness", "q-neutrality"]:
        problems.append(f"unexpected reports {axioms}")
    if not all(r.get("passed") is True for r in reports):
        problems.append("a check of a quota rule failed")
    if reports and reports[-1].get("q") != q:
        problems.append("q-neutrality report carries the wrong q")
    return problems


def table_check_problems(rc, stdout: str, n: int, q: int, line: str, flipped: int) -> list[str]:
    """A quota rule with one flipped cell must fail, and every witness must
    replay against the same table and involve the flipped cell (all other
    axiom instances are those of a passing rule)."""
    if rc != 1:
        return [f"exit code {rc}, want 1"]
    reports = _reports(stdout)
    if reports is None:
        return ["output is not a JSON list of reports"]
    failed = [r for r in reports if r.get("passed") is False]
    if not failed:
        return ["no check failed on a perturbed rule"]
    from qmvote.axioms import AxiomReport, Witness, replay_witness
    from qmvote.core import Alternative, Profile
    from qmvote.rules import TableRule

    rule = TableRule.from_line(n, line)
    problems = []
    for r in failed:
        try:
            w = r["witness"]
            witness = Witness(
                Profile.from_string(w["profile"]),
                Profile.from_string(w["counterpart"]),
                Alternative(w["expected"]),
                Alternative(w["observed"]),
            )
            replays = replay_witness(AxiomReport(r["axiom"], False, witness, r.get("q")), rule, n)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{r.get('axiom')}: malformed witness ({exc!r})")
            continue
        if not replays:
            problems.append(f"{r['axiom']}: witness does not replay")
        if flipped not in (witness.profile.index, witness.counterpart.index):
            problems.append(f"{r['axiom']}: witness misses the flipped cell")
        if r["axiom"] == "q-neutrality" and r.get("q") != q:
            problems.append("q-neutrality report carries the wrong q")
    return problems


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class CheckInput:
    """One check-axioms iteration: quota, reform and the flipped cell."""

    q: int
    reform: str
    flipped: int
    line: str

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.line.encode()).hexdigest()


def check_inputs(rng, n: int = CHECK_N):
    """Endless seeded check inputs.

    Every check stops at its first violation, so the failing call costs
    in proportion to how far into the canonical profile order the
    flipped cell's violations lie: from one sweep's worth to almost none.
    To make every seed cost about the same, the flip lands on a profile
    whose three last voters are indifferent (the last 3^(n-3) indices),
    so each of the three checks exits only near the end of its sweep.
    The reform matters too (a Y table's checks make about a fifth more
    evaluations), so each round of inputs takes every qualified quota
    with both reforms once, in a seeded order.
    """
    cells = 3**n
    combos = [(q, reform) for q in range(n // 2 + 1, n + 1) for reform in "XY"]
    while True:
        rng.shuffle(combos)
        for q, reform in combos:
            flipped = rng.randrange(cells - 3 ** (n - 3), cells)
            base = qm_table("full", n, q, reform)
            line = base[:flipped] + ("X" if base[flipped] == "Y" else "Y") + base[flipped + 1 :]
            yield CheckInput(q, reform, flipped, line)


def write_table(inp: CheckInput, tag: str) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{tag}-{inp.sha256[:16]}.rule"
    path.write_text(inp.line + "\n")
    return path


# ---------------------------------------------------------------- machine


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for text in fp:
                if text.startswith("model name"):
                    model = text.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
