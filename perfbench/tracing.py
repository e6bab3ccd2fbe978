"""The traced, in-process run that gives the per-layer metrics.

Each iteration drives the real CLI command in this process through
click's test runner, twice on identical inputs: once bare, to time it,
and once with spans wrapped around the calls into each layer (``cli``,
``verifier``, ``_kernels``, ``axioms``, ``rules``, ``core``). The
difference of the two wall times is the tracing overhead. Every qmvote
``lru_cache`` is cleared before each pass, so a pass pays the same cold
costs as a fresh CLI process.

Spans are recorded by this file around module attributes, not inside the
program. Some of those attributes are private hooks; when a refactor
removes one, the metrics that depend on it read ``NOT_MEASURED`` and the
run goes on.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import harness

NOT_MEASURED = -1.0

CORE_CACHES = ("tally", "_permute", "dual", "_responsive_neighbors", "all_profiles")


class Tracer:
    """Spans kept in memory: name, start, end, parent and trace id.

    Worker threads have no span of their own open, so their spans hang
    under the main thread's innermost open span.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        record = {"trace": self.trace_id, "id": span_id, "parent": parent, "name": name}
        record.update(attrs)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)


class Hooks:
    """Wraps module attributes in spans and puts them back afterwards."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.unmeasured: set[str] = set()
        self._undo: list = []

    def wrap(self, owner, attr, span_name, feeds, on_result=None, classmethod_=False) -> None:
        """Time every call of ``owner.attr`` as a span; if the attribute is
        gone, mark the metrics it ``feeds`` as not measured."""
        original = owner.__dict__.get(attr) if classmethod_ else getattr(owner, attr, None)
        if original is None:
            self.unmeasured.update(feeds)
            return
        func = original.__func__ if classmethod_ else original
        tracer, unmeasured = self.tracer, self.unmeasured

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(span_name) as record:
                result = func(*args, **kwargs)
                if on_result is not None:
                    try:
                        on_result(record, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        unmeasured.update(feeds)  # the hook's signature changed
                return result

        setattr(owner, attr, classmethod(traced) if classmethod_ else traced)
        self._undo.append((owner, attr, original))

    def replace(self, owner, attr, make, feeds) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.unmeasured.update(feeds)
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class CountingRule:
    """A plain callable rule that counts its evaluations.

    It has no ``evaluate`` attribute, so ``rules.evaluator`` hands it to
    the checkers as it is.
    """

    def __init__(self, rule) -> None:
        self._evaluate = getattr(rule, "evaluate", rule)
        self.count = 0

    def __call__(self, profile):
        self.count += 1
        return self._evaluate(profile)


def clear_caches() -> None:
    from qmvote import axioms, core, rules, verifier

    for module in (core, rules, axioms, verifier):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class TracedRun:
    """Traced iterations of one workload, and the per-layer metrics they give."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.tracer = Tracer()
        self.rows: list[dict] = []
        self.bare_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.unmeasured: set[str] = set()

    def _install(self, hooks: Hooks, state: dict) -> None:
        from qmvote import _kernels, axioms, cli, rules, verifier

        def note_cells(record, args, kwargs, result):
            record["n"] = args[0] if args else kwargs.get("n")
            record["cells"] = getattr(result, "ncells", None)

        def note_scan(record, args, kwargs, result):
            record["scanned"] = int(args[1]) - int(args[0])
            record["survivors"] = len(result)

        tables = ("verifier.table_build_s", "verifier.cells")
        scans = ("kernels.scan_s", "kernels.rules_scanned", "kernels.survivor_ratio")
        hooks.wrap(cli, "_emit", "cli.emit", ["cli.emit_s"])
        hooks.wrap(verifier, "_profile_cells", "verifier.table_build", tables, note_cells)
        hooks.wrap(verifier, "_tally_cells", "verifier.table_build", tables, note_cells)
        hooks.wrap(verifier, "_scan_space", "verifier.scan_space", [])
        hooks.wrap(verifier, "_build_result", "verifier.result_build", ["verifier.result_build_s"])
        hooks.wrap(_kernels, "scan_rules", "kernels.scan", scans, note_scan)
        for axiom in ("anonymity", "responsiveness", "q_neutrality"):
            hooks.wrap(axioms, f"check_{axiom}", f"axioms.{axiom}", [f"axioms.{axiom}_s"])
        hooks.wrap(
            rules.TableRule, "from_line", "rules.parse", ["rules.parse_s"], classmethod_=True
        )

        def counting(run_all_checks):
            def counted(rule, n, q):
                counter = CountingRule(rule)
                try:
                    return run_all_checks(counter, n, q)
                finally:
                    state["evaluations"] += counter.count

            return counted

        hooks.replace(cli, "run_all_checks", counting, ["axioms.evaluations"])

    def iteration(self, calls, gate) -> None:
        """One bare pass and one traced pass over the same CLI calls, in
        alternating order so that neither always pays the warm-up.

        ``calls`` is a list of argument lists; ``gate(index, rc, stdout)``
        applies the correctness gate to each traced call's result.
        """
        if len(self.rows) % 2:
            results = self._traced_pass(calls)
            self._bare_pass(calls)
        else:
            self._bare_pass(calls)
            results = self._traced_pass(calls)
        for index, result in enumerate(results):
            gate(index, result.exit_code, result.stdout)

    def _bare_pass(self, calls) -> None:
        from click.testing import CliRunner

        from qmvote import cli

        runner = CliRunner()
        clear_caches()
        start = time.perf_counter()
        for args in calls:
            runner.invoke(cli.main, args)
        self.bare_walls.append(time.perf_counter() - start)

    def _traced_pass(self, calls) -> list:
        from click.testing import CliRunner

        from qmvote import cli

        runner = CliRunner()
        clear_caches()
        self.tracer.trace_id += 1
        hooks = Hooks(self.tracer)
        state = {"evaluations": 0}
        self._install(hooks, state)
        try:
            results = []
            start = time.perf_counter()
            with self.tracer.span("iteration", workload=self.workload):
                for args in calls:
                    with self.tracer.span("cli.invoke", args=" ".join(args)):
                        results.append(runner.invoke(cli.main, args))
            self.traced_walls.append(time.perf_counter() - start)
            self.rows.append(self._row(state))
        finally:
            hooks.restore()
        self.unmeasured |= hooks.unmeasured
        return results

    def _row(self, state: dict) -> dict:
        from qmvote import core

        spans = [s for s in self.tracer.spans if s["trace"] == self.tracer.trace_id]

        def total(name):
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

        scans = [s for s in spans if s["name"] == "kernels.scan"]
        scanned = sum(s.get("scanned", 0) for s in scans)
        cells = {}
        for s in spans:
            if s["name"] == "verifier.table_build" and s.get("cells") is not None:
                cells[(s.get("n"), s["cells"])] = s["cells"]
        infos = [getattr(core, name).cache_info() for name in CORE_CACHES if hasattr(core, name)]
        lookups = sum(i.hits + i.misses for i in infos)
        return {
            "cli.emit_s": total("cli.emit"),
            "verifier.table_build_s": total("verifier.table_build"),
            "verifier.cells": sum(cells.values()),
            "verifier.result_build_s": total("verifier.result_build"),
            "kernels.scan_s": union_length((s["start"], s["end"]) for s in scans),
            "kernels.rules_scanned": scanned,
            "kernels.survivor_ratio": (
                sum(s.get("survivors", 0) for s in scans) / scanned if scanned else NOT_MEASURED
            ),
            "axioms.anonymity_s": total("axioms.anonymity"),
            "axioms.responsiveness_s": total("axioms.responsiveness"),
            "axioms.q_neutrality_s": total("axioms.q_neutrality"),
            "axioms.evaluations": state["evaluations"],
            "core.cache_entries": sum(i.currsize for i in infos) if infos else NOT_MEASURED,
            "core.cache_hit_ratio": (
                sum(i.hits for i in infos) / lookups if lookups else NOT_MEASURED
            ),
            "rules.parse_s": total("rules.parse"),
        }

    def metrics(self, import_s: float, pool_speedup: float) -> tuple[dict, list[str]]:
        """Median of every per-layer metric over the traced iterations, and
        the names of those that could not be measured."""
        values = {"cli.import_s": import_s, "verifier.pool_speedup": pool_speedup}
        for name in self.rows[0]:
            values[name] = statistics.median(row[name] for row in self.rows)
        for name in self.unmeasured:
            values[name] = NOT_MEASURED
        values["trace.overhead_s"] = statistics.median(self.traced_walls) - statistics.median(
            self.bare_walls
        )
        unmeasured = [name for name, value in values.items() if value == NOT_MEASURED]
        return values, unmeasured

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "spans": self.tracer.spans}))


def import_time(reps: int = 5) -> float:
    """Median wall time of ``import qmvote.cli`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import qmvote.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for i in range(reps + 1):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=harness.child_env(),
            cwd=harness.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        if i:  # the first one warms the bytecode cache
            samples.append(float(out.stdout))
    return statistics.median(samples)


def pool_speedup(n: int, reps: int = 2) -> float:
    """Anonymous-space scan time at one worker over that at ``nproc`` workers,
    on the median quota, tables warm."""
    from qmvote import verifier

    q = n // 2 + 1
    workers = os.cpu_count() or 1
    try:
        verifier.survivors_anonymous(n, q, workers=workers)
        times = {1: [], workers: []}
        for _ in range(reps):
            for w in times:
                start = time.perf_counter()
                verifier.survivors_anonymous(n, q, workers=w)
                times[w].append(time.perf_counter() - start)
    except (AttributeError, TypeError):
        return NOT_MEASURED
    return statistics.median(times[1]) / statistics.median(times[workers])
