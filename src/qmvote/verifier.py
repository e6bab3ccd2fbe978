"""Exhaustive rule-space verification.

Decides every voting rule of a space (all 2^(3^n) profile tables, or
all 2^((n+1)(n+2)/2) anonymous tally tables), keeps the rules satisfying
anonymity, responsiveness and q-neutrality, and compares the survivors
against the qualified majority rules with quota q: the expected outcome
is no survivors when 2q <= n and exactly the two quota-q rules when
2q > n.

The search reads each axiom instance as a binary clause over cell bits
and lists the solutions of that 2-CNF (``_twosat``); it never visits the
rules that fail, so its cost follows the cell count, and
``rules_examined`` still reports the 2^cells rules the space holds. It
is guarded by a cell cap and a survivor cap.

``_sweep_survivors`` is the oracle the tests compare it with: the numpy
kernel in ``_kernels`` tests every encoding, over contiguous ranges split
across at most one thread per CPU (numpy releases the interpreter lock
inside its array operations, so the threads overlap). ``workers`` sets
that split and nothing else. The sweep has its own n caps, and it also
serves a library call whose survivors pass the SAT survivor cap while
the sweep's caps admit the size. numpy is imported only when the sweep
runs.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import _twosat
from .core import (
    Alternative,
    Preference,
    Profile,
    adjacent_transpositions,
    all_profiles,
    dual,
    permute,
    responsive_neighbors,
    strict_preference_for,
    tally,
)
from .rules import (
    AnonymousTableRule,
    TableRule,
    evaluator,
    num_tally_classes,
    qualified_majority_rules,
    tally_classes,
    threshold_table_rule,
)

SPACE_FULL = "full"
SPACE_ANONYMOUS = "anonymous"

# SAT engine guards, in cells (3^n full, (n+1)(n+2)/2 anonymous). Below
# the plain cap, verify --all-q takes at most about 1.7 s on 2 vCPUs (full
# n=7, 2187 cells: 1.2 s; anonymous n=69, 2485 cells: 1.7 s). The long-run
# cap keeps 2^cells within Python's default 4300-digit int-to-str limit,
# which the JSON report needs; at its largest sizes verify --all-q peaks
# at 39 MB RSS (full n=8, 4 s) and 31 MB (anonymous n=165, 28 s).
_SAT_MAX_CELLS, _SAT_LONG_MAX_CELLS = 2500, 14000
# the SAT engine lists every survivor; refuse before that list grows large
_SAT_MAX_SURVIVORS = 1 << 16
# sweep guards, in voters: the plain cap and the ceiling with the long-run flag
_FULL_MAX, _FULL_LONG_MAX = 2, 3
_ANON_MAX, _ANON_LONG_MAX = 5, 6


class GuardError(ValueError):
    """Raised when an enumeration would be infeasibly large."""


class _Cells(NamedTuple):
    ncells: int
    nx: list[int]
    ny: list[int]
    dual_idx: list[int]
    resp_x_indptr: list[int]
    resp_x_targets: list[int]
    resp_y_indptr: list[int]
    resp_y_targets: list[int]
    trans: list[list[int]]


def _csr(target_lists: list[list[int]]) -> tuple[list[int], list[int]]:
    indptr = [0]
    for targets in target_lists:
        indptr.append(indptr[-1] + len(targets))
    return indptr, [t for targets in target_lists for t in targets]


@lru_cache(maxsize=None)
def _profile_cells(n: int) -> _Cells:
    """Index tables for the full space: one cell per profile."""
    profiles = all_profiles(n)
    count = len(profiles)
    nx = [tally(p).n_x for p in profiles]
    ny = [tally(p).n_y for p in profiles]
    dual_idx = [dual(p).index for p in profiles]
    resp_x = [[r.index for r in responsive_neighbors(p, Alternative.X)] for p in profiles]
    resp_y = [[r.index for r in responsive_neighbors(p, Alternative.Y)] for p in profiles]
    xi, xt = _csr(resp_x)
    yi, yt = _csr(resp_y)
    trans = [[permute(p, t).index for p in profiles] for t in adjacent_transpositions(n)]
    return _Cells(count, nx, ny, dual_idx, xi, xt, yi, yt, trans)


@lru_cache(maxsize=None)
def _tally_cells(n: int) -> _Cells:
    """Index tables for the anonymous space: one cell per tally class.

    Built arithmetically from the three single-voter moves toward the
    winner, independently of the profile-level neighbor generator; the
    test suite checks the two levels agree on every anonymous rule at
    small n.
    """
    classes = tally_classes(n)
    index = {c: k for k, c in enumerate(classes)}
    nx = [c[0] for c in classes]
    ny = [c[1] for c in classes]
    dual_idx = [index[(c[1], c[0])] for c in classes]
    resp_x: list[list[int]] = []
    resp_y: list[list[int]] = []
    for cx, cy in classes:
        toward_x = []
        toward_y = []
        if cy >= 1:
            toward_x.append(index[(cx + 1, cy - 1)])
            toward_x.append(index[(cx, cy - 1)])
        if cx + cy < n:
            toward_x.append(index[(cx + 1, cy)])
        if cx >= 1:
            toward_y.append(index[(cx - 1, cy + 1)])
            toward_y.append(index[(cx - 1, cy)])
        if cx + cy < n:
            toward_y.append(index[(cx, cy + 1)])
        resp_x.append(toward_x)
        resp_y.append(toward_y)
    xi, xt = _csr(resp_x)
    yi, yt = _csr(resp_y)
    return _Cells(len(classes), nx, ny, dual_idx, xi, xt, yi, yt, [])


def _num_cells(space: str, n: int) -> int:
    return 3**n if space == SPACE_FULL else num_tally_classes(n)


def _guard_voters(n: int) -> None:
    if n < 2:
        raise GuardError("rule-space verification needs at least two voters")


def _guard_sat(space: str, n: int, allow_long_run: bool) -> None:
    _guard_voters(n)
    cells = _num_cells(space, n)
    if cells <= _SAT_MAX_CELLS:
        return
    where = f"{space} space at n={n} has {cells:,} cells"
    other = "; or use the anonymous space" if space == SPACE_FULL else ""
    if cells <= _SAT_LONG_MAX_CELLS:
        if allow_long_run:
            return
        raise GuardError(
            f"{where}, past the {_SAT_MAX_CELLS:,}-cell limit; pass allow_long_run=True "
            f"(CLI: --long-run){other}"
        )
    raise GuardError(
        f"{where}, past even the {_SAT_LONG_MAX_CELLS:,}-cell long-run limit{other}"
    )


def _guard_sweep(space: str, n: int, allow_long_run: bool) -> None:
    _guard_voters(n)
    if space == SPACE_FULL:
        if n <= _FULL_MAX:
            return
        if n <= _FULL_LONG_MAX:
            if allow_long_run:
                return
            raise GuardError(
                f"full space at n={n} has 2^{3 ** n} rules; pass allow_long_run=True "
                "(CLI: --long-run) or use the anonymous space"
            )
        raise GuardError(
            f"full space at n={n} has 2^{3 ** n} rules and is infeasible; "
            "use the anonymous space"
        )
    if n <= _ANON_MAX:
        return
    if n <= _ANON_LONG_MAX:
        if allow_long_run:
            return
        raise GuardError(
            f"anonymous space at n={n} has 2^{num_tally_classes(n)} rules; "
            "pass allow_long_run=True (CLI: --long-run)"
        )
    raise GuardError(
        f"anonymous space at n={n} has 2^{num_tally_classes(n)} rules and is infeasible"
    )


def _ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous spans of [0, total), one per worker; never more spans than CPUs."""
    workers = max(1, min(workers, os.cpu_count() or 1))
    chunk = math.ceil(total / workers)
    return [(lo, min(total, lo + chunk)) for lo in range(0, total, chunk)]


def _sweep(cells: _Cells, in_rq: list[int], workers: int, **checks: bool) -> list[int]:
    from . import _kernels  # numpy is loaded only when the oracle runs

    def run(span: tuple[int, int]):
        return _kernels.scan_rules(
            span[0],
            span[1],
            in_rq,
            cells.dual_idx,
            cells.resp_x_indptr,
            cells.resp_x_targets,
            cells.resp_y_indptr,
            cells.resp_y_targets,
            cells.trans,
            **checks,
        )

    spans = _ranges(1 << cells.ncells, workers)
    if len(spans) == 1:
        parts = [run(spans[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(pool.map(run, spans))
    return sorted(int(v) for part in parts for v in part)


def _cells_and_region(space: str, n: int, q: int) -> tuple[_Cells, list[int]]:
    """The space's index tables and, per cell, 1 iff it lies in R_q."""
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    cells = _profile_cells(n) if space == SPACE_FULL else _tally_cells(n)
    return cells, [int(max(x, y) >= q) for x, y in zip(cells.nx, cells.ny)]


def _scan_space(
    space: str,
    n: int,
    q: int,
    *,
    allow_long_run: bool,
    want_neutrality: bool,
    want_responsiveness: bool,
    want_anonymity: bool,
) -> tuple[int, list[int]]:
    """(2^cells, ascending encodings of the rules passing the selected axioms)."""
    cells, in_rq = _cells_and_region(space, n, q)
    survivors = _twosat.solve(
        cells,
        in_rq,
        neutrality=want_neutrality,
        responsiveness=want_responsiveness,
        anonymity=want_anonymity,
        limit=_SAT_MAX_SURVIVORS + 1,
    )
    if len(survivors) > _SAT_MAX_SURVIVORS:
        # only a call that drops axioms gets here; the sweep lists any
        # number of survivors, so it takes over where its own caps allow
        try:
            _guard_sweep(space, n, allow_long_run)
        except GuardError:
            raise GuardError(
                f"more than {_SAT_MAX_SURVIVORS:,} rules of the {space} space at n={n} "
                "pass the selected axioms; select more axioms"
            ) from None
        survivors = _sweep(
            cells,
            in_rq,
            os.cpu_count() or 1,
            want_neutrality=want_neutrality,
            want_responsiveness=want_responsiveness,
            want_anonymity=want_anonymity,
        )
    return 1 << cells.ncells, survivors


def _sweep_survivors(
    space: str,
    n: int,
    q: int,
    *,
    workers: int = 1,
    allow_long_run: bool = False,
    **checks: bool,
) -> list[int]:
    """The oracle: encodings of the rules passing the checks selected by
    ``want_neutrality``, ``want_responsiveness`` and ``want_anonymity``,
    found by testing every encoding of the space. Every check is on by
    default, except anonymity in the anonymous space, where it always
    holds."""
    _guard_sweep(space, n, allow_long_run)
    cells, in_rq = _cells_and_region(space, n, q)
    checks = {"want_anonymity": space == SPACE_FULL, **checks}
    return _sweep(cells, in_rq, workers, **checks)


def survivors_full(
    n: int,
    q: int,
    *,
    allow_long_run: bool = False,
    use_anonymity: bool = True,
    use_responsiveness: bool = True,
    use_neutrality: bool = True,
) -> list[int]:
    """Encodings of the full-space rules passing the selected axioms."""
    _guard_sat(SPACE_FULL, n, allow_long_run)
    _, survivors = _scan_space(
        SPACE_FULL,
        n,
        q,
        allow_long_run=allow_long_run,
        want_neutrality=use_neutrality,
        want_responsiveness=use_responsiveness,
        want_anonymity=use_anonymity,
    )
    return survivors


def survivors_anonymous(
    n: int,
    q: int,
    *,
    allow_long_run: bool = False,
    use_responsiveness: bool = True,
    use_neutrality: bool = True,
) -> list[int]:
    """Encodings of the anonymous-space rules passing the selected axioms.

    Anonymity itself holds for every rule of this space by construction.
    """
    _guard_sat(SPACE_ANONYMOUS, n, allow_long_run)
    _, survivors = _scan_space(
        SPACE_ANONYMOUS,
        n,
        q,
        allow_long_run=allow_long_run,
        want_neutrality=use_neutrality,
        want_responsiveness=use_responsiveness,
        want_anonymity=False,
    )
    return survivors


@dataclass(frozen=True)
class SurvivorInfo:
    encoding: int
    pretty: str

    def to_json_dict(self) -> dict:
        return {"encoding": self.encoding, "pretty": self.pretty}


@dataclass(frozen=True)
class VerificationResult:
    n: int
    q: int
    space: str
    rules_examined: int
    survivors: tuple[SurvivorInfo, ...]
    matches_theorem: bool
    elapsed_ms: float

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc: dict = {
            "n": self.n,
            "q": self.q,
            "space": self.space,
            "rules_examined": self.rules_examined,
            "survivors": [s.to_json_dict() for s in self.survivors],
            "matches_theorem": self.matches_theorem,
        }
        if include_timing:
            doc["elapsed_ms"] = round(self.elapsed_ms, 3)
        return doc


def decode_rule(space: str, n: int, encoding: int):
    if space == SPACE_FULL:
        return TableRule(n, encoding)
    return AnonymousTableRule(n, encoding)


def _expected_named(space: str, n: int, q: int) -> dict[int, str]:
    """Canonical encodings of the quota-q qualified majority rules.

    An anonymous table is built from the tally classes directly, since
    building one representative profile per class costs O(n) each.
    """
    out = {}
    for rule in qualified_majority_rules(n, q):
        if space == SPACE_FULL:
            enc = TableRule.from_rule(rule, n).bits
        else:
            enc = threshold_table_rule(n, rule.q, rule.reform).bits
        out[enc] = rule.pretty()
    return out


def _build_result(
    space: str, n: int, q: int, examined: int, survivors: list[int], elapsed_ms: float
) -> VerificationResult:
    """The report for one quota. Table encodings are canonical (one per rule
    as a function), so the theorem holds iff the survivor encodings are
    exactly those of the quota-q rules."""
    names = _expected_named(space, n, q)
    infos = tuple(
        SurvivorInfo(enc, names.get(enc, f"table@{enc}")) for enc in survivors
    )
    return VerificationResult(
        n=n,
        q=q,
        space=space,
        rules_examined=examined,
        survivors=infos,
        matches_theorem=sorted(survivors) == sorted(names),
        elapsed_ms=elapsed_ms,
    )


def enumerate_full(n: int, q: int, *, allow_long_run: bool = False) -> VerificationResult:
    """Decide all 2^(3^n) profile tables and intersect the three axiom sets."""
    return _enumerate(SPACE_FULL, n, q, allow_long_run)


def enumerate_anonymous(
    n: int, q: int, *, allow_long_run: bool = False
) -> VerificationResult:
    """Decide all anonymous tally tables and intersect the axiom sets.

    Restricting to this space loses nothing: anonymity is one of the
    intersected axioms, and every anonymous rule has exactly one tally
    table representative.
    """
    return _enumerate(SPACE_ANONYMOUS, n, q, allow_long_run)


def _enumerate(space: str, n: int, q: int, allow_long_run: bool) -> VerificationResult:
    _guard_sat(space, n, allow_long_run)
    start = time.perf_counter()
    examined, survivors = _scan_space(
        space,
        n,
        q,
        allow_long_run=allow_long_run,
        want_neutrality=True,
        want_responsiveness=True,
        want_anonymity=space == SPACE_FULL,
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return _build_result(space, n, q, examined, survivors, elapsed_ms)


def verify_characterization(
    n: int, q: int, space: str = SPACE_FULL, *, allow_long_run: bool = False
) -> bool:
    """True iff the enumeration at this single q matches the expected rule set."""
    if space not in (SPACE_FULL, SPACE_ANONYMOUS):
        raise ValueError(f"unknown space {space!r}")
    return _enumerate(space, n, q, allow_long_run).matches_theorem


def merge_profile(first: Profile, second: Profile, winner: Alternative) -> Profile:
    """Combine two profiles into the canonical profile whose winner support
    is the max of the two and whose loser support is the min.

    Remaining voters are indifferent; layout is winner supporters first,
    then loser supporters, then indifferents.
    """
    if first.n != second.n:
        raise ValueError("profiles must have the same number of voters")
    n = first.n
    loser = winner.other
    win_count = max(tally(first).count_for(winner), tally(second).count_for(winner))
    lose_count = min(tally(first).count_for(loser), tally(second).count_for(loser))
    voters = (
        (strict_preference_for(winner),) * win_count
        + (strict_preference_for(loser),) * lose_count
        + (Preference.INDIFFERENT,) * (n - win_count - lose_count)
    )
    return Profile(voters)


@dataclass(frozen=True)
class ContradictionWitness:
    """The balanced-profile construction showing no rule can be both
    anonymous and q-neutral when the quota is not qualified.

    On a profile with exactly q strict supporters per side, the reversed
    profile is a rearrangement of the original, so anonymity demands the
    winner stay put, while the profile sits inside the high-certainty
    region, so q-neutrality demands the winner swap. Any concrete rule
    violates exactly one of the two demands here.
    """

    profile: Profile
    dual_profile: Profile
    permutation: tuple[int, ...]
    anonymity_requires: Alternative
    neutrality_requires: Alternative
    observed: Alternative
    violated_axiom: str


def unqualified_quota_contradiction(rule, n: int, q: int) -> ContradictionWitness:
    """Build the balanced profile for an unqualified quota and report which of
    the two conflicting requirements the given rule breaks on it."""
    if n < 2:
        raise ValueError("the construction needs at least two voters")
    if not (0 <= q and 2 * q <= n):
        raise ValueError(
            f"not applicable: quota {q} is qualified for n={n} (needs 2q <= n)"
        )
    profile = Profile.from_counts(q, q, n - 2 * q)
    mirrored = dual(profile)
    perm = tuple(range(q, 2 * q)) + tuple(range(q)) + tuple(range(2 * q, n))
    assert permute(profile, perm) == mirrored
    ev = evaluator(rule)
    value = ev(profile)
    observed = ev(mirrored)
    violated = "q-neutrality" if observed is value else "anonymity"
    return ContradictionWitness(
        profile=profile,
        dual_profile=mirrored,
        permutation=perm,
        anonymity_requires=value,
        neutrality_requires=value.other,
        observed=observed,
        violated_axiom=violated,
    )
