"""Exhaustive rule-space verification.

Enumerates every voting rule of a space (all 2^(3^n) profile tables, or
all 2^((n+1)(n+2)/2) anonymous tally tables), keeps the rules satisfying
anonymity, responsiveness and q-neutrality, and compares the survivors
against the qualified majority rules with quota q: the expected outcome
is no survivors when 2q <= n and exactly the two quota-q rules when
2q > n.

Every space is swept by the one numpy kernel in ``_kernels``. Work is
partitioned over contiguous encoding ranges, one thread per range and at
most one range per CPU (numpy releases the interpreter lock inside its
array operations, so the threads overlap). Results are identical for any
worker count; survivors come back sorted by encoding.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
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
)

SPACE_FULL = "full"
SPACE_ANONYMOUS = "anonymous"

# plain guards, and the ceiling reachable with the long-run flag
_FULL_MAX, _FULL_LONG_MAX = 2, 3
_ANON_MAX, _ANON_LONG_MAX = 5, 6


class GuardError(ValueError):
    """Raised when an enumeration would be infeasibly large."""


class _Cells(NamedTuple):
    ncells: int
    nx: np.ndarray
    ny: np.ndarray
    dual_idx: np.ndarray
    resp_x_indptr: np.ndarray
    resp_x_targets: np.ndarray
    resp_y_indptr: np.ndarray
    resp_y_targets: np.ndarray
    trans: np.ndarray


def _csr(target_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(target_lists) + 1, dtype=np.int64)
    for i, targets in enumerate(target_lists):
        indptr[i + 1] = indptr[i] + len(targets)
    flat = np.array([t for targets in target_lists for t in targets], dtype=np.int64)
    return indptr, flat


@lru_cache(maxsize=None)
def _profile_cells(n: int) -> _Cells:
    """Index tables for the full space: one cell per profile."""
    profiles = all_profiles(n)
    count = len(profiles)
    nx = np.array([tally(p).n_x for p in profiles], dtype=np.int64)
    ny = np.array([tally(p).n_y for p in profiles], dtype=np.int64)
    dual_idx = np.array([dual(p).index for p in profiles], dtype=np.int64)
    resp_x = [[r.index for r in responsive_neighbors(p, Alternative.X)] for p in profiles]
    resp_y = [[r.index for r in responsive_neighbors(p, Alternative.Y)] for p in profiles]
    xi, xt = _csr(resp_x)
    yi, yt = _csr(resp_y)
    trans = np.array(
        [[permute(p, t).index for p in profiles] for t in adjacent_transpositions(n)],
        dtype=np.int64,
    ).reshape(n - 1, count)
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
    nx = np.array([c[0] for c in classes], dtype=np.int64)
    ny = np.array([c[1] for c in classes], dtype=np.int64)
    dual_idx = np.array([index[(c[1], c[0])] for c in classes], dtype=np.int64)
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
    trans = np.empty((0, len(classes)), dtype=np.int64)
    return _Cells(len(classes), nx, ny, dual_idx, xi, xt, yi, yt, trans)


def _guard(space: str, n: int, allow_long_run: bool) -> None:
    if n < 2:
        raise GuardError("rule-space verification needs at least two voters")
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


def _scan_space(
    space: str,
    n: int,
    q: int,
    *,
    workers: int,
    want_neutrality: bool,
    want_responsiveness: bool,
    want_anonymity: bool,
) -> tuple[int, list[int]]:
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    cells = _profile_cells(n) if space == SPACE_FULL else _tally_cells(n)
    in_rq = (np.maximum(cells.nx, cells.ny) >= q).astype(np.uint8)
    total = 1 << cells.ncells

    def run(span: tuple[int, int]) -> np.ndarray:
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
            want_neutrality=want_neutrality,
            want_responsiveness=want_responsiveness,
            want_anonymity=want_anonymity,
        )

    spans = _ranges(total, workers)
    if len(spans) == 1:
        parts = [run(spans[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(pool.map(run, spans))
    survivors = sorted(int(v) for part in parts for v in part)
    return total, survivors


def survivors_full(
    n: int,
    q: int,
    *,
    workers: int = 1,
    allow_long_run: bool = False,
    use_anonymity: bool = True,
    use_responsiveness: bool = True,
    use_neutrality: bool = True,
) -> list[int]:
    """Encodings of the full-space rules passing the selected axioms."""
    _guard(SPACE_FULL, n, allow_long_run)
    _, survivors = _scan_space(
        SPACE_FULL,
        n,
        q,
        workers=workers,
        want_neutrality=use_neutrality,
        want_responsiveness=use_responsiveness,
        want_anonymity=use_anonymity,
    )
    return survivors


def survivors_anonymous(
    n: int,
    q: int,
    *,
    workers: int = 1,
    allow_long_run: bool = False,
    use_responsiveness: bool = True,
    use_neutrality: bool = True,
) -> list[int]:
    """Encodings of the anonymous-space rules passing the selected axioms.

    Anonymity itself holds for every rule of this space by construction.
    """
    _guard(SPACE_ANONYMOUS, n, allow_long_run)
    _, survivors = _scan_space(
        SPACE_ANONYMOUS,
        n,
        q,
        workers=workers,
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
    """Canonical encodings of the quota-q qualified majority rules."""
    out = {}
    for rule in qualified_majority_rules(n, q):
        if space == SPACE_FULL:
            enc = TableRule.from_rule(rule, n).bits
        else:
            enc = AnonymousTableRule.from_rule(rule, n).bits
        out[enc] = rule.pretty()
    return out


def _matches_expected(space: str, n: int, q: int, survivors: list[int]) -> bool:
    """Survivors must be exactly the quota-q rule set.

    Table encodings are canonical (one per rule as a function), so equal
    encoding sets mean equal rule sets.
    """
    return sorted(survivors) == sorted(_expected_named(space, n, q))


def _build_result(
    space: str, n: int, q: int, examined: int, survivors: list[int], elapsed_ms: float
) -> VerificationResult:
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
        matches_theorem=_matches_expected(space, n, q, survivors),
        elapsed_ms=elapsed_ms,
    )


def enumerate_full(
    n: int,
    q: int,
    *,
    workers: int = 1,
    allow_long_run: bool = False,
) -> VerificationResult:
    """Sweep all 2^(3^n) profile tables and intersect the three axiom sets."""
    _guard(SPACE_FULL, n, allow_long_run)
    start = time.perf_counter()
    examined, survivors = _scan_space(
        SPACE_FULL,
        n,
        q,
        workers=workers,
        want_neutrality=True,
        want_responsiveness=True,
        want_anonymity=True,
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return _build_result(SPACE_FULL, n, q, examined, survivors, elapsed_ms)


def enumerate_anonymous(
    n: int,
    q: int,
    *,
    workers: int = 1,
    allow_long_run: bool = False,
) -> VerificationResult:
    """Sweep all anonymous tally tables and intersect the axiom sets.

    Restricting to this space loses nothing: anonymity is one of the
    intersected axioms, and every anonymous rule has exactly one tally
    table representative.
    """
    _guard(SPACE_ANONYMOUS, n, allow_long_run)
    start = time.perf_counter()
    examined, survivors = _scan_space(
        SPACE_ANONYMOUS,
        n,
        q,
        workers=workers,
        want_neutrality=True,
        want_responsiveness=True,
        want_anonymity=False,
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return _build_result(SPACE_ANONYMOUS, n, q, examined, survivors, elapsed_ms)


def verify_characterization(
    n: int,
    q: int,
    space: str = SPACE_FULL,
    *,
    workers: int = 1,
    allow_long_run: bool = False,
) -> bool:
    """True iff the enumeration at this single q matches the expected rule set."""
    if space == SPACE_FULL:
        result = enumerate_full(n, q, workers=workers, allow_long_run=allow_long_run)
    elif space == SPACE_ANONYMOUS:
        result = enumerate_anonymous(n, q, workers=workers, allow_long_run=allow_long_run)
    else:
        raise ValueError(f"unknown space {space!r}")
    return result.matches_theorem


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
