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
``rules_examined`` still reports the 2^cells rules the space holds. The
responsiveness and anonymity clauses do not depend on the quota: their
implication graph is built once per space, n and axiom subset
(``_base_graph``), and each quota adds only the q-neutrality lookup. It
is guarded by a cell cap and a survivor cap.

The index tables behind both spaces are built arithmetically, with no
``Profile`` objects: ``_profile_cells`` reads every full-space relation
(dual, adjacent transpositions, single-voter moves) off the base-3
digits of a profile's index, and ``_tally_cells`` reads the anonymous
ones off the tally classes. ``run_table_checks``, behind ``qmvote
check``, scans one rule's output column against the full-space tables and
stops at the first violation of each axiom in canonical order; the
profile-level checkers in ``axioms`` are the oracle it is tested against.
It is the one path here that imports ``axioms``, for the report types,
so ``verify`` and ``enumerate`` load none of it.

``_sweep_survivors`` is the oracle the tests compare the search with: the numpy
kernel in ``_kernels`` tests every encoding, over contiguous ranges split
across at most one thread per CPU (numpy releases the interpreter lock
inside its array operations, so the threads overlap). ``workers`` sets
that split and nothing else. The sweep has its own n caps, and it also
serves a library call whose survivors pass the SAT survivor cap while
the sweep's caps admit the size. numpy and the thread pool are imported
only when the sweep runs.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import _twosat
from .core import (
    Alternative,
    Preference,
    Profile,
    dual,
    permute,
    strict_preference_for,
    tally,
)
from .rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    evaluator,
    num_tally_classes,
    qualified_majority_rules,
    tally_class_index,
    tally_classes,
)

if TYPE_CHECKING:
    from .axioms import AxiomReport

SPACE_FULL = "full"
SPACE_ANONYMOUS = "anonymous"

# SAT engine guard, in cells (3^n full, (n+1)(n+2)/2 anonymous). It keeps
# 2^cells within Python's default 4300-digit int-to-str limit, which the
# JSON report needs. Against a 5 s budget for verify --all-q, start-up
# included, on 2 vCPUs (Intel Xeon, Python 3.11.7), as fresh processes:
# full n=8 (6,561 cells) 0.5-0.7 s, anonymous n=160 (13,041) 4.2-5.3 s and
# n=165 (13,861, the largest admitted) 4.5-5.7 s while the host ran about
# 2.4x slower than usual; on a quiet host a slower search had taken n=160
# 2.0-2.1 s and n=165 2.3-2.4 s.
_SAT_MAX_CELLS = 14000
# the SAT engine lists every survivor; refuse before that list grows large
_SAT_MAX_SURVIVORS = 1 << 16
# sweep guards, in voters: the plain cap and the ceiling with the long-run flag
_FULL_MAX, _FULL_LONG_MAX = 2, 3
_ANON_MAX, _ANON_LONG_MAX = 5, 6


class GuardError(ValueError):
    """Raised when an enumeration would be infeasibly large."""


class _Cells(NamedTuple):
    ncells: int
    nx: Sequence[int]
    ny: Sequence[int]
    support: Sequence[int]  # max(nx, ny): the cell lies in R_q iff support >= q
    dual_idx: Sequence[int]
    resp_x_indptr: Sequence[int]
    resp_x_targets: Sequence[int]
    resp_y_indptr: Sequence[int]
    resp_y_targets: Sequence[int]
    trans: list[Sequence[int]]


def _csr(target_lists: list[list[int]]) -> tuple[list[int], list[int]]:
    indptr = [0]
    for targets in target_lists:
        indptr.append(indptr[-1] + len(targets))
    return indptr, [t for targets in target_lists for t in targets]


# A profile index is a base-3 number, voter i's digit weighing 3^i (0 =
# STRICT_X, 1 = STRICT_Y, 2 = INDIFFERENT). Per digit, the digit changes of
# one voter's move toward X or toward Y, indifferent before strict, as in
# core.responsive_neighbors; and the digit each state takes in the dual.
_TOWARD_X = ((), (1, -1), (-2,))
_TOWARD_Y = ((2, 1), (), (-1,))
_DUAL_DIGIT = (1, 0, 2)


def _digit_sums(n: int, value, start=0) -> list:
    """Per index of n base-3 digits, ``start`` plus the sum over digits i,
    lowest first, of ``value(i, digit i)``; tuple values concatenate."""
    sums = [start]
    for i in range(n):
        sums = [s + add for add in (value(i, 0), value(i, 1), value(i, 2)) for s in sums]
    return sums


def _moves(n: int, toward) -> tuple[array, array]:
    """The single-voter moves of every profile as CSR (indptr, targets).

    A profile's moves are those of its low n//2 voters followed by those
    of its high voters, so two small tables of index changes, one per
    half, give every target."""

    def deltas(k: int, first: int) -> list[tuple[int, ...]]:
        return _digit_sums(k, lambda i, d: tuple(s * 3 ** (first + i) for s in toward[d]), ())

    low_n = n // 2
    low, high = deltas(low_n, 0), deltas(n - low_n, low_n)
    counts = (len(head) + len(tail) for tail in high for head in low)
    indptr = array("i", accumulate(counts, initial=0))
    targets = array("i")
    for h, tail in enumerate(high):
        targets.extend([p + d for p, head in enumerate(low, h * len(low)) for d in head + tail])
    return indptr, targets


def _swap_weight(j: int, i: int) -> int:
    """3^i with the places of voters j and j+1 exchanged."""
    return 3 ** (j + 1) if i == j else 3**j if i == j + 1 else 3**i


@lru_cache(maxsize=4)
def _profile_cells(n: int) -> _Cells:
    """Index tables for the full space: one cell per profile.

    Built from base-3 digit arithmetic alone, without Profile objects;
    the test suite checks them against tables built through the
    profile-level operations in ``core``."""
    nx = array("i", _digit_sums(n, lambda i, d: int(d == 0)))
    ny = array("i", _digit_sums(n, lambda i, d: int(d == 1)))
    support = array("i", map(max, nx, ny))
    dual_idx = array("i", _digit_sums(n, lambda i, d: _DUAL_DIGIT[d] * 3**i))
    xi, xt = _moves(n, _TOWARD_X)
    yi, yt = _moves(n, _TOWARD_Y)
    trans = [
        array("i", _digit_sums(n, lambda i, d, j=j: d * _swap_weight(j, i)))
        for j in range(n - 1)
    ]
    return _Cells(3**n, nx, ny, support, dual_idx, xi, xt, yi, yt, trans)


@lru_cache(maxsize=4)
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
    support = [max(c) for c in classes]
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
    return _Cells(len(classes), nx, ny, support, dual_idx, xi, xt, yi, yt, [])


# Output columns: one byte per cell, the winner there (0 = X, 1 = Y).
_BIT_TO_DIGIT = bytes.maketrans(b"\0\1", b"01")
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\0\1")
_WINNER = (Alternative.X, Alternative.Y)


def _bits_column(bits: int, ncells: int) -> bytes:
    """The output column of a table encoding (bit k = winner at cell k)."""
    return format(bits, f"0{ncells}b")[::-1].encode().translate(_DIGIT_TO_BIT)


def _column_bits(column: bytes) -> int:
    """The table encoding of an output column."""
    return int(column[::-1].translate(_BIT_TO_DIGIT), 2)


def _quota_column(cells: _Cells, q: int, reform: Alternative) -> bytes:
    """The output column of the quota-q rule with this reform: the reform
    wins where its strict supporters reach q."""
    if reform is Alternative.X:
        return bytes(map(q.__gt__, cells.nx))
    return bytes(map(q.__le__, cells.ny))


def _rule_column(rule, n: int, cells: _Cells) -> bytes:
    """A rule's output column over the full-space tables, read off its
    definition without evaluating any profile."""
    if getattr(rule, "n", n) != n:
        raise ValueError(f"rule is for n={rule.n}, checked at n={n}")
    if isinstance(rule, TableRule):
        return _bits_column(rule.bits, cells.ncells)
    if isinstance(rule, AnonymousTableRule):
        by_class = _bits_column(rule.bits, num_tally_classes(n))
        classes = map(tally_class_index, repeat(n), cells.nx, cells.ny)
        return bytes(map(by_class.__getitem__, classes))
    if isinstance(rule, QualifiedMajorityRule):
        return _quota_column(cells, rule.q, rule.reform)
    raise TypeError(f"no output column for {type(rule).__name__}")


# Each scan returns its first violation as (profile, counterpart, winner
# the axiom requires at the counterpart), or None when the rule passes.
_Violation = Optional[tuple[int, int, int]]


def _first_anonymity_violation(cells: _Cells, out: bytes) -> _Violation:
    """The first profile and transposed profile with different winners, by
    profile index and then transposition index."""
    first = None
    for column in cells.trans:
        # a later transposition comes first only at an earlier profile
        for p in range(cells.ncells if first is None else first[0]):
            if out[column[p]] != out[p]:
                first = (p, column[p], out[p])
                break
    return first


def _first_responsiveness_violation(cells: _Cells, out: bytes) -> _Violation:
    """The first profile and move toward its winner that loses the winner,
    by profile index and then canonical move order."""
    tables = (
        (cells.resp_x_indptr, cells.resp_x_targets),
        (cells.resp_y_indptr, cells.resp_y_targets),
    )
    for p, winner in enumerate(out):
        indptr, targets = tables[winner]
        for j in range(indptr[p], indptr[p + 1]):
            if out[targets[j]] != winner:
                return p, targets[j], winner
    return None


def _first_neutrality_violation(cells: _Cells, out: bytes, q: int) -> _Violation:
    """The first profile whose dual breaks q-neutrality: the winner must
    swap under reversal exactly inside R_q."""
    for p, (d, s) in enumerate(zip(cells.dual_idx, cells.support)):
        required = out[p] ^ (s >= q)
        if out[d] != required:
            return p, d, required
    return None


def _report(
    axiom: str, n: int, out: bytes, found: _Violation, q: Optional[int] = None
) -> AxiomReport:
    from .axioms import AxiomReport, Witness

    if found is None:
        return AxiomReport(axiom, True, q=q)
    p, t, expected = found
    witness = Witness(
        Profile.from_index(n, p), Profile.from_index(n, t), _WINNER[expected], _WINNER[out[t]]
    )
    return AxiomReport(axiom, False, witness, q=q)


def run_table_checks(rule, n: int, q: int) -> list[AxiomReport]:
    """``axioms.run_all_checks(rule, n, q)``, witnesses included, as scans of
    the rule's output column against the full-space index tables.

    Each check stops at its first violation in the same canonical order as
    the profile-level checker. ``rule`` is a ``TableRule``, an
    ``AnonymousTableRule`` or a ``QualifiedMajorityRule``; an anonymous
    table is lifted to the profiles, so its witnesses name profiles too.
    """
    from .axioms import ANONYMITY, Q_NEUTRALITY, RESPONSIVENESS

    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    cells = _profile_cells(n)
    out = _rule_column(rule, n, cells)
    return [
        _report(ANONYMITY, n, out, _first_anonymity_violation(cells, out)),
        _report(RESPONSIVENESS, n, out, _first_responsiveness_violation(cells, out)),
        _report(Q_NEUTRALITY, n, out, _first_neutrality_violation(cells, out, q), q=q),
    ]


def _num_cells(space: str, n: int) -> int:
    return 3**n if space == SPACE_FULL else num_tally_classes(n)


def _guard_voters(n: int) -> None:
    if n < 2:
        raise GuardError("rule-space verification needs at least two voters")


def _guard_sat(space: str, n: int) -> None:
    _guard_voters(n)
    where = f"{space} space at n={n}"
    # past n=200 either space is far over the cap (anonymous: 20,301 cells),
    # so the count, 3^n for the full space, is neither computed nor printed
    if n <= 200:
        cells = _num_cells(space, n)
        if cells <= _SAT_MAX_CELLS:
            return
        where += f" has {cells:,} cells,"
    other = "; use the anonymous space" if space == SPACE_FULL else ""
    raise GuardError(f"{where} past the {_SAT_MAX_CELLS:,}-cell limit{other}")


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


def _sweep(cells: _Cells, q: int, workers: int, **checks: bool) -> list[int]:
    # numpy and the thread pool are loaded only when the oracle runs
    from concurrent.futures import ThreadPoolExecutor

    from . import _kernels

    in_rq = [int(s >= q) for s in cells.support]

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


def _space_cells(space: str, n: int) -> _Cells:
    return _profile_cells(n) if space == SPACE_FULL else _tally_cells(n)


def _checked_cells(space: str, n: int, q: int) -> _Cells:
    """The space's index tables, once the quota is known to be in range."""
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    return _space_cells(space, n)


@lru_cache(maxsize=4)
def _base_graph(space: str, n: int, responsiveness: bool, anonymity: bool) -> list[list[int]]:
    """The quota-independent implication graph: built once per space, n
    and axiom subset, and read, never modified, by every quota's search."""
    return _twosat.implications(
        _space_cells(space, n), responsiveness=responsiveness, anonymity=anonymity
    )


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
    cells = _checked_cells(space, n, q)
    survivors = _twosat.solutions(
        _base_graph(space, n, want_responsiveness, want_anonymity),
        _SAT_MAX_SURVIVORS + 1,
        dual=cells.dual_idx if want_neutrality else None,
        support=cells.support,
        q=q,
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
            q,
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
    cells = _checked_cells(space, n, q)
    checks = {"want_anonymity": space == SPACE_FULL, **checks}
    return _sweep(cells, q, workers, **checks)


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
    _guard_sat(SPACE_FULL, n)
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
    _guard_sat(SPACE_ANONYMOUS, n)
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
    """Canonical encodings of the quota-q qualified majority rules, read off
    the cells' tally columns."""
    cells = _space_cells(space, n)
    return {
        _column_bits(_quota_column(cells, rule.q, rule.reform)): rule.pretty()
        for rule in qualified_majority_rules(n, q)
    }


def _build_result(
    space: str, n: int, q: int, examined: int, survivors: list[int], elapsed_ms: float
) -> VerificationResult:
    """The report for one quota. Table encodings are canonical (one per rule
    as a function), so the theorem holds iff the survivor encodings are
    exactly those of the quota-q rules."""
    names = _expected_named(space, n, q)
    # the decimal label of a large encoding is costly, so only an unnamed
    # survivor gets one
    infos = tuple(
        SurvivorInfo(enc, names[enc] if enc in names else f"table@{enc}")
        for enc in survivors
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
    """Decide all 2^(3^n) profile tables and intersect the three axiom sets.

    ``allow_long_run`` is accepted and ignored: one cell cap serves every call.
    """
    return _enumerate(SPACE_FULL, n, q)


def enumerate_anonymous(
    n: int, q: int, *, allow_long_run: bool = False
) -> VerificationResult:
    """Decide all anonymous tally tables and intersect the axiom sets.

    Restricting to this space loses nothing: anonymity is one of the
    intersected axioms, and every anonymous rule has exactly one tally
    table representative. ``allow_long_run`` is accepted and ignored.
    """
    return _enumerate(SPACE_ANONYMOUS, n, q)


def _enumerate(space: str, n: int, q: int) -> VerificationResult:
    _guard_sat(space, n)
    start = time.perf_counter()
    examined, survivors = _scan_space(
        space,
        n,
        q,
        allow_long_run=False,  # with every axiom at most two rules survive
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
    return _enumerate(space, n, q).matches_theorem


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
