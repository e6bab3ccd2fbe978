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
is guarded by a cell cap and a survivor cap; a call past the survivor
cap, which only a call that drops axioms can reach, is refused at every n.

The index tables behind both spaces are built arithmetically, with no
``Profile`` objects: ``_profile_cells`` reads every full-space relation
(dual, adjacent transpositions, single-voter moves toward X) off the
base-3 digits of a profile's index, and ``_tally_cells`` reads the
anonymous ones off the tally classes. The moves toward Y need no table:
each is the reverse of a move toward X, so it gives the same clause.
This module works on cells alone and imports nothing profile-level; the
profile-level checkers and the balanced-profile argument for 2q <= n
live in ``axioms``, which ``verify`` and ``enumerate`` never load, and
``qmvote check`` runs in ``_tablecheck`` and loads none of this module.

The search is the one engine. The sweep in ``_kernels``, which tests
every encoding, is only the oracle the tests compare it with, and
nothing here imports it.
"""

from __future__ import annotations

import time
from array import array
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

from . import _twosat
from .core import _TOWARD_X, Alternative, FrozenValue
from .rules import (
    AnonymousTableRule,
    TableRule,
    num_tally_classes,
    qualified_majority_rules,
    tally_classes,
)

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
    trans: list[Sequence[int]]


def _csr(target_lists: list[list[int]]) -> tuple[list[int], list[int]]:
    indptr = [0]
    for targets in target_lists:
        indptr.append(indptr[-1] + len(targets))
    return indptr, [t for targets in target_lists for t in targets]


# A profile index is a base-3 number, voter i's digit weighing 3^i (0 =
# STRICT_X, 1 = STRICT_Y, 2 = INDIFFERENT). Per digit, the digit each
# state takes in the dual; core._TOWARD_X gives the moves.
_DUAL_DIGIT = (1, 0, 2)


def _digit_sums(n: int, value, start=0) -> list:
    """Per index of n base-3 digits, ``start`` plus the sum over digits i,
    lowest first, of ``value(i, digit i)``; tuple values concatenate."""
    sums = [start]
    for i in range(n):
        sums = [s + add for add in (value(i, 0), value(i, 1), value(i, 2)) for s in sums]
    return sums


def _moves(n: int) -> tuple[array, array]:
    """The single-voter moves toward X of every profile as CSR (indptr,
    targets), each profile's in the canonical neighbor order."""
    deltas = _digit_sums(n, lambda i, d: tuple(s * 3**i for s in _TOWARD_X[d]), ())
    indptr = array("i", accumulate(map(len, deltas), initial=0))
    targets = array("i", [p + d for p, moves in enumerate(deltas) for d in moves])
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
    xi, xt = _moves(n)
    trans = [
        array("i", _digit_sums(n, lambda i, d, j=j: d * _swap_weight(j, i)))
        for j in range(n - 1)
    ]
    return _Cells(3**n, nx, ny, support, dual_idx, xi, xt, trans)


@lru_cache(maxsize=4)
def _tally_cells(n: int) -> _Cells:
    """Index tables for the anonymous space: one cell per tally class.

    Built arithmetically from the three single-voter moves toward X,
    independently of the profile-level neighbor generator; the
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
    for cx, cy in classes:
        toward_x = []
        if cy >= 1:
            toward_x.append(index[(cx + 1, cy - 1)])
            toward_x.append(index[(cx, cy - 1)])
        if cx + cy < n:
            toward_x.append(index[(cx + 1, cy)])
        resp_x.append(toward_x)
    xi, xt = _csr(resp_x)
    return _Cells(len(classes), nx, ny, support, dual_idx, xi, xt, [])


# Output columns: one byte per cell, the winner there (0 = X, 1 = Y).
_BIT_TO_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _column_bits(column: bytes) -> int:
    """The table encoding of an output column."""
    return int(column[::-1].translate(_BIT_TO_DIGIT), 2)


def _quota_column(cells: _Cells, q: int, reform: Alternative) -> bytes:
    """The output column of the quota-q rule with this reform: the reform
    wins where its strict supporters reach q."""
    if reform is Alternative.X:
        return bytes(map(q.__gt__, cells.nx))
    return bytes(map(q.__le__, cells.ny))


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
    want_neutrality: bool,
    want_responsiveness: bool,
    want_anonymity: bool,
) -> tuple[int, list[int]]:
    """(2^cells, ascending encodings of the rules passing the selected axioms)."""
    cells = _checked_cells(space, n, q)
    # with no axiom selected all 2^cells rules pass, so a count past the cap
    # is known without listing them
    every_rule = not (want_neutrality or want_responsiveness or want_anonymity)
    if every_rule and 1 << cells.ncells > _SAT_MAX_SURVIVORS:
        survivors = None
    else:
        survivors = _twosat.solutions(
            _base_graph(space, n, want_responsiveness, want_anonymity),
            _SAT_MAX_SURVIVORS + 1,
            dual=cells.dual_idx if want_neutrality else None,
            support=cells.support,
            q=q,
        )
    if survivors is None or len(survivors) > _SAT_MAX_SURVIVORS:
        # only a call that drops axioms gets here
        raise GuardError(
            f"more than {_SAT_MAX_SURVIVORS:,} rules of the {space} space at n={n} "
            "pass the selected axioms; select more axioms"
        )
    return 1 << cells.ncells, survivors


def survivors_full(
    n: int,
    q: int,
    *,
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
        want_neutrality=use_neutrality,
        want_responsiveness=use_responsiveness,
        want_anonymity=use_anonymity,
    )
    return survivors


def survivors_anonymous(
    n: int,
    q: int,
    *,
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
        want_neutrality=use_neutrality,
        want_responsiveness=use_responsiveness,
        want_anonymity=False,
    )
    return survivors


class SurvivorInfo(FrozenValue):
    __slots__ = _fields = ("encoding", "pretty")

    def __init__(self, encoding: int, pretty: str) -> None:
        self._set(encoding, pretty)

    def to_json_dict(self) -> dict:
        return {"encoding": self.encoding, "pretty": self.pretty}


class VerificationResult(FrozenValue):
    __slots__ = _fields = (
        "n", "q", "space", "rules_examined", "survivors", "matches_theorem", "elapsed_ms"
    )

    def __init__(
        self,
        n: int,
        q: int,
        space: str,
        rules_examined: int,
        survivors: tuple[SurvivorInfo, ...],
        matches_theorem: bool,
        elapsed_ms: float,
    ) -> None:
        self._set(n, q, space, rules_examined, survivors, matches_theorem, elapsed_ms)

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


def enumerate_full(n: int, q: int) -> VerificationResult:
    """Decide all 2^(3^n) profile tables and intersect the three axiom sets."""
    return _enumerate(SPACE_FULL, n, q)


def enumerate_anonymous(n: int, q: int) -> VerificationResult:
    """Decide all anonymous tally tables and intersect the axiom sets.

    Restricting to this space loses nothing: anonymity is one of the
    intersected axioms, and every anonymous rule has exactly one tally
    table representative.
    """
    return _enumerate(SPACE_ANONYMOUS, n, q)


def _enumerate(space: str, n: int, q: int) -> VerificationResult:
    _guard_sat(space, n)
    start = time.perf_counter()
    examined, survivors = _scan_space(
        space,
        n,
        q,
        want_neutrality=True,
        want_responsiveness=True,
        want_anonymity=space == SPACE_FULL,
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return _build_result(space, n, q, examined, survivors, elapsed_ms)


def verify_characterization(n: int, q: int, space: str = SPACE_FULL) -> bool:
    """True iff the enumeration at this single q matches the expected rule set."""
    if space not in (SPACE_FULL, SPACE_ANONYMOUS):
        raise ValueError(f"unknown space {space!r}")
    return _enumerate(space, n, q).matches_theorem
