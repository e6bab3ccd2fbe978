"""Exhaustive rule-space verification.

Decides every voting rule of a space (all 2^(3^n) profile tables, or
all 2^((n+1)(n+2)/2) anonymous tally tables), keeps the rules satisfying
anonymity, responsiveness and q-neutrality, and compares the survivors
against the qualified majority rules with quota q: the expected outcome
is no survivors when 2q <= n and exactly the two quota-q rules when
2q > n.

Every axiom instance ties the winners at two cells, so the rules passing
the axioms are the solutions of a 2-CNF over cell bits (1 = Y wins). The
search holds a partial rule as two sets of cells, Z where X is fixed and
O where Y is, each one int with a bit per cell. It closes them under
every instance at once with the masked shifts ``qmvote check`` applies
to a whole rule (``core``'s voter masks, anonymity pairs, lift and
dual), and branches on a free cell only once the closure is done. So it
never visits the rules that fail, its cost follows the cell count, and
``rules_examined`` still reports the 2^cells rules the space holds. It
is guarded by a cell cap and a survivor cap; a call past the survivor
cap, which only a call that drops axioms can reach, is refused at every
n.

The full space's cells are the canonical profile indices, as in
``check``; the anonymous space's are the tally classes, laid out on a
grid (``_AnonymousSpace``). This module imports nothing profile-level:
the profile-level checkers and the balanced-profile argument for
2q <= n live in ``axioms``, which ``verify`` and ``enumerate`` never
load. The tests check the search against a sweep of every encoding and
against the profile-level checkers.
"""

from __future__ import annotations

import time

from .core import (
    _TOWARD_X,
    _TOWARD_Y,
    Alternative,
    FrozenValue,
    _anonymity_pairs,
    _dual,
    _lift,
    _voter_masks,
)
from .rules import (
    AnonymousTableRule,
    TableRule,
    num_tally_classes,
    qualified_majority_rules,
)

SPACE_FULL = "full"
SPACE_ANONYMOUS = "anonymous"

# Search guard, in cells (3^n full, (n+1)(n+2)/2 anonymous). It keeps
# 2^cells within Python's default 4300-digit int-to-str limit, which the
# JSON report needs; time is not what binds. Fresh verify --all-q
# processes on 2 vCPUs (Intel Xeon, Python 3.11.7), medians of 7-11 runs:
# full n=8 (6,561 cells) 0.08 s and 15 MB, anonymous n=160 (13,041)
# 0.35 s and 17 MB, n=165 (13,861, the largest admitted) 0.60 s and 18 MB.
_MAX_CELLS = 14000
# the search lists every survivor; refuse before that list grows large
_MAX_SURVIVORS = 1 << 16


class GuardError(ValueError):
    """Raised when an enumeration would be infeasibly large."""


def _num_cells(space: str, n: int) -> int:
    return 3**n if space == SPACE_FULL else num_tally_classes(n)


def _guard_voters(n: int) -> None:
    if n < 2:
        raise GuardError("rule-space verification needs at least two voters")


def _guard_cells(space: str, n: int) -> None:
    _guard_voters(n)
    where = f"{space} space at n={n}"
    # past n=200 either space is far over the cap (anonymous: 20,301 cells),
    # so the count, 3^n for the full space, is neither computed nor printed
    if n <= 200:
        cells = _num_cells(space, n)
        if cells <= _MAX_CELLS:
            return
        where += f" has {cells:,} cells,"
    other = "; use the anonymous space" if space == SPACE_FULL else ""
    raise GuardError(f"{where} past the {_MAX_CELLS:,}-cell limit{other}")


def _move_steps(n: int, masks: list[int], toward) -> list[tuple[int, tuple[int, ...]]]:
    """(held, shifts) per voter i and digit a with moves in ``toward``:
    ``held`` the profiles where voter i holds a, and the index change of
    each of that digit's moves. Digits come in order 0, 1, 2, so each
    voter's moves close in one pass: toward X, 1 -> 2 comes before 2 -> 0,
    and toward Y, 0 -> 2 before 2 -> 1."""
    steps = []
    for i in range(n):
        s = 3**i
        for a, moves in enumerate(toward):
            if moves:
                steps.append((masks[i] << a * s, tuple(d * s for d in moves)))
    return steps


def _moved(cells: int, steps) -> int:
    """``cells`` and every cell the moves of ``steps`` reach from them."""
    for held, shifts in steps:
        here = cells & held
        for k in shifts:
            cells |= here << k if k > 0 else here >> -k
    return cells


class _FullSpace:
    """The full space's clauses as masked shifts of 3^n-bit sets. A state
    is (Z, O), closed under the clauses, and O is the encoding."""

    root = (0, 0)

    def __init__(self, n: int, q: int, anonymity: bool, responsiveness: bool, neutrality: bool):
        masks = _voter_masks(n)
        self.n, self.masks = n, masks
        self.valid = (1 << 3**n) - 1
        self.toward_x = _move_steps(n, masks, _TOWARD_X) if responsiveness else []
        self.toward_y = _move_steps(n, masks, _TOWARD_Y) if responsiveness else []
        self.pairs = _anonymity_pairs(n, masks) if anonymity else []
        self.neutrality = neutrality
        self.in_rq = _lift(n, lambda a, b: max(a, b) >= q)
        self.out_rq = self.valid ^ self.in_rq

    @staticmethod
    def pick(free: int) -> int:
        return free.bit_length() - 1  # the highest free cell

    def fix(self, state, cell: int, y: int):
        """``state`` with the winner at ``cell`` fixed, closed; None on a conflict."""
        z, o = state
        return self._close(z, o | 1 << cell) if y else self._close(z | 1 << cell, o)

    @staticmethod
    def encoding(o: int) -> int:
        return o

    def _close(self, z: int, o: int):
        in_rq, out_rq = self.in_rq, self.out_rq
        while True:
            before = z, o
            z, o = _moved(z, self.toward_x), _moved(o, self.toward_y)
            for held, k in self.pairs:
                z |= (z & held) << k | (z >> k) & held
                o |= (o & held) << k | (o >> k) & held
            if self.neutrality:
                # the winner at dual(p) is the one at p, swapped inside R_q
                zd, od = _dual(self.n, z, self.masks), _dual(self.n, o, self.masks)
                z |= zd & out_rq | od & in_rq
                o |= od & out_rq | zd & in_rq
            if z & o:
                return None
            if (z, o) == before:
                return z, o


def _spread(cells: int, valid: int, step: int, n: int) -> int:
    """``cells`` and every valid cell up to n steps of ``step`` bits away
    (a negative step shifts right), as doubling prefix-ORs. No single
    shift exceeds n steps, so it takes a valid cell to a valid cell or to
    padding; masking at every doubling, not only at the end, drops the
    padding before a later shift carries it into another row."""
    reach = 1
    while reach <= n:
        k = reach * step
        cells = (cells | (cells << k if k > 0 else cells >> -k)) & valid
        reach *= 2
    return cells


def _grid(n: int, rows) -> int:
    """The grid set whose row a is ``rows(a, row)``, where ``row`` holds
    the row's n + 1 - a cells."""
    grid, w = 0, 2 * n + 2
    for a in reversed(range(n + 1)):
        grid = grid << w | rows(a, (1 << n + 1 - a) - 1)
    return grid


def _grid_to_classes(n: int, grid: int) -> int:
    """A grid set as an anonymous table encoding, row a to the classes
    (a, 0..n-a), which tally-class order keeps together."""
    out, w = 0, 2 * n + 2
    for a in reversed(range(n + 1)):
        out = out << n + 1 - a | grid >> a * w & (1 << n + 1 - a) - 1
    return out


class _AnonymousSpace:
    """The anonymous space's clauses as shifts on a grid of tally classes.

    Class (n_x, n_y) = (a, b) sits at bit a*W + b, in rows of W = 2n + 2
    bits, so a shift by up to n cells along a row lands in the row's
    padding. The moves toward X reach from (a, b) exactly the classes with
    more X and fewer Y supporters, so they close as "b down, then a up";
    the moves toward Y as "a down, then b up". The dual of (a, b) is
    (b, a), a transpose, which no shift gives, so a state is
    (Z, O, Zd, Od), closed under the clauses, with Zd and Od the
    transposes of Z and O. O, mapped to tally-class order, is the
    encoding."""

    root = (0, 0, 0, 0)

    def __init__(self, n: int, q: int, responsiveness: bool, neutrality: bool):
        self.n, self.w = n, 2 * n + 2
        self.valid = _grid(n, lambda a, row: row)
        self.responsiveness, self.neutrality = responsiveness, neutrality
        # R_q: all of row a when a >= q, its cells b >= q otherwise
        self.in_rq = _grid(n, lambda a, row: row if a >= q else row >> q << q)
        self.out_rq = self.valid ^ self.in_rq

    @staticmethod
    def pick(free: int) -> int:
        return (free & -free).bit_length() - 1  # the lowest free cell

    def fix(self, state, cell: int, y: int):
        """``state`` with the winner at ``cell`` fixed, closed; None on a conflict."""
        z, o, zd, od = state
        a, b = divmod(cell, self.w)
        bit, mirror = 1 << cell, 1 << b * self.w + a
        if y:
            return self._close(z, o | bit, zd, od | mirror)
        return self._close(z | bit, o, zd | mirror, od)

    def encoding(self, o: int) -> int:
        return _grid_to_classes(self.n, o)

    def _toward_x(self, cells: int) -> int:
        cells = _spread(cells, self.valid, -1, self.n)
        return _spread(cells, self.valid, self.w, self.n)

    def _toward_y(self, cells: int) -> int:
        cells = _spread(cells, self.valid, -self.w, self.n)
        return _spread(cells, self.valid, 1, self.n)

    def _close(self, z: int, o: int, zd: int, od: int):
        in_rq, out_rq = self.in_rq, self.out_rq
        while True:
            before = z, o, zd, od
            if self.responsiveness:
                # transposing turns moves toward X into moves toward Y
                z, od = self._toward_x(z), self._toward_x(od)
                o, zd = self._toward_y(o), self._toward_y(zd)
            if self.neutrality:
                z, o, zd, od = (
                    z | zd & out_rq | od & in_rq,
                    o | od & out_rq | zd & in_rq,
                    zd | z & out_rq | o & in_rq,
                    od | o & out_rq | z & in_rq,
                )
            if z & o:
                return None
            if (z, o, zd, od) == before:
                return z, o, zd, od


def _solutions(space, limit: int) -> list[int]:
    """Ascending encodings of the space's solutions, stopping once ``limit``
    have been found; empty when there is none.

    Depth first, X before Y, from the empty state, which is closed. Each
    state on the stack is closed and free of conflict, so the clauses left
    over are original ones over free cells (Even, Itai & Shamir 1976):
    when the formula has a solution, each such state extends to one, and
    the first free cell that takes neither value proves that it has none."""
    found: list[int] = []
    stack = [space.root]
    while stack and len(found) < limit:
        state = stack.pop()
        free = space.valid ^ (state[0] | state[1])
        if not free:
            found.append(space.encoding(state[1]))
            continue
        cell = space.pick(free)
        children = [child for y in (1, 0) if (child := space.fix(state, cell, y)) is not None]
        if not children:
            return []
        stack.extend(children)
    return sorted(found)


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
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    cells = _num_cells(space, n)
    # with no axiom selected all 2^cells rules pass, so a count past the cap
    # is known without listing them
    every_rule = not (want_neutrality or want_responsiveness or want_anonymity)
    if every_rule and 1 << cells > _MAX_SURVIVORS:
        survivors = None
    elif space == SPACE_FULL:
        clauses = _FullSpace(n, q, want_anonymity, want_responsiveness, want_neutrality)
        survivors = _solutions(clauses, _MAX_SURVIVORS + 1)
    else:
        clauses = _AnonymousSpace(n, q, want_responsiveness, want_neutrality)
        survivors = _solutions(clauses, _MAX_SURVIVORS + 1)
    if survivors is None or len(survivors) > _MAX_SURVIVORS:
        # only a call that drops axioms gets here
        raise GuardError(
            f"more than {_MAX_SURVIVORS:,} rules of the {space} space at n={n} "
            "pass the selected axioms; select more axioms"
        )
    return 1 << cells, survivors


def survivors_full(
    n: int,
    q: int,
    *,
    use_anonymity: bool = True,
    use_responsiveness: bool = True,
    use_neutrality: bool = True,
) -> list[int]:
    """Encodings of the full-space rules passing the selected axioms."""
    _guard_cells(SPACE_FULL, n)
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
    _guard_cells(SPACE_ANONYMOUS, n)
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
    """Canonical encodings of the quota-q qualified majority rules: Y wins
    where n_x < q under reform X, and where n_y >= q under reform Y."""
    named = {}
    for rule in qualified_majority_rules(n, q):
        y_reform = rule.reform is Alternative.Y
        if space == SPACE_FULL:
            encoding = _lift(n, (lambda a, b: b >= q) if y_reform else (lambda a, b: a < q))
        else:
            rows = (lambda a, row: row >> q << q) if y_reform else (lambda a, row: row * (a < q))
            encoding = _grid_to_classes(n, _grid(n, rows))
        named[encoding] = rule.pretty()
    return named


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
    _guard_cells(space, n)
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
