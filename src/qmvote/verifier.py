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
to a whole rule (``core``'s voter masks, move list, anonymity pairs,
lift and dual), and branches on a free cell only once the closure is
done. So it never visits the rules that fail, its cost follows the cell
count, and ``rules_examined`` still reports the 2^cells rules the space
holds. It is guarded by a cell cap and a survivor cap; a call past the
survivor cap, which only a call that drops axioms can reach, is refused
at every n.

Each space is one class, chosen once through ``_SPACES``: ``_FullSpace``,
whose cells are the canonical profile indices, as in ``check``, and
``_AnonymousSpace``, whose cells are the tally classes, laid out on a
grid. Only the class knows its space: its name, its cell count, its
clauses and the encodings of the quota rules in it. ``_survivors`` runs
the guards and the search in either, and ``_build_result`` reads the
report off the space. This module imports nothing profile-level:
the profile-level checkers and the balanced-profile argument for
2q <= n live in ``axioms``, which ``verify`` and ``enumerate`` never
load. The tests check the search against a sweep of every encoding and
against the profile-level checkers.
"""

from __future__ import annotations

import time

from .core import (
    FrozenValue,
    _anonymity_pairs,
    _dual,
    _lift,
    _voter_masks,
    _x_moves,
)
from .rules import num_tally_classes, qualified_majority_rules, threshold_table_rule

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


def _guard_voters(n: int) -> None:
    if n < 2:
        raise GuardError("rule-space verification needs at least two voters")


def _guard_cells(space, n: int) -> None:
    _guard_voters(n)
    where = f"{space.name} space at n={n}"
    # past n=200 either space is far over the cap (anonymous: 20,301 cells),
    # so the count, 3^n for the full space, is neither computed nor printed
    if n <= 200:
        cells = space.cells(n)
        if cells <= _MAX_CELLS:
            return
        where += f" has {cells:,} cells,"
    raise GuardError(f"{where} past the {_MAX_CELLS:,}-cell limit{space.past_cap}")


class _FullSpace:
    """The full space's clauses as masked shifts of 3^n-bit sets. A state
    is (Z, O), closed under the clauses, and O is the encoding."""

    name = SPACE_FULL
    past_cap = "; use the anonymous space"
    root = (0, 0)

    @staticmethod
    def cells(n: int) -> int:
        return 3**n

    def __init__(self, n: int, q: int, anonymity: bool, responsiveness: bool, neutrality: bool):
        masks = _voter_masks(n)
        self.n, self.masks = n, masks
        self.valid = (1 << 3**n) - 1
        # (held, k): each move toward X goes from p in held to p + k
        self.moves = [move[:2] for move in _x_moves(n, masks)] if responsiveness else []
        self.pairs = list(_anonymity_pairs(n, masks)) if anonymity else []
        self.neutrality = neutrality
        self.in_rq = _lift(n, lambda a, b: max(a, b) >= q)
        self.out_rq = self.valid ^ self.in_rq

    def rule_encoding(self, rule) -> int:
        return _lift(self.n, rule.y_wins)

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
            # X wins where a move toward X leads from an X cell, and Y wins
            # where one leads to a Y cell. Each voter's moves close in one
            # pass: toward X, 1 -> 2 comes before 2 -> 0, and, walking the
            # list backwards, toward Y 0 -> 2 before 2 -> 1.
            for held, k in self.moves:
                here = z & held
                z |= here << k if k > 0 else here >> -k
            for held, k in reversed(self.moves):
                o |= (o >> k if k > 0 else o << -k) & held
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

    name = SPACE_ANONYMOUS
    past_cap = ""
    root = (0, 0, 0, 0)
    cells = staticmethod(num_tally_classes)

    def __init__(self, n: int, q: int, anonymity: bool, responsiveness: bool, neutrality: bool):
        # anonymity holds for every rule of this space by construction
        self.n, self.w = n, 2 * n + 2
        self.valid = _grid(n, lambda a, row: row)
        self.responsiveness, self.neutrality = responsiveness, neutrality
        # R_q: all of row a when a >= q, its cells b >= q otherwise
        self.in_rq = _grid(n, lambda a, row: row if a >= q else row >> q << q)
        self.out_rq = self.valid ^ self.in_rq

    def rule_encoding(self, rule) -> int:
        return threshold_table_rule(self.n, rule.q, rule.reform).bits

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


_SPACES = {SPACE_FULL: _FullSpace, SPACE_ANONYMOUS: _AnonymousSpace}


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


def _survivors(
    space, n: int, q: int, anonymity: bool, responsiveness: bool, neutrality: bool
) -> tuple[object, list[int]]:
    """(the space's clauses at n and q, ascending encodings of the rules
    passing the selected axioms), guarded by the cell and survivor caps."""
    _guard_cells(space, n)
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    # with no axiom selected all 2^cells rules pass, so a count past the cap
    # is known without listing them
    every_rule = not (anonymity or responsiveness or neutrality)
    if not (every_rule and 1 << space.cells(n) > _MAX_SURVIVORS):
        clauses = space(n, q, anonymity, responsiveness, neutrality)
        survivors = _solutions(clauses, _MAX_SURVIVORS + 1)
        if len(survivors) <= _MAX_SURVIVORS:
            return clauses, survivors
    # only a call that drops axioms gets here
    raise GuardError(
        f"more than {_MAX_SURVIVORS:,} rules of the {space.name} space at n={n} "
        "pass the selected axioms; select more axioms"
    )


def survivors_full(
    n: int,
    q: int,
    *,
    use_anonymity: bool = True,
    use_responsiveness: bool = True,
    use_neutrality: bool = True,
) -> list[int]:
    """Encodings of the full-space rules passing the selected axioms."""
    return _survivors(_FullSpace, n, q, use_anonymity, use_responsiveness, use_neutrality)[1]


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
    return _survivors(_AnonymousSpace, n, q, False, use_responsiveness, use_neutrality)[1]


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


def _build_result(clauses, q: int, survivors: list[int], elapsed_ms: float) -> VerificationResult:
    """The report for one quota. Table encodings are canonical (one per rule
    as a function), so the theorem holds iff the survivor encodings are
    exactly those of the quota-q rules."""
    n = clauses.n
    names = {
        clauses.rule_encoding(rule): rule.pretty() for rule in qualified_majority_rules(n, q)
    }
    # the decimal label of a large encoding is costly, so only an unnamed
    # survivor gets one
    infos = tuple(
        SurvivorInfo(enc, names[enc] if enc in names else f"table@{enc}")
        for enc in survivors
    )
    return VerificationResult(
        n=n,
        q=q,
        space=clauses.name,
        rules_examined=1 << clauses.cells(n),
        survivors=infos,
        matches_theorem=sorted(survivors) == sorted(names),
        elapsed_ms=elapsed_ms,
    )


def enumerate_full(n: int, q: int) -> VerificationResult:
    """Decide all 2^(3^n) profile tables and intersect the three axiom sets."""
    return _enumerate(_FullSpace, n, q)


def enumerate_anonymous(n: int, q: int) -> VerificationResult:
    """Decide all anonymous tally tables and intersect the axiom sets.

    Restricting to this space loses nothing: anonymity is one of the
    intersected axioms, and every anonymous rule has exactly one tally
    table representative.
    """
    return _enumerate(_AnonymousSpace, n, q)


def _enumerate(space, n: int, q: int) -> VerificationResult:
    start = time.perf_counter()
    clauses, survivors = _survivors(space, n, q, True, True, True)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return _build_result(clauses, q, survivors, elapsed_ms)


def verify_characterization(n: int, q: int, space: str = SPACE_FULL) -> bool:
    """True iff the enumeration at this single q matches the expected rule set."""
    if space not in _SPACES:
        raise ValueError(f"unknown space {space!r}")
    return _enumerate(_SPACES[space], n, q).matches_theorem
