"""Exhaustive rule-space verification.

Decides every voting rule of a space (all 2^(3^n) profile tables, or
all 2^((n+1)(n+2)/2) anonymous tally tables), keeps the rules satisfying
anonymity, responsiveness and q-neutrality, and compares the survivors
against the qualified majority rules with quota q: the expected outcome
is no survivors when 2q <= n and exactly the two quota-q rules when
2q > n.

Every axiom instance ties the winners at two cells, so the rules passing
the axioms are the solutions of a 2-CNF over cell bits (1 = Y wins). One
search serves both spaces: it closes a partial rule under every instance
at once and only then branches on a free cell, so it never visits the
rules that fail, its cost follows the cell count, and ``rules_examined``
still reports the 2^cells rules the space holds. A cell cap and a
survivor cap guard it; only a call that drops axioms can pass the
survivor cap, and it is refused at every n.

The layout class is the anonymity axiom: ``_AnonymousSpace`` lays the
tally classes out on a grid; ``_LiftedSpace``, the full space under
anonymity, searches that grid and lifts each survivor to the profiles of
its classes; ``_FullSpace``, the full space without anonymity, numbers
cells by canonical profile index, as ``check`` does. One layout serves
every quota at n: it holds its cells, its moves toward X and toward Y as
masked shifts, which ``_reached`` follows in one pass, the seed of a
decision (its cell and the cell's mirror), the branching order and the
encoding of a cell set (on the grid by ``rules._pack_rows``, lifted by
``core._lift``), and ``at(q)`` sets where each quota-q rule elects Y and
R_q, where either wins. An axiom a call drops is absent from it, and the
survivors are matched to the quota rules by cell set, so only they are
encoded.
This module imports nothing profile-level: the profile-level checkers
and the balanced-profile argument for 2q <= n live in ``axioms``, which
``verify`` and ``enumerate`` never load. The tests check the search
against a sweep of every encoding and the profile-level checkers, and
the layouts, R_q included, against profile-level reachability and
support.
"""

from __future__ import annotations

import time

from .core import (
    Alternative,
    FrozenValue,
    _dual_index,
    _lift,
    _voter_masks,
    _x_moves,
)
from .rules import _pack_rows, num_tally_classes, qualified_majority_rules

_X, _Y = Alternative.X, Alternative.Y
SPACE_FULL = "full"
SPACE_ANONYMOUS = "anonymous"

# Search guard, in cells (3^n full, (n+1)(n+2)/2 anonymous). It keeps
# 2^cells within Python's default 4300-digit int-to-str limit, which the
# JSON report needs; time is not what binds. Fresh verify --all-q
# processes on 2 vCPUs (Intel Xeon, Python 3.11.7), medians of 9 runs:
# full n=8 (6,561 cells) 0.07 s and 15 MB, anonymous n=160 (13,041)
# 0.25 s and 17 MB, n=165 (13,861, the largest admitted) 0.27 s and 18 MB.
_MAX_CELLS = 14000
# the search lists every survivor, so a refused call has listed 65,537: without
# anonymity, every quota of full n=5 takes 3.2-3.8 s and of n=8 22-25 s (2 vCPUs)
_MAX_SURVIVORS = 1 << 16


class GuardError(ValueError):
    """Raised when an enumeration would be infeasibly large."""


def _layout(space, n: int, responsiveness: bool, neutrality: bool):
    """The space's layout at n voters, once the cell guard admits n."""
    if n < 2:
        raise GuardError("rule-space verification needs at least two voters")
    where = f"{space.name} space at n={n}"
    # past n=200 either space is far over the cap (anonymous: 20,301 cells),
    # so the count, 3^n for the full space, is neither computed nor printed
    if n <= 200:
        cells = space.cells(n)
        if cells <= _MAX_CELLS:
            return space(n, responsiveness, neutrality)
        where += f" has {cells:,} cells,"
    raise GuardError(f"{where} past the {_MAX_CELLS:,}-cell limit{space.past_cap}")


class _Layout:
    def at(self, q: int):
        """This layout at quota q: where each quota-q rule, keyed by reform,
        elects Y, and R_q, where either wins (empty without q-neutrality)."""
        self.elects_y = dict(zip((_X, _Y), self.threshold_sets(q)))
        self.in_rq = self.elects_y[_Y] | self.valid ^ self.elects_y[_X] if self.neutrality else 0
        self.out_rq = self.valid ^ self.in_rq if self.neutrality else 0
        return self


class _FullSpace(_Layout):
    """The full space without anonymity: cells are profile indices, as in
    ``check``, and the clauses are masked shifts of 3^n-bit sets."""

    name = SPACE_FULL
    past_cap = "; use the anonymous space"

    @staticmethod
    def cells(n: int) -> int:
        return 3**n

    def __init__(self, n: int, responsiveness: bool, neutrality: bool):
        self.n, self.neutrality = n, neutrality
        self.valid = (1 << 3**n) - 1
        self.x_moves = [move[:2] for move in _x_moves(n, _voter_masks(n))] if responsiveness else []
        self.y_moves = _backwards(self.x_moves)

    def threshold_sets(self, q: int) -> tuple[int, int]:
        """Where reform X and where reform Y elects Y at quota q."""
        return _lift(self.n, lambda a, b: a < q), _lift(self.n, lambda a, b: b >= q)

    @staticmethod
    def pick(free: int) -> int:
        # the highest free cell: the lowest took n=8 1.4 -> 3.7 ms and n=10 (cap
        # lifted) 8.6 -> 40 ms in-process over the qualified quotas (2 vCPUs)
        return free.bit_length() - 1

    @staticmethod
    def encoding(o: int) -> int:
        return o

    def seed(self, cell: int) -> tuple[int, int]:
        """The cell a decision fixes and its dual, or 0 without q-neutrality."""
        return 1 << cell, 1 << _dual_index(self.n, cell) if self.neutrality else 0


def _reached(cells: int, moves) -> int:
    """``cells`` and every cell ``moves`` reach from them in one pass: a
    move (held, k) adds p + k for each p in ``held`` reached so far."""
    for held, k in moves:
        here = cells & held
        cells |= here << k if k > 0 else here >> -k
    return cells


def _backwards(moves) -> list:
    """``moves`` taken backwards, last first: each from p + k to p."""
    return [(held << k if k > 0 else held >> -k, -k) for held, k in reversed(moves)]


class _AnonymousSpace(_Layout):
    """The anonymous space's layout: tally classes on a grid.

    Class (n_x, n_y) = (a, b) sits at bit a*W + b, in rows of W = 2n + 2
    bits, so a shift by up to n cells along a row lands in the row's
    padding. The moves toward X reach from (a, b) exactly the classes with
    more X and fewer Y supporters, so they are listed as "b down, then a
    up", each by doubling shifts; the moves toward Y are those backwards,
    "a down, then b up"."""

    name = SPACE_ANONYMOUS
    past_cap = ""
    cells = staticmethod(num_tally_classes)

    def __init__(self, n: int, responsiveness: bool, neutrality: bool):
        self.n, self.w, self.neutrality = n, 2 * n + 2, neutrality
        self.valid = valid = sum((1 << n + 1 - a) - 1 << a * self.w for a in range(n + 1))
        self.column = valid & ~(valid << 1)  # the cells b = 0
        # shifts by 1, 2, 4, ... <= n cells, each from the valid cells whose
        # target is valid: no padding moves, so none reaches another row
        doubling = [1 << i for i in range(n.bit_length())] if responsiveness else []
        shifts = [-d for d in doubling] + [d * self.w for d in doubling]
        self.x_moves = [(valid & (valid >> k if k > 0 else valid << -k), k) for k in shifts]
        self.y_moves = _backwards(self.x_moves)

    def threshold_sets(self, q: int) -> tuple[int, int]:
        """Reform X elects Y in the rows a < q, the low q*W bits, and reform
        Y in the cells b >= q, off the first column shifted by 0..q-1 cells."""
        return self.valid & (1 << q * self.w) - 1, self.valid & ~(self.column * ((1 << q) - 1))

    @staticmethod
    def pick(free: int) -> int:
        return (free & -free).bit_length() - 1  # the lowest free cell

    def encoding(self, o: int) -> int:
        w = self.w
        return _pack_rows(self.n, lambda a: o >> a * w)

    def seed(self, cell: int) -> tuple[int, int]:
        a, b = divmod(cell, self.w)  # the mirror of (a, b) is (b, a)
        return 1 << cell, 1 << b * self.w + a if self.neutrality else 0


class _LiftedSpace(_AnonymousSpace):
    """The full space under anonymity: a winner depends on the tally alone,
    so these rules are the grid's, each lifted to its classes' profiles."""

    name, past_cap, cells = _FullSpace.name, _FullSpace.past_cap, staticmethod(_FullSpace.cells)

    def encoding(self, o: int) -> int:
        return _lift(self.n, lambda a, b: o >> a * self.w + b & 1)


_SPACES = {SPACE_FULL: _LiftedSpace, SPACE_ANONYMOUS: _AnonymousSpace}


def _close(space, state, new):
    """``state``, which is closed, with the cells of ``new`` added and
    closed; None on a conflict. A state is (Z, O, Zd, Od): the cells where
    X and where Y is fixed, and the cells whose duals are. A dual swaps each
    voter's X and Y, so Od closes toward X, as Z does, and Zd toward Y. The
    closures are complete and, like the neutrality exchange, distribute
    over unions of cells, so only the cells new to the state need closing."""
    in_rq, out_rq = space.in_rq, space.out_rq
    x_moves, y_moves = space.x_moves, space.y_moves
    z, o, zd, od = state
    nz, no, nzd, nod = new
    while True:
        # X wins where a move toward X leads from an X cell, and Y wins
        # where one leads to a Y cell; an empty set needs no closing
        z, od = z | (nz and _reached(nz, x_moves)), od | (nod and _reached(nod, x_moves))
        o, zd = o | (no and _reached(no, y_moves)), zd | (nzd and _reached(nzd, y_moves))
        if z & o:
            return None
        # q-neutrality: the winner at p is the one at dual(p), swapped
        # inside R_q, which is self-dual
        nz, no, nzd, nod = (
            (zd & out_rq | od & in_rq) & ~z,
            (od & out_rq | zd & in_rq) & ~o,
            (z & out_rq | o & in_rq) & ~zd,
            (o & out_rq | z & in_rq) & ~od,
        )
        if not (nz or no or nzd or nod):
            return z, o, zd, od


def _fix(space, state, cell: int, y: int):
    """``state`` with the winner at ``cell`` fixed, closed; None on a conflict."""
    cells, mirror = space.seed(cell)
    return _close(space, state, (0, cells, 0, mirror) if y else (cells, 0, mirror, 0))


def _solutions(space, limit: int) -> list[int]:
    """The O sets of the space's solutions, in no order, stopping once
    ``limit`` have been found; empty when there is none.

    Depth first, X before Y, from the empty state, which is closed. Each
    state on the stack is closed and free of conflict, so the clauses left
    over are original ones over free cells (Even, Itai & Shamir 1976):
    when the formula has a solution, each such state extends to one, and
    the first free cell that takes neither value proves that it has none."""
    found: list[int] = []
    stack = [(0, 0, 0, 0)]
    while stack and len(found) < limit:
        state = stack.pop()
        free = space.valid ^ (state[0] | state[1])
        if not free:
            found.append(state[1])
            continue
        cell = space.pick(free)
        children = [child for y in (1, 0) if (child := _fix(space, state, cell, y)) is not None]
        if not children:
            return []
        stack.extend(children)
    return found


def _survivors(layout, q: int) -> list[tuple[int, int]]:
    """(encoding, cell set) of each rule passing the layout's axioms at
    quota q, ascending by encoding, guarded by the survivor cap."""
    n = layout.n
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    layout.at(q)
    # a layout with no moves and no mirrors has no clause, so every rule on
    # its cells passes and a count past the cap is known without listing them
    if layout.x_moves or layout.neutrality or 1 << layout.valid.bit_count() <= _MAX_SURVIVORS:
        survivors = _solutions(layout, _MAX_SURVIVORS + 1)
        if len(survivors) <= _MAX_SURVIVORS:  # a refusal encodes none of them
            return sorted((layout.encoding(o), o) for o in survivors)
    # only a call that drops axioms gets here
    raise GuardError(
        f"more than {_MAX_SURVIVORS:,} rules of the {layout.name} space at n={n} "
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
    space = _LiftedSpace if use_anonymity else _FullSpace
    return [enc for enc, _ in _survivors(_layout(space, n, use_responsiveness, use_neutrality), q)]


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
    layout = _layout(_AnonymousSpace, n, use_responsiveness, use_neutrality)
    return [enc for enc, _ in _survivors(layout, q)]


class SurvivorInfo(FrozenValue):
    __slots__ = _fields = ("encoding", "pretty")

    def to_json_dict(self) -> dict:
        return {"encoding": self.encoding, "pretty": self.pretty}


class VerificationResult(FrozenValue):
    __slots__ = _fields = (
        "n", "q", "space", "rules_examined", "survivors", "matches_theorem", "elapsed_ms"
    )

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


def _build_result(layout, q: int, survivors, elapsed_ms: float) -> VerificationResult:
    """The report on ``_survivors(layout, q)``. Each survivor and threshold set
    lies in ``valid``, where ``encoding`` is one-to-one, so the theorem holds
    iff the survivors' cell sets are exactly the layout's ``elects_y`` sets."""
    n = layout.n
    names = {layout.elects_y[rule.reform]: rule.pretty() for rule in qualified_majority_rules(n, q)}
    # the decimal label of a large encoding is costly, so only an unnamed
    # survivor gets one
    infos = tuple(
        SurvivorInfo(enc, names[cells] if cells in names else f"table@{enc}")
        for enc, cells in survivors
    )
    return VerificationResult(
        n=n,
        q=q,
        space=layout.name,
        rules_examined=1 << layout.cells(n),
        survivors=infos,
        matches_theorem=sorted(cells for _, cells in survivors) == sorted(names),
        elapsed_ms=elapsed_ms,
    )


def enumerate_full(n: int, q: int) -> VerificationResult:
    """Decide all 2^(3^n) profile tables and intersect the three axiom sets."""
    return _enumerate(_LiftedSpace, n, [q])[0]


def enumerate_anonymous(n: int, q: int) -> VerificationResult:
    """Decide all anonymous tally tables and intersect the axiom sets.

    Restricting to this space loses nothing: anonymity is one of the
    intersected axioms, and every anonymous rule has exactly one tally
    table representative.
    """
    return _enumerate(_AnonymousSpace, n, [q])[0]


def _enumerate(space, n: int, quotas) -> list[VerificationResult]:
    """The reports at ``quotas``, on one layout; ``elapsed_ms`` times a search."""
    layout = _layout(space, n, True, True)
    results = []
    for q in quotas:
        start = time.perf_counter()
        survivors = _survivors(layout, q)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        results.append(_build_result(layout, q, survivors, elapsed_ms))
    return results


def verify_characterization(n: int, q: int, space: str = SPACE_FULL) -> bool:
    """True iff the enumeration at this single q matches the expected rule set."""
    if space not in _SPACES:
        raise ValueError(f"unknown space {space!r}")
    return _enumerate(_SPACES[space], n, [q])[0].matches_theorem
