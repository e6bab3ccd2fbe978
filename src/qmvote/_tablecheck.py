"""``qmvote check`` as bit operations on a rule's encoding.

A rule over n voters is one int of 3^n bits, ``out``: bit p is 1 where Y
wins at the profile of canonical index p, whose base-3 digit i (weight
3^i) is voter i's state, 0 = strict X, 1 = strict Y, 2 = indifferent.
The profiles where voter i holds digit 0 form a periodic bitset (runs of
3^i ones every 3^(i+1) bits), built by doubling the pattern; digits 1
and 2 are the same set shifted by 3^i and 2*3^i. Every axiom instance
pairs a profile p with one profile p + k, so the profiles where an axiom
fails are shifts, ANDs and XORs of ``out`` with those masks. Each axiom
is one scan yielding each such bitset's lowest set bit, keyed in the
canonical witness order, and the report takes the least key:

* anonymity: where voters j and j+1 hold digits a != b, swapping them
  moves p to p + (a - b)*2*3^j. A differing pair is a violation at both
  ends, so the first one lies at the end with a > b. Keyed (p, j).
* responsiveness: ``core._x_moves`` lists each move of voter i toward X
  as the profiles ``held`` it starts from and the index change k it
  makes. Where X wins at p and loses at p + k, both profiles violate: p
  by that move, and p + k by the move back toward Y. So the X-ward moves
  alone give every violation, each at both ends, keyed (p, voter, move)
  with moves in the canonical neighbor order. A move and its reverse
  toward Y hold the same place in that order, so the list's one move
  index serves both ends.
* q-neutrality: ``dual(out)``, built by swapping digits 0 and 1 voter by
  voter, must differ from ``out`` exactly on R_q, the profiles where some
  alternative has q strict supporters; the violations are
  ``dual(out) ^ out ^ R_q``, keyed (p,).

A quota rule and an anonymous table answer on tallies through
``y_wins``, as R_q does, so their encodings are lifted from the tally
classes voter by voter, two shifts and two ORs per class and voter. The
reports, witnesses included, are those of ``axioms.run_all_checks``,
which stays this module's oracle in the tests. No profile is evaluated
and no big int is divided. The anonymity pairs and the whole-set dual
are this module's alone; the rest of the algebra and the report values
are ``core``'s, so ``check`` loads no profile-level checker and the
oracle loads nothing of ``check``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import (
    ANONYMITY,
    Q_NEUTRALITY,
    RESPONSIVENESS,
    Alternative,
    AxiomReport,
    Profile,
    Witness,
    _dual_index,
    _lift,
    _lowest,
    _voter_masks,
    _x_moves,
    require_quota,
)
from .rules import AnonymousTableRule, QualifiedMajorityRule, TableRule

_WINNER = (Alternative.X, Alternative.Y)


def _encoding(rule, n: int) -> int:
    """The rule's 3^n-bit encoding, read off its definition."""
    if getattr(rule, "n", n) != n:
        raise ValueError(f"rule is for n={rule.n}, checked at n={n}")
    if isinstance(rule, TableRule):
        return rule.bits
    if isinstance(rule, (QualifiedMajorityRule, AnonymousTableRule)):
        return _lift(n, rule.y_wins)
    raise TypeError(f"no output column for {type(rule).__name__}")


def _anonymity_pairs(n: int, masks: list[int]) -> Iterator[tuple[int, int, int]]:
    """(held, k, j) per adjacent voter pair j, j+1, in order of j: ``held``
    the profiles where voters j and j+1 hold digits a > b, and k =
    (a - b)*2*3^j, the index change of swapping the two. Anonymity asks
    the same winner at p and p + k for every p in ``held``; a pair of
    equal digits swaps to itself, so these are all its instances."""
    for j in range(n - 1):
        s = 3**j
        one, two = masks[j] << s, masks[j] << 2 * s  # voter j holds 1, 2
        next_zero, next_one = masks[j + 1], masks[j + 1] << 3 * s  # voter j + 1 holds 0, 1
        yield one & next_zero | two & next_one, 2 * s, j
        yield two & next_zero, 4 * s, j


def _dual(n: int, out: int, masks: list[int]) -> int:
    """The set whose bit p is bit dual(p) of ``out``."""
    for i in range(n):
        s = 3**i
        x, y, ind = masks[i], masks[i] << s, masks[i] << 2 * s
        out = out & ind | (out & x) << s | (out & y) >> s
    return out


def _anonymity(n: int, out: int, masks: list[int]) -> Iterator[tuple]:
    for held, k, j in _anonymity_pairs(n, masks):
        bad = held & (out ^ out >> k)
        if bad:
            p = _lowest(bad)
            yield (p, j), p, p + k, out >> p & 1


def _responsiveness(n: int, out: int, masks: list[int]) -> Iterator[tuple]:
    x_wins = ((1 << 3**n) - 1) ^ out
    for held, k, i, move in _x_moves(n, masks):
        # X wins at p, Y at p + k, which is one move toward X from p
        bad = held & x_wins & (out >> k if k > 0 else out << -k)
        if bad:
            p = _lowest(bad)
            yield (p, i, move), p, p + k, 0
            yield (p + k, i, move), p + k, p, 1


def _q_neutrality(n: int, out: int, masks: list[int], q: int) -> Iterator[tuple]:
    """The winner must swap under reversal exactly inside R_q."""
    in_rq = _lift(n, lambda nx, ny: max(nx, ny) >= q)
    bad = _dual(n, out, masks) ^ out ^ in_rq
    if bad:
        p = _lowest(bad)
        yield (p,), p, _dual_index(n, p), (out ^ in_rq) >> p & 1


def _report(axiom: str, n: int, out: int, candidates, q: int | None = None) -> AxiomReport:
    """The report on the least of ``candidates``, the violations a scan
    yields as (key, profile, counterpart, winner required there)."""
    found = min(candidates, default=None)
    if found is None:
        return AxiomReport(axiom, True, q=q)
    _, p, t, expected = found
    witness = Witness(
        Profile.from_index(n, p),
        Profile.from_index(n, t),
        _WINNER[expected],
        _WINNER[out >> t & 1],
    )
    return AxiomReport(axiom, False, witness, q=q)


def run_table_checks(rule, n: int, q: int) -> list[AxiomReport]:
    """``axioms.run_all_checks(rule, n, q)``, witnesses included, decided on
    the rule's encoding.

    ``rule`` is a ``TableRule``, an ``AnonymousTableRule`` or a
    ``QualifiedMajorityRule``; an anonymous table is lifted to the
    profiles, so its witnesses name profiles too.
    """
    require_quota(q, n)
    out = _encoding(rule, n)
    masks = _voter_masks(n)
    return [
        _report(ANONYMITY, n, out, _anonymity(n, out, masks)),
        _report(RESPONSIVENESS, n, out, _responsiveness(n, out, masks)),
        _report(Q_NEUTRALITY, n, out, _q_neutrality(n, out, masks, q), q=q),
    ]
