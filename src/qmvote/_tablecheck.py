"""``qmvote check`` as bit operations on a rule's encoding.

A rule over n voters is one int of 3^n bits, ``out``: bit p is 1 where Y
wins at the profile of canonical index p, whose base-3 digit i (weight
3^i) is voter i's state, 0 = strict X, 1 = strict Y, 2 = indifferent.
The profiles where voter i holds digit 0 form a periodic bitset (runs of
3^i ones every 3^(i+1) bits), built by doubling the pattern; digits 1
and 2 are the same set shifted by 3^i and 2*3^i. Every axiom instance
pairs a profile p with one profile p + k, so the profiles where an axiom
fails are shifts, ANDs and XORs of ``out`` with those masks, and the
first violation is the lowest set bit:

* anonymity: where voters j and j+1 hold digits a != b, swapping them
  moves p to p + (a - b)*2*3^j. A differing pair is a violation at both
  ends, so the first one lies at the end with a > b. First by profile,
  then by j.
* responsiveness: a move of voter i toward X goes to p + d*3^i, d read
  off ``core._TOWARD_X``. Where X wins at p and loses at p + d*3^i, both
  profiles violate: p by that move, and p + d*3^i by the move back toward
  Y. So the X-ward moves alone give every violation, each at both ends.
  First by profile, then voter, then move in the canonical neighbor order.
* q-neutrality: ``dual(out)``, built by swapping digits 0 and 1 voter by
  voter, must differ from ``out`` exactly on R_q, the profiles where some
  alternative has q strict supporters; the violations are
  ``dual(out) ^ out ^ R_q``.

A quota rule, an anonymous table and R_q see a profile only through its
tally, so their encodings are lifted from the tally classes voter by
voter, two shifts and two ORs per class and voter. The reports,
witnesses included, are those of ``axioms.run_all_checks``, which stays
this module's oracle in the tests. No profile is evaluated and no big
int is divided. The masks, the lift and the dual are ``core``'s, and
``qmvote verify`` closes its search with the same ones.

The report types, ``AxiomReport`` and ``Witness``, and the axiom names
are defined here, where every ``check`` builds them; ``axioms`` imports
them from this module, so a ``check`` call loads no profile-level
checker.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    _TOWARD_X,
    _TOWARD_Y,
    Alternative,
    FrozenValue,
    Profile,
    _anonymity_pairs,
    _dual,
    _lift,
    _voter_masks,
    dual,
)
from .rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    tally_class_index,
)

ANONYMITY = "anonymity"
RESPONSIVENESS = "responsiveness"
Q_NEUTRALITY = "q-neutrality"


class Witness(FrozenValue):
    """A concrete violation: a profile, the paired profile that exposes the
    failure (permuted / neighbor / preference-reversed), and the outcome the
    axiom demanded versus the one observed."""

    __slots__ = _fields = ("profile", "counterpart", "expected", "observed")

    def __init__(
        self, profile: Profile, counterpart: Profile, expected: Alternative, observed: Alternative
    ) -> None:
        self._set(profile, counterpart, expected, observed)

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_string(),
            "counterpart": self.counterpart.to_string(),
            "expected": self.expected.value,
            "observed": self.observed.value,
        }


class AxiomReport(FrozenValue):
    __slots__ = _fields = ("axiom", "passed", "witness", "q")

    def __init__(
        self, axiom: str, passed: bool, witness: Optional[Witness] = None, q: Optional[int] = None
    ) -> None:
        self._set(axiom, passed, witness, q)

    def to_json_dict(self) -> dict:
        doc: dict = {"axiom": self.axiom}
        if self.q is not None:
            doc["q"] = self.q
        doc["passed"] = self.passed
        if self.witness is not None:
            doc["witness"] = self.witness.to_json_dict()
        return doc


_WINNER = (Alternative.X, Alternative.Y)

# Each search returns its first violation as (profile, counterpart, winner
# the axiom requires at the counterpart), or None when the rule passes.
_Violation = Optional[tuple[int, int, int]]


def _lowest(bits: int) -> int:
    """The index of the lowest set bit of a nonzero ``bits``."""
    return (bits ^ (bits - 1)).bit_length() - 1


def _encoding(rule, n: int) -> int:
    """The rule's 3^n-bit encoding, read off its definition."""
    if getattr(rule, "n", n) != n:
        raise ValueError(f"rule is for n={rule.n}, checked at n={n}")
    if isinstance(rule, TableRule):
        return rule.bits
    if isinstance(rule, QualifiedMajorityRule):
        if rule.reform is Alternative.Y:
            return _lift(n, lambda nx, ny: ny >= rule.q)
        return _lift(n, lambda nx, ny: nx < rule.q)
    if isinstance(rule, AnonymousTableRule):
        return _lift(n, lambda nx, ny: rule.bits >> tally_class_index(n, nx, ny) & 1)
    raise TypeError(f"no output column for {type(rule).__name__}")


def _first_anonymity_violation(n: int, out: int, masks: list[int]) -> _Violation:
    first = None
    for held, k in _anonymity_pairs(n, masks):
        bad = held & (out ^ out >> k)
        if bad:
            p = _lowest(bad)
            # a later transposition comes first only at an earlier profile
            if first is None or p < first[0]:
                first = (p, p + k, out >> p & 1)
    return first


def _first_responsiveness_violation(n: int, out: int, masks: list[int]) -> _Violation:
    x_wins = ((1 << 3**n) - 1) ^ out
    first = None  # (profile, voter, move index, counterpart, winner)
    for i in range(n):
        s = 3**i
        for a, moves in enumerate(_TOWARD_X):
            held = (masks[i] << a * s) & x_wins if moves else 0
            for move, d in enumerate(moves):
                k = d * s
                # X wins at p, Y at p + k, which is one move toward X from p
                bad = held & (out >> k if k > 0 else out << -k)
                if bad:
                    p = _lowest(bad)
                    back = _TOWARD_Y[a + d].index(-d)
                    found = min((p, i, move, p + k, 0), (p + k, i, back, p, 1))
                    first = found if first is None else min(first, found)
    return None if first is None else (first[0], first[3], first[4])


def _first_neutrality_violation(n: int, out: int, masks: list[int], q: int) -> _Violation:
    """The winner must swap under reversal exactly inside R_q."""
    in_rq = _lift(n, lambda nx, ny: max(nx, ny) >= q)
    bad = _dual(n, out, masks) ^ out ^ in_rq
    if not bad:
        return None
    p = _lowest(bad)
    return p, dual(Profile.from_index(n, p)).index, (out ^ in_rq) >> p & 1


def _report(
    axiom: str, n: int, out: int, found: _Violation, q: Optional[int] = None
) -> AxiomReport:
    if found is None:
        return AxiomReport(axiom, True, q=q)
    p, t, expected = found
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
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    out = _encoding(rule, n)
    masks = _voter_masks(n)
    return [
        _report(ANONYMITY, n, out, _first_anonymity_violation(n, out, masks)),
        _report(RESPONSIVENESS, n, out, _first_responsiveness_violation(n, out, masks)),
        _report(Q_NEUTRALITY, n, out, _first_neutrality_violation(n, out, masks, q), q=q),
    ]
