"""Concrete voting rules over two alternatives.

Two families live here: the parametric qualified majority rules (a reform
alternative that wins exactly when its strict supporters reach a quota
above half the voters), and explicit table rules used to enumerate rule
spaces exhaustively. Table rules pack their outputs into an integer, one
bit per cell (0 = X wins, 1 = Y wins), so a rule's bit pattern doubles as
its enumeration index and sweeping a rule space is a plain integer range.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable

from .core import (
    Alternative,
    FrozenValue,
    Profile,
    all_profiles,
    is_qualified,
    tally,
)

Evaluator = Callable[[Profile], Alternative]


def evaluator(rule) -> Evaluator:
    """Normalize a rule to a plain profile->alternative callable.

    Accepts any object with an ``evaluate`` method or any bare callable,
    so checkers and encoders never special-case a rule class.
    """
    return getattr(rule, "evaluate", rule)


def num_tally_classes(n: int) -> int:
    """Number of (n_x, n_y) tally classes with n_x + n_y <= n."""
    return (n + 1) * (n + 2) // 2


# one entry per voter count: the rule encoders and the tests ask for a
# few small n, and the verifier and ``check`` walk no class list
@lru_cache(maxsize=8)
def tally_classes(n: int) -> tuple[tuple[int, int], ...]:
    """All tally classes in lexicographic (n_x, n_y) order.

    This fixed order defines the anonymous rule encoding: bit k of an
    anonymous table is the output on class k.
    """
    return tuple((nx, ny) for nx in range(n + 1) for ny in range(n + 1 - nx))


def tally_class_index(n: int, n_x: int, n_y: int) -> int:
    """Lexicographic rank of a tally class."""
    if n_x < 0 or n_y < 0 or n_x + n_y > n:
        raise ValueError(f"({n_x}, {n_y}) is not a tally class for n={n}")
    return n_x * (n + 1) - n_x * (n_x - 1) // 2 + n_y


# Table lines: character k is the output on cell k, X for bit 0, Y for bit 1.
_DIGITS_TO_XY = str.maketrans("01", "XY")
_XY_TO_DIGITS = str.maketrans("XY", "01")
_NOT_XY = re.compile("[^XY]")


def _table_line(bits: int, width: int) -> str:
    """The X/Y line of a table encoding over ``width`` cells."""
    return format(bits, f"0{width}b")[::-1].translate(_DIGITS_TO_XY)


def _line_bits(line: str, width: int, table: str) -> int:
    """The encoding of a table line, which must hold ``width`` X/Y characters."""
    text = line.strip()
    if len(text) != width:
        raise ValueError(f"{table} needs {width} characters, got {len(text)}")
    # counting is a fast scan; the search only names the first bad character
    if text.count("X") + text.count("Y") != width:
        bad = _NOT_XY.search(text)
        raise ValueError(f"rule tables use only X and Y: {bad.group()!r} at position {bad.start()}")
    # an empty line fits only n < 1, which the rule's own voter check refuses
    return int(text[::-1].translate(_XY_TO_DIGITS) or "0", 2)


class QualifiedMajorityRule(FrozenValue):
    """The reform wins exactly when its strict supporters reach the quota.

    The quota must be qualified (2q > n); with only two alternatives the
    status quo necessarily wins in every other case, so evaluation is
    total even though the definition only pins down the reform branch.
    """

    __slots__ = _fields = ("n", "q", "reform")

    def __init__(self, n: int, q: int, reform: Alternative) -> None:
        if n < 1:
            raise ValueError("rule needs at least one voter")
        if not is_qualified(q, n):
            raise ValueError(f"quota {q} is not qualified for n={n}: need 0 <= q <= n and 2q > n")
        self._set(n, q, reform)

    def evaluate(self, profile: Profile) -> Alternative:
        if profile.n != self.n:
            raise ValueError(f"rule is for n={self.n}, profile has n={profile.n}")
        if tally(profile).count_for(self.reform) >= self.q:
            return self.reform
        return self.reform.other

    def pretty(self) -> str:
        return f"sigma_{self.q}^{self.reform.value}"


class TableRule(FrozenValue):
    """A voting rule given extensionally: one output bit per profile.

    Bit p of ``bits`` is the output on the profile with canonical index p
    (0 = X, 1 = Y). The text form is a single line of 3^n characters over
    {X, Y}, character position = profile index.
    """

    __slots__ = _fields = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if n < 1:
            raise ValueError("rule needs at least one voter")
        if bits < 0 or bits >> (3**n):
            raise ValueError(f"bits out of range for n={n}")
        self._set(n, bits)

    def evaluate(self, profile: Profile) -> Alternative:
        if profile.n != self.n:
            raise ValueError(f"rule is for n={self.n}, profile has n={profile.n}")
        return Alternative.Y if (self.bits >> profile.index) & 1 else Alternative.X

    def to_line(self) -> str:
        return _table_line(self.bits, 3**self.n)

    @classmethod
    def from_line(cls, n: int, line: str) -> "TableRule":
        return cls(n, _line_bits(line, 3**n, f"full rule table for n={n}"))

    @classmethod
    def from_rule(cls, rule, n: int) -> "TableRule":
        ev = evaluator(rule)
        bits = 0
        for p, profile in enumerate(all_profiles(n)):
            if ev(profile) is Alternative.Y:
                bits |= 1 << p
        return cls(n, bits)


class AnonymousTableRule(FrozenValue):
    """An anonymous rule given extensionally: one output bit per tally class.

    Anonymity holds by construction, since evaluation factors through the
    tally. The text form is (n+1)(n+2)/2 characters over {X, Y} in
    lexicographic class order.
    """

    __slots__ = _fields = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if n < 1:
            raise ValueError("rule needs at least one voter")
        if bits < 0 or bits >> num_tally_classes(n):
            raise ValueError(f"bits out of range for n={n}")
        self._set(n, bits)

    def evaluate(self, profile: Profile) -> Alternative:
        if profile.n != self.n:
            raise ValueError(f"rule is for n={self.n}, profile has n={profile.n}")
        t = tally(profile)
        k = tally_class_index(self.n, t.n_x, t.n_y)
        return Alternative.Y if (self.bits >> k) & 1 else Alternative.X

    def lift(self) -> TableRule:
        """The same rule as a profile-indexed table."""
        return TableRule.from_rule(self, self.n)

    def to_line(self) -> str:
        return _table_line(self.bits, num_tally_classes(self.n))

    @classmethod
    def from_line(cls, n: int, line: str) -> "AnonymousTableRule":
        table = f"anonymous rule table for n={n}"
        return cls(n, _line_bits(line, num_tally_classes(n), table))

    @classmethod
    def from_rule(cls, rule, n: int) -> "AnonymousTableRule":
        """Encode an anonymous rule by evaluating one representative per class.

        Callers must pass an anonymous rule; a non-anonymous rule would be
        silently canonicalized.
        """
        ev = evaluator(rule)
        bits = 0
        for k, (nx, ny) in enumerate(tally_classes(n)):
            if ev(Profile.from_counts(nx, ny, n - nx - ny)) is Alternative.Y:
                bits |= 1 << k
        return cls(n, bits)


def qualified_majority_rules(n: int, q: int) -> frozenset[QualifiedMajorityRule]:
    """The qualified majority rules with quota q: two if 2q > n, none otherwise."""
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    if not is_qualified(q, n):
        return frozenset()
    return frozenset(
        QualifiedMajorityRule(n, q, a) for a in (Alternative.X, Alternative.Y)
    )


def rules_equal(rule_a, rule_b, n: int) -> bool:
    """True iff the two rules agree on every one of the 3^n profiles."""
    for rule in (rule_a, rule_b):
        rule_n = getattr(rule, "n", n)
        if rule_n != n:
            raise ValueError(f"rule is for n={rule_n}, compared at n={n}")
    ev_a = evaluator(rule_a)
    ev_b = evaluator(rule_b)
    return all(ev_a(p) is ev_b(p) for p in all_profiles(n))


def threshold_table_rule(n: int, min_support: int, reform: Alternative) -> AnonymousTableRule:
    """Anonymous rule: `reform` wins iff its strict supporters number >= min_support.

    Unlike QualifiedMajorityRule this places no qualification demand on the
    threshold, so it can express quota-below-half rules such as a court
    hearing a case when four of nine judges vote to.
    """
    if not 0 <= min_support <= n + 1:
        raise ValueError(f"threshold must lie in 0..{n + 1}, got {min_support}")
    bits = 0
    for k, (nx, ny) in enumerate(tally_classes(n)):
        support = nx if reform is Alternative.X else ny
        wins = support >= min_support
        y_wins = (reform is Alternative.Y) == wins
        if y_wins:
            bits |= 1 << k
    return AnonymousTableRule(n, bits)
