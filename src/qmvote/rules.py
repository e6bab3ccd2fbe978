"""Concrete voting rules over two alternatives.

Two families live here: the parametric qualified majority rules (a reform
alternative that wins exactly when its strict supporters reach a quota
above half the voters), and explicit table rules, which pack their
outputs into an integer, one bit per cell (0 = X wins, 1 = Y wins): the
rule's encoding. A rule space is its table type, over profiles or over
tally classes: the type states the space's name (``_space``), its cell
count (``_width``) and its cells (``_cells``), and the search in
``verifier`` reads the first two off it. The two types share one base
with the bounds check, the X/Y line and the encoder. A quota rule and
an anonymous table answer on tallies through ``y_wins`` and share one
``evaluate``, and tally-class order is stated here alone, by
``tally_class_index`` and ``_pack_rows``.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator

from .core import (
    Alternative,
    FrozenValue,
    Profile,
    _lift,
    all_profiles,
    is_qualified,
    require_quota,
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


def _pack_rows(n: int, row: Callable[[int], int]) -> int:
    """An anonymous table encoding, row by row: row a is the classes
    (a, 0..n-a), which tally-class order keeps together, and bit b of
    ``row(a)`` is class (a, b); bits past n - a are dropped. The last
    row is highest."""
    bits = 0
    for a in range(n, -1, -1):
        bits = bits << n + 1 - a | row(a) & (1 << n + 1 - a) - 1
    return bits


def _on_tallies(rule, profile: Profile) -> Alternative:
    """``evaluate`` of a rule on tallies: Y iff ``y_wins`` at the profile's tally."""
    if profile.n != rule.n:
        raise ValueError(f"rule is for n={rule.n}, profile has n={profile.n}")
    t = tally(profile)
    return Alternative.Y if rule.y_wins(t.n_x, t.n_y) else Alternative.X


# Table lines: character k is the output on cell k, X for bit 0, Y for bit 1.
_DIGITS_TO_XY = str.maketrans("01", "XY")
_XY_TO_DIGITS = str.maketrans("XY", "01")
_NOT_XY = re.compile("[^XY]")


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

    evaluate = _on_tallies

    def y_wins(self, n_x: int, n_y: int) -> bool:
        """The rule on tallies: True iff Y wins with n_x strict X and n_y
        strict Y supporters, that is, iff the reform's supporters reach
        the quota under reform Y, and fall short of it under reform X."""
        if self.reform is Alternative.Y:
            return n_y >= self.q
        return n_x < self.q

    def pretty(self) -> str:
        return f"sigma_{self.q}^{self.reform.value}"


class _Table(FrozenValue):
    """A rule given extensionally: bit k of ``bits`` is the output on cell k
    (0 = X, 1 = Y), and character k of its text form, one line over {X, Y}.

    A subclass numbers the cells: ``_width(n)`` counts them, ``_cells(n)``
    yields one profile per cell in order, and ``_space`` names the space.
    """

    __slots__ = _fields = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if n < 1:
            raise ValueError("rule needs at least one voter")
        if bits < 0 or bits >> self._width(n):
            raise ValueError(f"bits out of range for n={n}")
        self._set(n, bits)

    def to_line(self) -> str:
        return format(self.bits, f"0{self._width(self.n)}b")[::-1].translate(_DIGITS_TO_XY)

    @classmethod
    def from_line(cls, n: int, line: str) -> _Table:
        """The table of a line, which must hold one X/Y character per cell."""
        text, width = line.strip(), cls._width(n)
        if len(text) != width:
            table = f"{cls._space} rule table for n={n}"
            raise ValueError(f"{table} needs {width} characters, got {len(text)}")
        # counting is a fast scan; the search only names the first bad character
        if text.count("X") + text.count("Y") != width:
            bad = _NOT_XY.search(text)
            at = f"{bad.group()!r} at position {bad.start()}"
            raise ValueError(f"rule tables use only X and Y: {at}")
        # an empty line fits only n < 1, which the rule's own voter check refuses
        return cls(n, int(text[::-1].translate(_XY_TO_DIGITS) or "0", 2))

    @classmethod
    def from_rule(cls, rule, n: int) -> _Table:
        """Encode a rule by evaluating it on each cell's profile.

        An anonymous table evaluates one representative per class, so
        callers must pass it an anonymous rule; a non-anonymous rule would
        be silently canonicalized.
        """
        ev = evaluator(rule)
        bits = 0
        for k, profile in enumerate(cls._cells(n)):
            if ev(profile) is Alternative.Y:
                bits |= 1 << k
        return cls(n, bits)


class TableRule(_Table):
    """A voting rule given extensionally: one output bit per profile.

    Cell p is the profile with canonical index p, so the text form is a
    line of 3^n characters, character position = profile index.
    """

    __slots__ = ()
    _space = "full"
    _width = staticmethod(lambda n: 3**n)
    _cells = staticmethod(all_profiles)

    def evaluate(self, profile: Profile) -> Alternative:
        if profile.n != self.n:
            raise ValueError(f"rule is for n={self.n}, profile has n={profile.n}")
        return Alternative.Y if (self.bits >> profile.index) & 1 else Alternative.X


class AnonymousTableRule(_Table):
    """An anonymous rule given extensionally: one output bit per tally class.

    Anonymity holds by construction, since evaluation factors through the
    tally. The text form is (n+1)(n+2)/2 characters over {X, Y} in
    lexicographic class order.
    """

    __slots__ = ()
    _space = "anonymous"
    _width = staticmethod(num_tally_classes)

    @staticmethod
    def _cells(n: int) -> Iterator[Profile]:
        for nx, ny in tally_classes(n):
            yield Profile.from_counts(nx, ny, n - nx - ny)

    evaluate = _on_tallies

    def y_wins(self, n_x: int, n_y: int) -> bool:
        """The rule on tallies: True iff Y wins on the class (n_x, n_y)."""
        return bool(self.bits >> tally_class_index(self.n, n_x, n_y) & 1)

    def lift(self) -> TableRule:
        """The same rule as a profile-indexed table, lifted from the tally
        classes voter by voter, with no profile evaluated."""
        return TableRule(self.n, _lift(self.n, self.y_wins))


def qualified_majority_rules(n: int, q: int) -> frozenset[QualifiedMajorityRule]:
    """The qualified majority rules with quota q: two if 2q > n, none otherwise."""
    require_quota(q, n)
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
    # Y wins at n_y >= min_support under reform Y, in the rows n_x < min_support
    # under X; the packer cuts each all-ones row to its width
    if reform is Alternative.Y:
        return AnonymousTableRule(n, _pack_rows(n, lambda nx: -1 << min_support))
    return AnonymousTableRule(n, _pack_rows(n, lambda nx: -1 if nx < min_support else 0))
