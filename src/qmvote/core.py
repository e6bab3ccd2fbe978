"""Two-alternative preference profiles and the primitive operations on them.

A profile holds one weak ordering per voter over the pair of alternatives,
so every voter is in exactly one of three states: strictly for X, strictly
for Y, or indifferent. Everything in this module is a pure function on
immutable values; profiles compare structurally and hash. Four results
are memoized in bounded caches shared across threads: ``tally`` and
``dual`` per profile, ``all_profiles`` and ``adjacent_transpositions``
per voter count. ``permute`` and ``responsive_neighbors`` are recomputed
on every call. These operations serve the profile-level checkers in
``axioms`` (the oracle), the rule encoders and the proof helpers.

The last part of the module is the axiom algebra that ``qmvote check``
and ``qmvote verify`` share: a set of profiles is one int of 3^n bits,
bit p standing for the profile of canonical index p, and every axiom
instance pairs p with p + k for a k read off p's base-3 digits. So each
axiom is a few masked shifts of such a set, and no profile is built.

Canonical profile numbering: a profile is read as a base-3 integer whose
digit for voter 0 is least significant, with digit encoding STRICT_X=0,
STRICT_Y=1, INDIFFERENT=2. Every "first counterexample" report in the
package breaks ties by this index.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, Sequence


class FrozenValue:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields``, in constructor order, and
    sets each once in ``__init__`` through ``_set``. Instances compare and
    hash by their field values and their exact class, refuse attribute
    assignment, and repr as ``Class(field=value, ...)``: the semantics of
    a frozen dataclass, without the start-up cost of ``dataclasses``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Alternative(Enum):
    """One of the two options on the table."""

    X = "X"
    Y = "Y"

    @property
    def other(self) -> "Alternative":
        """The unique alternative that is not this one."""
        return Alternative.Y if self is Alternative.X else Alternative.X


class Preference(IntEnum):
    """A single voter's weak ordering of the two alternatives.

    The integer values double as the canonical base-3 digits used by
    :attr:`Profile.index`, so the numbering here is load-bearing.
    """

    STRICT_X = 0
    STRICT_Y = 1
    INDIFFERENT = 2

    def weakly_prefers(self, alternative: Alternative) -> bool:
        """True iff this voter ranks `alternative` at least as high as the other."""
        return self is Preference.INDIFFERENT or self is strict_preference_for(alternative)


_PREF_CHAR = {
    Preference.STRICT_X: "X",
    Preference.STRICT_Y: "Y",
    Preference.INDIFFERENT: "I",
}
_CHAR_PREF = {c: p for p, c in _PREF_CHAR.items()}
_PREF_DUAL = {
    Preference.STRICT_X: Preference.STRICT_Y,
    Preference.STRICT_Y: Preference.STRICT_X,
    Preference.INDIFFERENT: Preference.INDIFFERENT,
}


def strict_preference_for(alternative: Alternative) -> Preference:
    return Preference.STRICT_X if alternative is Alternative.X else Preference.STRICT_Y


class Profile(FrozenValue):
    """An ordered tuple of voter preferences; a value type.

    Voter indices are 0-based internally; profile strings render voter 0
    as the leftmost character (e.g. ``"XYI"``).
    """

    __slots__ = ("voters", "_index")
    _fields = ("voters",)

    def __init__(self, voters: Sequence[Preference]) -> None:
        voters = tuple(Preference(v) for v in voters)
        if not voters:
            raise ValueError("a profile needs at least one voter")
        index = 0
        for digit in reversed(voters):
            index = index * 3 + int(digit)
        self._set(voters)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.voters)

    @property
    def index(self) -> int:
        """Canonical base-3 index of this profile (voter 0 least significant)."""
        return self._index

    def __len__(self) -> int:
        return len(self.voters)

    def __iter__(self) -> Iterator[Preference]:
        return iter(self.voters)

    def __repr__(self) -> str:
        return f"Profile({self.to_string()!r})"

    def to_string(self) -> str:
        return "".join(_PREF_CHAR[v] for v in self.voters)

    @classmethod
    def from_string(cls, text: str) -> "Profile":
        try:
            return cls(tuple(_CHAR_PREF[c] for c in text.upper()))
        except KeyError as exc:
            raise ValueError(f"profile strings use only X, Y, I: {text!r}") from exc

    @classmethod
    def from_index(cls, n: int, index: int) -> "Profile":
        if not 0 <= index < 3**n:
            raise ValueError(f"profile index {index} out of range for n={n}")
        digits = []
        for _ in range(n):
            digits.append(Preference(index % 3))
            index //= 3
        return cls(tuple(digits))

    @classmethod
    def from_counts(cls, n_x: int, n_y: int, n_ind: int) -> "Profile":
        """Block-layout profile: X supporters first, then Y, then indifferent."""
        if min(n_x, n_y, n_ind) < 0:
            raise ValueError("counts must be non-negative")
        return cls(
            (Preference.STRICT_X,) * n_x
            + (Preference.STRICT_Y,) * n_y
            + (Preference.INDIFFERENT,) * n_ind
        )


class Tally(FrozenValue):
    """Anonymous summary of a profile: strict counts for each side plus indifferents."""

    __slots__ = _fields = ("n_x", "n_y", "n_ind")

    def __init__(self, n_x: int, n_y: int, n_ind: int) -> None:
        self._set(n_x, n_y, n_ind)

    @property
    def n(self) -> int:
        return self.n_x + self.n_y + self.n_ind

    def count_for(self, alternative: Alternative) -> int:
        return self.n_x if alternative is Alternative.X else self.n_y

    def swapped(self) -> "Tally":
        return Tally(self.n_y, self.n_x, self.n_ind)


# Per-profile caches hold every profile of n <= 9 (29,523): the test suite
# asks for 20,966 distinct ones, and its largest walk, the rule of four's
# q-neutrality at n=9, revisits all 19,683 profiles once per quota, so a
# bound below 3^9 would miss on every call there.
_PROFILE_CACHE = 1 << 15


@lru_cache(maxsize=_PROFILE_CACHE)
def tally(profile: Profile) -> Tally:
    """Count each preference state; components always sum to the voter count."""
    n_x = n_y = n_ind = 0
    for v in profile.voters:
        if v is Preference.STRICT_X:
            n_x += 1
        elif v is Preference.STRICT_Y:
            n_y += 1
        else:
            n_ind += 1
    return Tally(n_x, n_y, n_ind)


def supporters(profile: Profile, alternative: Alternative) -> frozenset[int]:
    """Indices of voters who strictly prefer `alternative`."""
    want = strict_preference_for(alternative)
    return frozenset(i for i, v in enumerate(profile.voters) if v is want)


def permute(profile: Profile, perm: Sequence[int]) -> Profile:
    """Rearrange voters: voter i of the result holds voter perm[i]'s preference.

    Rejects anything that is not a bijection on the profile's indices.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(profile.n)):
        raise ValueError(f"not a bijection on 0..{profile.n - 1}: {perm}")
    return Profile(tuple(profile.voters[j] for j in perm))


@lru_cache(maxsize=_PROFILE_CACHE)
def dual(profile: Profile) -> Profile:
    """Reverse every strict preference, leaving indifferent voters fixed.

    An involution: dual(dual(R)) == R.
    """
    return Profile(tuple(_PREF_DUAL[v] for v in profile.voters))


def is_qualified(q: int, n: int) -> bool:
    """True iff q is a qualified quota for n voters.

    Uses exact integer arithmetic (2q > n), never division, so even voter
    counts cannot pick up parity bugs.
    """
    return 0 <= q <= n and 2 * q > n


def qualified_quotas(n: int) -> range:
    """All qualified quotas for n voters, ascending."""
    return range(n // 2 + 1, n + 1)


def meets_quota(profile: Profile, q: int) -> bool:
    """True iff some alternative has at least q strict supporters."""
    if not 0 <= q <= profile.n:
        raise ValueError(f"quota must lie in 0..{profile.n}, got {q}")
    t = tally(profile)
    return max(t.n_x, t.n_y) >= q


def responsive_neighbors(profile: Profile, winner: Alternative) -> tuple[Profile, ...]:
    """All profiles reachable by moving exactly one voter toward `winner`.

    A voter may move only if they currently weakly prefer the other
    alternative, and only to a state weakly preferring `winner`; with two
    alternatives that means loser->indifferent, loser->winner, and
    indifferent->winner. Ordered by (voter index, then indifferent before
    strict); this is the canonical neighbor order for witness reports.
    """
    loser_pref = strict_preference_for(winner.other)
    winner_pref = strict_preference_for(winner)
    voters = profile.voters
    out = []
    for i, v in enumerate(voters):
        if v is loser_pref:
            out.append(Profile(voters[:i] + (Preference.INDIFFERENT,) + voters[i + 1 :]))
            out.append(Profile(voters[:i] + (winner_pref,) + voters[i + 1 :]))
        elif v is Preference.INDIFFERENT:
            out.append(Profile(voters[:i] + (winner_pref,) + voters[i + 1 :]))
    return tuple(out)


# Per digit of a voter (0 = STRICT_X, 1 = STRICT_Y, 2 = INDIFFERENT), the
# digit changes of that voter's moves toward X and toward Y, in the order
# of responsive_neighbors. A move of voter i changes the profile index by
# the change times 3^i.
_TOWARD_X = ((), (1, -1), (-2,))
_TOWARD_Y = ((2, 1), (), (-1,))


def _voter_masks(n: int) -> list[int]:
    """Per voter i, the profiles where voter i holds digit 0: runs of 3^i
    ones every 3^(i+1) bits, built by doubling. Digits 1 and 2 are the same
    set shifted by 3^i and 2*3^i."""
    full = (1 << 3**n) - 1
    masks = []
    for i in range(n):
        bits, filled = (1 << 3**i) - 1, 3 ** (i + 1)
        while filled < 3**n:
            bits |= bits << filled
            filled *= 2
        masks.append(bits & full)
    return masks


def _anonymity_pairs(n: int, masks: list[int]) -> list[tuple[int, int]]:
    """(held, k) per adjacent voter pair j, j+1, in order of j: ``held``
    the profiles where voters j and j+1 hold digits a > b, and k =
    (a - b)*2*3^j, the index change of swapping the two. Anonymity asks
    the same winner at p and p + k for every p in ``held``; a pair of
    equal digits swaps to itself, so these are all its instances."""
    pairs = []
    for j in range(n - 1):
        s = 3**j
        one, two = masks[j] << s, masks[j] << 2 * s  # voter j holds 1, 2
        next_zero, next_one = masks[j + 1], masks[j + 1] << 3 * s  # voter j + 1 holds 0, 1
        pairs.append((one & next_zero | two & next_one, 2 * s))
        pairs.append((two & next_zero, 4 * s))
    return pairs


def _lift(n: int, y_wins) -> int:
    """The set of profiles with n_x strict X and n_y strict Y supporters
    such that ``y_wins(n_x, n_y)``: the encoding of that anonymous rule.

    Built voter by voter: ``level[a, b]`` is the set over voters 0..k-1
    when voters k..n-1 hold a strict X and b strict Y supporters. Voter k
    joins at weight 3^k: with digit 0 it is one of those X supporters, so
    (a, b) reads entry (a + 1, b); with digit 1 it reads (a, b + 1), and
    with digit 2 (a, b)."""
    level = {(a, b): int(y_wins(a, b)) for a in range(n + 1) for b in range(n + 1 - a)}
    for k in range(n):
        s, m = 3**k, n - k - 1
        level = {
            (a, b): level[a + 1, b] | level[a, b + 1] << s | level[a, b] << 2 * s
            for a in range(m + 1)
            for b in range(m + 1 - a)
        }
    return level[0, 0]


def _dual(n: int, out: int, masks: list[int]) -> int:
    """The set whose bit p is bit dual(p) of ``out``."""
    for i in range(n):
        s = 3**i
        x, y, ind = masks[i], masks[i] << s, masks[i] << 2 * s
        out = out & ind | (out & x) << s | (out & y) >> s
    return out


# one entry holds 3^n profiles; the test suite walks seven voter counts
@lru_cache(maxsize=8)
def all_profiles(n: int) -> tuple[Profile, ...]:
    """Every profile on n voters, in canonical index order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(Profile.from_index(n, i) for i in range(3**n))


@lru_cache(maxsize=16)
def adjacent_transpositions(n: int) -> tuple[tuple[int, ...], ...]:
    """The n-1 permutations swapping voters j and j+1.

    They generate the full symmetric group, so quantifying anonymity over
    them is equivalent to quantifying over all n! permutations; that
    equivalence is cross-checked against the brute-force quantifier in the
    test suite rather than assumed silently.
    """
    perms = []
    for j in range(n - 1):
        p = list(range(n))
        p[j], p[j + 1] = p[j + 1], p[j]
        perms.append(tuple(p))
    return tuple(perms)
