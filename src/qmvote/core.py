"""Two-alternative preference profiles, their primitive operations and reports.

A profile holds one weak ordering per voter over the pair of alternatives,
so every voter is in exactly one of three states: strictly for X, strictly
for Y, or indifferent. Everything in this module is a pure function on
immutable values; profiles compare structurally and hash. Three results
are memoized in bounded caches: ``tally`` and ``dual`` per profile, and
``all_profiles`` per voter count; the rest are recomputed on every call.
These operations serve the profile-level checkers in ``axioms`` (the
oracle), the rule encoders and the proof helpers. ``check`` builds the
reports, ``Witness`` and ``AxiomReport``, and ``axioms`` replays them.
Every function that takes a quota refuses one outside 0..n through
``require_quota``.

The last part of the module is the axiom algebra that both engines,
``check`` and ``verify``, share: a set of profiles is one int of 3^n
bits, bit p standing for the profile of canonical index p, and every
axiom instance pairs p with p + k for a k read off p's base-3 digits.
So each axiom is a few masked shifts of such a set, and no profile is
built. Responsiveness is one table of single-voter moves toward X,
listed per voter by ``_x_moves``; the moves toward Y are the same moves
taken backwards, so both engines read both off that one list. The dual
of one profile index is ``_dual_index``, n digit swaps on that index,
and a set's first profile is ``_lowest``.

Canonical profile numbering: a profile is read as a base-3 integer whose
digit for voter 0 is least significant, with digit encoding STRICT_X=0,
STRICT_Y=1, INDIFFERENT=2. Every "first counterexample" report in the
package breaks ties by this index.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum, IntEnum
from functools import lru_cache
from operator import attrgetter


class FrozenValue:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields``, in constructor order, and
    its trailing defaults in ``_defaults``, by field name. A subclass that
    neither writes nor inherits an ``__init__`` gets one taking ``_fields``
    in order, compiled once per class as ``dataclasses`` does it, so
    ``inspect.signature`` and CPython's own argument errors name the
    fields. A subclass that validates its arguments writes its own
    ``__init__`` and sets each field once through ``_set``, and its own
    subclasses inherit that constructor, checks included. Instances
    compare and hash by their field values and their exact class, refuse
    attribute assignment, and repr as ``Class(field=value, ...)``: the
    semantics of a frozen dataclass, without the start-up cost of
    ``dataclasses``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)
        if cls.__init__ is object.__init__:
            fields, defaults = cls._fields, cls._defaults
            # defaults are bound by name in the function's namespace, never by repr
            namespace = {f"_default_{name}": value for name, value in defaults.items()}
            namespace["__name__"] = cls.__module__
            params = ", ".join(f"{f}=_default_{f}" if f in defaults else f for f in fields)
            exec(f"def __init__(self, {params}):\n    self._set({', '.join(fields)})", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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

    @property
    def n(self) -> int:
        return self.n_x + self.n_y + self.n_ind

    def count_for(self, alternative: Alternative) -> int:
        return self.n_x if alternative is Alternative.X else self.n_y


ANONYMITY = "anonymity"
RESPONSIVENESS = "responsiveness"
Q_NEUTRALITY = "q-neutrality"


class Witness(FrozenValue):
    """A concrete violation: a profile, the paired profile that exposes the
    failure (permuted / neighbor / preference-reversed), and the outcome the
    axiom demanded versus the one observed."""

    __slots__ = _fields = ("profile", "counterpart", "expected", "observed")

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_string(),
            "counterpart": self.counterpart.to_string(),
            "expected": self.expected.value,
            "observed": self.observed.value,
        }


class AxiomReport(FrozenValue):
    __slots__ = _fields = ("axiom", "passed", "witness", "q")
    _defaults = {"witness": None, "q": None}

    def to_json_dict(self) -> dict:
        doc: dict = {"axiom": self.axiom}
        if self.q is not None:
            doc["q"] = self.q
        doc["passed"] = self.passed
        if self.witness is not None:
            doc["witness"] = self.witness.to_json_dict()
        return doc


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


def require_quota(q: int, n: int) -> None:
    """Refuse a quota q outside 0..n, the quotas of n voters."""
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")


def meets_quota(profile: Profile, q: int) -> bool:
    """True iff some alternative has at least q strict supporters."""
    require_quota(q, profile.n)
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


# The moves of one voter toward X, as (digit, change, move), with digits
# 0 = STRICT_X, 1 = STRICT_Y, 2 = INDIFFERENT: a voter holding ``digit``
# moves to ``digit + change``, and that is the voter's ``move``-th move in
# responsive_neighbors(p, X). Every move toward Y is one of these taken
# backwards, from ``digit + change`` to ``digit``, and it is the voter's
# ``move``-th move in responsive_neighbors(., Y) too: for either winner
# the move to indifferent comes before the move to strict, so a move and
# its reverse hold the same place among one voter's moves. A move of
# voter i changes the profile index by the change times 3^i.
_TOWARD_X = ((1, 1, 0), (1, -1, 1), (2, -2, 0))


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


def _x_moves(n: int, masks: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """(held, k, voter, move) per voter i and row of ``_TOWARD_X``,
    in canonical witness order (voter, then move): ``held`` the profiles
    where voter i holds the row's digit, and k the index change of the
    move, so the move goes from p to p + k for every p in ``held``. A
    generator: at n=15 each ``held`` is a 1.8 MB int, so a list of all
    3n of them would set the peak memory of a ``check`` call."""
    for i in range(n):
        s = 3**i
        for digit, change, move in _TOWARD_X:
            yield masks[i] << digit * s, change * s, i, move


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


def _dual_index(n: int, p: int) -> int:
    """The index of dual(Profile.from_index(n, p)): p with its base-3
    digits 0 and 1 swapped, one digit per voter."""
    out, s = p, 1
    for _ in range(n):
        p, digit = divmod(p, 3)
        if digit < 2:
            out += s if digit == 0 else -s
        s *= 3
    return out


def _lowest(bits: int) -> int:
    """The index of the lowest set bit of a nonzero ``bits``."""
    return (bits ^ (bits - 1)).bit_length() - 1


# one entry holds 3^n profiles; the test suite walks seven voter counts
@lru_cache(maxsize=8)
def all_profiles(n: int) -> tuple[Profile, ...]:
    """Every profile on n voters, in canonical index order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(Profile.from_index(n, i) for i in range(3**n))


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
