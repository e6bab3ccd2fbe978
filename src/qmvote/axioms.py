"""Executable axiom checks with replayable counterexample witnesses.

Each axiom is stated once, as its demands: given a profile and the
rule's winner there, the ``(counterpart, required winner)`` pairs the
axiom asks for, in canonical order. Anonymity asks the same winner at
each permutation of the voters, responsiveness at each move of one
voter toward the winner, and q-neutrality the swapped winner at the
reversed profile inside R_q and the same winner outside it; classical
neutrality is that demand at q = 0. Every check is one walk over all
profiles of the given voter count, ``_first_violation``, and reports
either a clean pass or the first violation in canonical order: profiles
by canonical index, then permutations by transposition index, then
neighbors in the canonical neighbor order. ``replay_witness`` accepts a
responsiveness or neutrality witness exactly when it is one of those
demands. Checkers see rules only through the evaluation interface, so a
parametric rule and its table encoding are checked by exactly the same
code path.

These profile-level checkers are the independent oracle for small n:
``qmvote check`` decides the same reports on bitsets in ``_tablecheck``,
where the report types and axiom names are defined, and ``verify``
searches cell tables in ``verifier``; the tests compare both with this
module. The balanced-profile argument of the paper's extension of May
(1952), that no rule is both anonymous and q-neutral when 2q <= n, sits
here too (``unqualified_quota_contradiction``), next to the axioms it is
about.
"""

from __future__ import annotations

import itertools

from ._tablecheck import ANONYMITY, Q_NEUTRALITY, RESPONSIVENESS, AxiomReport, Witness
from .core import (
    Alternative,
    FrozenValue,
    Preference,
    Profile,
    adjacent_transpositions,
    all_profiles,
    dual,
    meets_quota,
    permute,
    responsive_neighbors,
    strict_preference_for,
    tally,
)
from .rules import evaluator

NEUTRALITY = "neutrality"


def _first_violation(axiom: str, rule, n: int, demands, q: int | None = None) -> AxiomReport:
    """The walk every checker shares: at each profile in canonical order,
    evaluate the rule once, then each ``(counterpart, required)`` that
    ``demands(profile, value)`` yields, in its order; report the first
    counterpart whose winner is not the required one."""
    ev = evaluator(rule)
    for profile in all_profiles(n):
        for counterpart, required in demands(profile, ev(profile)):
            got = ev(counterpart)
            if got is not required:
                return AxiomReport(axiom, False, Witness(profile, counterpart, required, got), q=q)
    return AxiomReport(axiom, True, q=q)


def _permuted(perms):
    """Anonymity's demands: the same winner at each permutation of the voters."""
    return lambda profile, value: ((permute(profile, perm), value) for perm in perms)


def _responsive(profile: Profile, value: Alternative):
    """Responsiveness's demands: the same winner at each move toward it."""
    return ((neighbor, value) for neighbor in responsive_neighbors(profile, value))


def _reversed(q: int):
    """q-neutrality's demand: under reversal the winner swaps where some
    alternative has at least q strict supporters, and stays elsewhere.

    Off that region the axiom demands the swap FAIL; with a two-element
    codomain that is the same as the winner staying fixed."""
    return lambda profile, value: (
        (dual(profile), value.other if meets_quota(profile, q) else value),
    )


def check_anonymity(rule, n: int) -> AxiomReport:
    """Output must be invariant under every permutation of the voters.

    Quantifies only over the n-1 adjacent transpositions; they generate
    the symmetric group, so invariance under them is invariance under all
    n! permutations (cross-checked against the brute-force quantifier in
    the tests).
    """
    return _first_violation(ANONYMITY, rule, n, _permuted(adjacent_transpositions(n)))


def check_anonymity_all_permutations(rule, n: int) -> AxiomReport:
    """Brute-force anonymity over all n! permutations; the oracle twin of
    check_anonymity, which quantifies over every permutation itself so the
    generator shortcut stays honest."""
    perms = list(itertools.permutations(range(n)))
    return _first_violation(ANONYMITY, rule, n, _permuted(perms))


def check_responsiveness(rule, n: int) -> AxiomReport:
    """Moving a single voter toward the current winner must keep it winning."""
    return _first_violation(RESPONSIVENESS, rule, n, _responsive)


def check_q_neutrality(rule, n: int, q: int) -> AxiomReport:
    """Reversing all preferences must swap the winner exactly on the profiles
    where some alternative has at least q strict supporters."""
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    return _first_violation(Q_NEUTRALITY, rule, n, _reversed(q), q=q)


def check_neutrality(rule, n: int) -> AxiomReport:
    """Classical neutrality: every full preference reversal swaps the winner.

    Coincides with q-neutrality at q = 0, where the high-certainty region
    is all of the profile space.
    """
    return _first_violation(NEUTRALITY, rule, n, _reversed(0))


def run_all_checks(rule, n: int, q: int) -> list[AxiomReport]:
    """The three membership tests, in reporting order."""
    return [
        check_anonymity(rule, n),
        check_responsiveness(rule, n),
        check_q_neutrality(rule, n, q),
    ]


def replay_witness(report: AxiomReport, rule, n: int) -> bool:
    """Re-run the cited evaluations and confirm the witness still violates.

    Every failed report must replay: the rule really produces the observed
    value at the counterpart, that value breaks the requirement, and the
    pair is an instance of the axiom. For responsiveness and the two
    neutralities that means ``(counterpart, expected)`` is one of the
    demands the checker makes at the witness's profile. An anonymity
    witness may cite any permutation, as the brute-force twin does, so
    equal tallies certify it.
    """
    if report.passed or report.witness is None:
        return False
    w = report.witness
    ev = evaluator(rule)
    if ev(w.counterpart) is not w.observed or w.observed is w.expected:
        return False
    if report.axiom == ANONYMITY:
        return tally(w.profile) == tally(w.counterpart) and ev(w.profile) is w.expected
    if report.axiom == RESPONSIVENESS:
        demands = _responsive
    elif report.axiom == Q_NEUTRALITY and report.q is not None:
        demands = _reversed(report.q)
    elif report.axiom == NEUTRALITY:
        demands = _reversed(0)
    else:
        return False
    return (w.counterpart, w.expected) in demands(w.profile, ev(w.profile))


def merge_profile(first: Profile, second: Profile, winner: Alternative) -> Profile:
    """Combine two profiles into the canonical profile whose winner support
    is the max of the two and whose loser support is the min.

    Remaining voters are indifferent; layout is winner supporters first,
    then loser supporters, then indifferents.
    """
    if first.n != second.n:
        raise ValueError("profiles must have the same number of voters")
    n = first.n
    loser = winner.other
    win_count = max(tally(first).count_for(winner), tally(second).count_for(winner))
    lose_count = min(tally(first).count_for(loser), tally(second).count_for(loser))
    voters = (
        (strict_preference_for(winner),) * win_count
        + (strict_preference_for(loser),) * lose_count
        + (Preference.INDIFFERENT,) * (n - win_count - lose_count)
    )
    return Profile(voters)


class ContradictionWitness(FrozenValue):
    """The balanced-profile construction showing no rule can be both
    anonymous and q-neutral when the quota is not qualified.

    On a profile with exactly q strict supporters per side, the reversed
    profile is a rearrangement of the original, so anonymity demands the
    winner stay put, while the profile sits inside the high-certainty
    region, so q-neutrality demands the winner swap. Any concrete rule
    violates exactly one of the two demands here.
    """

    __slots__ = _fields = (
        "profile",
        "dual_profile",
        "permutation",
        "anonymity_requires",
        "neutrality_requires",
        "observed",
        "violated_axiom",
    )


def unqualified_quota_contradiction(rule, n: int, q: int) -> ContradictionWitness:
    """Build the balanced profile for an unqualified quota and report which of
    the two conflicting requirements the given rule breaks on it."""
    if n < 2:
        raise ValueError("the construction needs at least two voters")
    if not (0 <= q and 2 * q <= n):
        raise ValueError(
            f"not applicable: quota {q} is qualified for n={n} (needs 2q <= n)"
        )
    profile = Profile.from_counts(q, q, n - 2 * q)
    mirrored = dual(profile)
    perm = tuple(range(q, 2 * q)) + tuple(range(q)) + tuple(range(2 * q, n))
    assert permute(profile, perm) == mirrored
    ev = evaluator(rule)
    value = ev(profile)
    observed = ev(mirrored)
    violated = "q-neutrality" if observed is value else "anonymity"
    return ContradictionWitness(
        profile=profile,
        dual_profile=mirrored,
        permutation=perm,
        anonymity_requires=value,
        neutrality_requires=value.other,
        observed=observed,
        violated_axiom=violated,
    )
