"""Executable axiom checks with replayable counterexample witnesses.

Each check quantifies over every profile of the given voter count and
reports either a clean pass or the first violation in canonical order:
profiles by canonical index, then permutations by transposition index,
then neighbors in the canonical neighbor order. Checkers see rules only
through the evaluation interface, so a parametric rule and its table
encoding are checked by exactly the same code path.

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


def check_anonymity(rule, n: int) -> AxiomReport:
    """Output must be invariant under every permutation of the voters.

    Quantifies only over the n-1 adjacent transpositions; they generate
    the symmetric group, so invariance under them is invariance under all
    n! permutations (cross-checked against the brute-force quantifier in
    the tests).
    """
    ev = evaluator(rule)
    for profile in all_profiles(n):
        value = ev(profile)
        for perm in adjacent_transpositions(n):
            shuffled = permute(profile, perm)
            got = ev(shuffled)
            if got is not value:
                return AxiomReport(
                    ANONYMITY, False, Witness(profile, shuffled, value, got)
                )
    return AxiomReport(ANONYMITY, True)


def check_anonymity_all_permutations(rule, n: int) -> AxiomReport:
    """Brute-force anonymity over all n! permutations; the oracle twin of
    check_anonymity, kept independent so the generator shortcut stays honest."""
    ev = evaluator(rule)
    perms = list(itertools.permutations(range(n)))
    for profile in all_profiles(n):
        value = ev(profile)
        for perm in perms:
            shuffled = permute(profile, perm)
            got = ev(shuffled)
            if got is not value:
                return AxiomReport(
                    ANONYMITY, False, Witness(profile, shuffled, value, got)
                )
    return AxiomReport(ANONYMITY, True)


def check_responsiveness(rule, n: int) -> AxiomReport:
    """Moving a single voter toward the current winner must keep it winning."""
    ev = evaluator(rule)
    for profile in all_profiles(n):
        winner = ev(profile)
        for neighbor in responsive_neighbors(profile, winner):
            got = ev(neighbor)
            if got is not winner:
                return AxiomReport(
                    RESPONSIVENESS, False, Witness(profile, neighbor, winner, got)
                )
    return AxiomReport(RESPONSIVENESS, True)


def check_q_neutrality(rule, n: int, q: int) -> AxiomReport:
    """Reversing all preferences must swap the winner exactly on the profiles
    where some alternative has at least q strict supporters.

    Off that region the axiom demands the swap FAIL; with a two-element
    codomain that is the same as the winner staying fixed under reversal,
    which is the form checked here.
    """
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    ev = evaluator(rule)
    for profile in all_profiles(n):
        mirrored = dual(profile)
        value = ev(profile)
        required = value.other if meets_quota(profile, q) else value
        got = ev(mirrored)
        if got is not required:
            return AxiomReport(
                Q_NEUTRALITY, False, Witness(profile, mirrored, required, got), q=q
            )
    return AxiomReport(Q_NEUTRALITY, True, q=q)


def check_neutrality(rule, n: int) -> AxiomReport:
    """Classical neutrality: every full preference reversal swaps the winner.

    Coincides with q-neutrality at q = 0, where the high-certainty region
    is all of the profile space.
    """
    ev = evaluator(rule)
    for profile in all_profiles(n):
        mirrored = dual(profile)
        required = ev(profile).other
        got = ev(mirrored)
        if got is not required:
            return AxiomReport(
                NEUTRALITY, False, Witness(profile, mirrored, required, got)
            )
    return AxiomReport(NEUTRALITY, True)


def run_all_checks(rule, n: int, q: int) -> list[AxiomReport]:
    """The three membership tests, in reporting order."""
    return [
        check_anonymity(rule, n),
        check_responsiveness(rule, n),
        check_q_neutrality(rule, n, q),
    ]


def replay_witness(report: AxiomReport, rule, n: int) -> bool:
    """Re-run the cited evaluations and confirm the witness still violates.

    Every failed report must replay: the counterpart really is related to
    the profile as the axiom requires, the rule really produces the
    observed value there, and that value really breaks the requirement.
    """
    if report.passed or report.witness is None:
        return False
    w = report.witness
    ev = evaluator(rule)
    if ev(w.counterpart) is not w.observed or w.observed is w.expected:
        return False
    if report.axiom == ANONYMITY:
        # equal tallies certify the counterpart is a rearrangement
        return tally(w.profile) == tally(w.counterpart) and ev(w.profile) is w.expected
    if report.axiom == RESPONSIVENESS:
        return (
            ev(w.profile) is w.expected
            and w.counterpart in responsive_neighbors(w.profile, w.expected)
        )
    if report.axiom == Q_NEUTRALITY:
        if report.q is None or w.counterpart != dual(w.profile):
            return False
        value = ev(w.profile)
        required = value.other if meets_quota(w.profile, report.q) else value
        return required is w.expected
    if report.axiom == NEUTRALITY:
        return w.counterpart == dual(w.profile) and ev(w.profile).other is w.expected
    return False


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
