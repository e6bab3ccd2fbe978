"""Executable axiom checks with replayable counterexample witnesses.

Each check quantifies over every profile of the given voter count and
reports either a clean pass or the first violation in canonical order:
profiles by canonical index, then permutations by transposition index,
then neighbors in the canonical neighbor order. Checkers see rules only
through the evaluation interface, so a parametric rule and its table
encoding are checked by exactly the same code path.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .core import (
    Alternative,
    FrozenValue,
    Profile,
    adjacent_transpositions,
    all_profiles,
    dual,
    meets_quota,
    permute,
    responsive_neighbors,
    tally,
)
from .rules import evaluator

ANONYMITY = "anonymity"
RESPONSIVENESS = "responsiveness"
Q_NEUTRALITY = "q-neutrality"
NEUTRALITY = "neutrality"


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
