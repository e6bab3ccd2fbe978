import hashlib
import json
import random

import pytest

from qmvote.core import (
    Alternative,
    Preference,
    Profile,
    responsive_neighbors,
    tally,
)
from qmvote.rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    num_tally_classes,
    tally_classes,
)
from qmvote.axioms import (
    AxiomReport,
    Witness,
    check_anonymity,
    check_anonymity_all_permutations,
    check_neutrality,
    check_q_neutrality,
    check_responsiveness,
    replay_witness,
    run_all_checks,
)
from qmvote._tablecheck import run_table_checks

X, Y = Alternative.X, Alternative.Y
P = Profile.from_string


def dictatorship(profile):
    """Voter 0's strict preference; Y when voter 0 is indifferent."""
    return X if profile.voters[0] is Preference.STRICT_X else Y


def exact_count_rule(profile):
    """X exactly when one voter strictly supports it; not monotone."""
    return X if tally(profile).n_x == 1 else Y


def constant_y_rule(n):
    return AnonymousTableRule(n, (1 << num_tally_classes(n)) - 1)


def simple_majority_rule(n):
    bits = 0
    for k, (nx, ny) in enumerate(tally_classes(n)):
        if not nx > ny:
            bits |= 1 << k
    return AnonymousTableRule(n, bits)


def test_quota_rule_passes_all_three():
    rule = QualifiedMajorityRule(3, 2, X)
    for report in run_all_checks(rule, 3, 2):
        assert report.passed
        assert report.witness is None


def test_dictatorship_fails_anonymity():
    rule = TableRule.from_rule(dictatorship, 2)
    report = check_anonymity(rule, 2)
    assert not report.passed
    # first violation in canonical profile order is index 1, i.e. "YX"
    assert report.witness.profile == P("YX")
    assert report.witness.counterpart == P("XY")
    assert replay_witness(report, rule, 2)
    # the hand-worked pair is also a genuine violation
    assert dictatorship(P("XY")) is not dictatorship(P("YX"))


def test_anonymous_table_lift_always_passes_anonymity():
    for bits in (0, 5, 21, 42, 63):
        assert check_anonymity(AnonymousTableRule(2, bits), 2).passed


def test_exact_count_rule_fails_responsiveness():
    rule = TableRule.from_rule(exact_count_rule, 2)
    report = check_responsiveness(rule, 2)
    assert not report.passed
    # canonical first violation: "XX" elects Y, but the move to "IX" flips it
    assert report.witness.profile == P("XX")
    assert report.witness.counterpart == P("IX")
    assert replay_witness(report, rule, 2)
    # the hand-worked pair: "XI" elects X and the move to "XX" dethrones it
    assert exact_count_rule(P("XI")) is X
    assert exact_count_rule(P("XX")) is Y
    assert P("XX") in responsive_neighbors(P("XI"), X)


def test_constant_rule_passes_responsiveness():
    assert check_responsiveness(constant_y_rule(2), 2).passed


def test_quota_rule_q_neutral_only_at_its_own_quota():
    rule = QualifiedMajorityRule(3, 2, X)
    assert check_q_neutrality(rule, 3, 2).passed
    report = check_q_neutrality(rule, 3, 3)
    assert not report.passed
    # first witness has two X supporters against one: certain for q=2, not q=3
    assert report.witness.profile == P("YXX")
    assert tally(report.witness.profile).n_x == 2
    assert replay_witness(report, rule, 3)


def test_q_neutrality_rejects_bad_quota():
    with pytest.raises(ValueError):
        check_q_neutrality(constant_y_rule(2), 2, 3)
    with pytest.raises(ValueError):
        check_q_neutrality(constant_y_rule(2), 2, -1)


def test_constant_rule_is_never_q_neutral():
    for q in range(3):
        report = check_q_neutrality(constant_y_rule(2), 2, q)
        assert not report.passed
        assert replay_witness(report, constant_y_rule(2), 2)
    report = check_q_neutrality(constant_y_rule(2), 2, 2)
    assert report.witness.profile == P("XX")
    assert report.witness.expected is X and report.witness.observed is Y


def test_classical_neutrality_is_q_neutrality_at_zero():
    rules = [
        QualifiedMajorityRule(3, 2, X),
        constant_y_rule(3),
        simple_majority_rule(3),
        TableRule(3, 0b101_010_110_010_101_011_001_110_100),
    ]
    for rule in rules:
        a = check_neutrality(rule, 3)
        b = check_q_neutrality(rule, 3, 0)
        assert a.passed == b.passed
        if not a.passed:
            assert a.witness == b.witness


def test_quota_rule_fails_classical_neutrality():
    rule = QualifiedMajorityRule(3, 2, X)
    report = check_neutrality(rule, 3)
    assert not report.passed
    # the all-indifferent profile is self-dual and elects Y, so it must violate
    self_dual = P("III")
    assert rule.evaluate(self_dual) is Y


def test_simple_majority_fails_neutrality_on_a_tie():
    report = check_neutrality(simple_majority_rule(3), 3)
    assert not report.passed
    t = tally(report.witness.profile)
    assert (t.n_x, t.n_y, t.n_ind) == (1, 1, 1)


def test_adjacent_and_full_permutation_checks_agree_on_small_rules():
    for bits in range(0, 512, 7):
        rule = TableRule(2, bits)
        assert (
            check_anonymity(rule, 2).passed
            == check_anonymity_all_permutations(rule, 2).passed
        )


def test_report_json_shape():
    report = check_q_neutrality(constant_y_rule(2), 2, 2)
    doc = report.to_json_dict()
    assert list(doc) == ["axiom", "q", "passed", "witness"]
    assert list(doc["witness"]) == ["profile", "counterpart", "expected", "observed"]
    passing = check_anonymity(constant_y_rule(2), 2).to_json_dict()
    assert list(passing) == ["axiom", "passed"]


def test_replay_rejects_tampered_witnesses():
    rule = TableRule.from_rule(dictatorship, 2)
    report = check_anonymity(rule, 2)
    from qmvote.axioms import AxiomReport, Witness

    w = report.witness
    bogus = AxiomReport(
        report.axiom, False, Witness(w.profile, w.counterpart, w.expected, w.expected)
    )
    assert not replay_witness(bogus, rule, 2)
    assert not replay_witness(AxiomReport("anonymity", True), rule, 2)


def test_replay_of_a_classical_neutrality_witness():
    rule = QualifiedMajorityRule(3, 2, X)
    report = check_neutrality(rule, 3)
    assert replay_witness(report, rule, 3)
    w = report.witness
    tampered = Witness(w.profile, w.counterpart, w.expected, w.expected)
    assert not replay_witness(AxiomReport(report.axiom, False, tampered), rule, 3)


def test_table_checks_refuse_what_they_cannot_encode():
    with pytest.raises(ValueError, match="rule is for n=3, checked at n=4"):
        run_table_checks(QualifiedMajorityRule(3, 2, X), 4, 2)
    with pytest.raises(TypeError, match="no output column for function"):
        run_table_checks(dictatorship, 2, 1)
    for q in (-1, 3):
        with pytest.raises(ValueError, match=r"quota must lie in 0\.\.2"):
            run_table_checks(constant_y_rule(2), 2, q)


def test_checkers_take_plain_callables():
    assert not check_anonymity(dictatorship, 2).passed
    assert check_responsiveness(lambda p: Y, 3).passed


def _tampered(report):
    """Nine altered copies of a failed report: its witness's two profiles
    swapped, its expected or observed winner flipped, its quota dropped or
    raised by one, and its axiom renamed to each other name and to one
    that no checker uses."""
    w, q = report.witness, report.q
    for witness in (
        Witness(w.counterpart, w.profile, w.expected, w.observed),
        Witness(w.profile, w.counterpart, w.expected.other, w.observed),
        Witness(w.profile, w.counterpart, w.expected, w.observed.other),
    ):
        yield AxiomReport(report.axiom, False, witness, q)
    yield AxiomReport(report.axiom, False, w, None)
    yield AxiomReport(report.axiom, False, w, (q or 0) + 1)
    for axiom in ("anonymity", "responsiveness", "q-neutrality", "neutrality", "plurality"):
        if axiom != report.axiom:
            yield AxiomReport(axiom, False, w, q)


def _replay_verdict(report, rule, n):
    try:
        return replay_witness(report, rule, n)
    except Exception as exc:
        return type(exc).__name__


def test_the_oracle_reports_and_replays_as_pinned():
    """Every report of the five checkers, and the replay verdict of each
    failed one and of its nine tampered copies, on all 512 tables at n=2
    and 150 seeded tables at n=3, at every quota, hash to the digest the
    checkers gave when each axiom had a walk of its own. The benchmark's
    gate confirms ``check``'s witnesses through ``replay_witness``, so a
    replay that accepted more than it did would change this digest."""
    rng = random.Random(32)
    tables = [(2, bits) for bits in range(512)] + [(3, rng.getrandbits(27)) for _ in range(150)]
    lines = []
    for n, bits in tables:
        rule = TableRule(n, bits)
        reports = [
            check_anonymity(rule, n),
            check_anonymity_all_permutations(rule, n),
            check_responsiveness(rule, n),
            check_neutrality(rule, n),
        ] + [check_q_neutrality(rule, n, q) for q in range(n + 1)]
        for report in reports:
            lines.append(json.dumps(report.to_json_dict()))
            if not report.passed:
                verdicts = [_replay_verdict(r, rule, n) for r in (report, *_tampered(report))]
                lines.append(repr(verdicts))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6d57adb54539f140a0d3bc19f1142d99ba94c6fafc8f82c6da363cd1d128f564"
