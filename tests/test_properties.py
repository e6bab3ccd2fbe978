"""Property suites for the invariants the rest of the package leans on."""

import hypothesis.strategies as st
from hypothesis import given, settings

from qmvote.core import (
    Alternative,
    Preference,
    Profile,
    dual,
    meets_quota,
    permute,
    responsive_neighbors,
    tally,
)
from qmvote.rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    num_tally_classes,
)
from qmvote.axioms import (
    check_anonymity,
    check_neutrality,
    check_q_neutrality,
    check_responsiveness,
    merge_profile,
    replay_witness,
    run_all_checks,
)
from qmvote.cli import read_ballots_text
from ballots import ballots_text

X, Y = Alternative.X, Alternative.Y

preferences = st.sampled_from(list(Preference))
profiles = st.lists(preferences, min_size=1, max_size=7).map(lambda v: Profile(tuple(v)))
small_profiles = st.lists(preferences, min_size=2, max_size=5).map(
    lambda v: Profile(tuple(v))
)


@st.composite
def profile_with_permutation(draw):
    profile = draw(profiles)
    perm = draw(st.permutations(range(profile.n)))
    return profile, tuple(perm)


@st.composite
def profile_with_quota(draw):
    profile = draw(profiles)
    q = draw(st.integers(0, profile.n))
    return profile, q


@given(profile_with_permutation())
def test_tally_is_permutation_invariant(case):
    profile, perm = case
    assert tally(permute(profile, perm)) == tally(profile)


@given(profiles)
def test_dual_is_an_involution_and_swaps_strict_counts(profile):
    assert dual(dual(profile)) == profile
    t = tally(profile)
    td = tally(dual(profile))
    assert (td.n_x, td.n_y, td.n_ind) == (t.n_y, t.n_x, t.n_ind)


@given(profile_with_quota())
def test_quota_certainty_is_dual_invariant(case):
    profile, q = case
    assert meets_quota(profile, q) == meets_quota(dual(profile), q)


@given(profile_with_permutation())
def test_permute_is_a_group_action(case):
    profile, perm = case
    inverse = [0] * profile.n
    for i, j in enumerate(perm):
        inverse[j] = i
    assert permute(permute(profile, perm), inverse) == profile


@given(profile_with_permutation())
def test_dual_commutes_with_permute(case):
    profile, perm = case
    assert dual(permute(profile, perm)) == permute(dual(profile), perm)


@given(profiles, st.sampled_from([X, Y]))
def test_neighbors_differ_at_exactly_one_voter(profile, winner):
    for nb in responsive_neighbors(profile, winner):
        assert nb != profile
        moved = [i for i in range(profile.n) if nb.voters[i] != profile.voters[i]]
        assert len(moved) == 1
        i = moved[0]
        assert profile.voters[i].weakly_prefers(winner.other)
        assert nb.voters[i].weakly_prefers(winner)


@given(small_profiles, st.sampled_from([X, Y]))
def test_quota_rule_sees_only_the_tally(profile, reform):
    q = profile.n // 2 + 1
    rule = QualifiedMajorityRule(profile.n, q, reform)
    expected = reform if tally(profile).count_for(reform) >= q else reform.other
    assert rule.evaluate(profile) is expected
    reversed_order = permute(profile, tuple(range(profile.n - 1, -1, -1)))
    assert rule.evaluate(reversed_order) is rule.evaluate(profile)


@given(st.integers(0, 2 ** num_tally_classes(3) - 1))
def test_anonymous_rules_always_pass_anonymity(bits):
    assert check_anonymity(AnonymousTableRule(3, bits), 3).passed


@settings(max_examples=60)
@given(st.integers(0, 2**9 - 1))
def test_neutrality_equals_q_neutrality_at_zero(bits):
    rule = TableRule(2, bits)
    assert check_neutrality(rule, 2).passed == check_q_neutrality(rule, 2, 0).passed


@settings(max_examples=60)
@given(st.integers(0, 2**9 - 1), st.integers(0, 2))
def test_every_failed_report_replays(bits, q):
    rule = TableRule(2, bits)
    for report in run_all_checks(rule, 2, q):
        if not report.passed:
            assert replay_witness(report, rule, 2)


@settings(max_examples=60)
@given(st.integers(0, 2 ** num_tally_classes(3) - 1), st.integers(0, 3))
def test_anonymous_failed_reports_replay(bits, q):
    rule = AnonymousTableRule(3, bits)
    for report in (
        check_responsiveness(rule, 3),
        check_q_neutrality(rule, 3, q),
    ):
        if not report.passed:
            assert replay_witness(report, rule, 3)


@st.composite
def profile_pair_with_winner(draw):
    n = draw(st.integers(1, 6))
    make = lambda: Profile(tuple(draw(preferences) for _ in range(n)))
    return make(), make(), draw(st.sampled_from([X, Y]))


@given(profile_pair_with_winner())
def test_merged_profile_takes_max_winner_support_min_loser_support(case):
    first, second, winner = case
    merged = merge_profile(first, second, winner)
    t1, t2, tm = tally(first), tally(second), tally(merged)
    assert tm.count_for(winner) == max(t1.count_for(winner), t2.count_for(winner))
    assert tm.count_for(winner.other) == min(
        t1.count_for(winner.other), t2.count_for(winner.other)
    )
    assert tm.n == first.n


@given(small_profiles)
def test_ballot_text_round_trip(profile):
    assert read_ballots_text(ballots_text(profile)) == profile


@given(st.integers(0, 2**9 - 1))
def test_full_table_line_round_trip(bits):
    rule = TableRule(2, bits)
    assert TableRule.from_line(2, rule.to_line()) == rule


@given(st.integers(0, 2 ** num_tally_classes(4) - 1))
def test_anonymous_table_line_round_trip(bits):
    rule = AnonymousTableRule(4, bits)
    assert AnonymousTableRule.from_line(4, rule.to_line()) == rule
