import itertools
import os

import pytest

from qmvote.core import (
    Alternative,
    Profile,
    all_profiles,
    dual,
    permute,
    responsive_neighbors,
    tally,
)
from qmvote.rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    num_tally_classes,
    rules_equal,
    tally_class_index,
    threshold_table_rule,
)
from qmvote.axioms import (
    check_anonymity,
    check_q_neutrality,
    check_responsiveness,
    merge_profile,
    run_all_checks,
    unqualified_quota_contradiction,
)
from qmvote import verifier
from qmvote.verifier import (
    SPACE_ANONYMOUS,
    SPACE_FULL,
    GuardError,
    _grid_to_classes,
    enumerate_anonymous,
    enumerate_full,
    survivors_anonymous,
    survivors_full,
    verify_characterization,
)
from sweep_oracle import reference_profile_cells, sweep_survivors

X, Y = Alternative.X, Alternative.Y
P = Profile.from_string


def counts(profile):
    t = tally(profile)
    return (t.n_x, t.n_y, t.n_ind)


# --- merged profiles -------------------------------------------------------


def test_merge_takes_max_winner_min_loser():
    merged = merge_profile(Profile.from_counts(1, 2, 0), Profile.from_counts(2, 1, 0), X)
    assert counts(merged) == (2, 1, 0)


def test_merge_of_profile_with_itself():
    p = Profile.from_counts(1, 2, 2)
    assert counts(merge_profile(p, p, X)) == (1, 2, 2)
    assert counts(merge_profile(p, p, Y)) == (1, 2, 2)


def test_merge_worked_example_with_indifferents():
    merged = merge_profile(Profile.from_counts(1, 0, 2), Profile.from_counts(0, 2, 1), X)
    assert counts(merged) == (1, 0, 2)


def test_merge_layout_puts_winner_block_first():
    merged = merge_profile(Profile.from_counts(1, 2, 0), Profile.from_counts(2, 1, 0), Y)
    assert merged.to_string() == "YYX"
    merged = merge_profile(Profile.from_counts(1, 0, 2), Profile.from_counts(0, 2, 1), X)
    assert merged.to_string() == "XII"


def test_merge_requires_equal_voter_counts():
    with pytest.raises(ValueError):
        merge_profile(P("XY"), P("XYI"), X)


# --- the balanced-profile contradiction ------------------------------------


def test_contradiction_builds_balanced_profile():
    rule = threshold_table_rule(4, 2, X)
    w = unqualified_quota_contradiction(rule, 4, 2)
    assert counts(w.profile) == (2, 2, 0)
    assert w.dual_profile == dual(w.profile)
    assert permute(w.profile, w.permutation) == w.dual_profile
    assert w.anonymity_requires is not w.neutrality_requires
    assert w.observed in (w.anonymity_requires, w.neutrality_requires)


def test_contradiction_for_the_court_rule_of_four():
    rule = threshold_table_rule(9, 4, X)
    w = unqualified_quota_contradiction(rule, 9, 4)
    assert counts(w.profile) == (4, 4, 1)
    # the rule is anonymous, so it is the neutrality demand that breaks
    assert w.violated_axiom == "q-neutrality"
    assert w.observed is w.anonymity_requires


def test_contradiction_tiny_instance_dual_is_a_swap():
    rule = threshold_table_rule(2, 1, X)
    w = unqualified_quota_contradiction(rule, 2, 1)
    assert w.profile == P("XY")
    assert w.dual_profile == permute(w.profile, (1, 0))
    assert w.permutation == (1, 0)


def test_contradiction_blames_anonymity_for_neutral_rules():
    def voter0_dictator(profile):
        from qmvote.core import Preference

        if profile.voters[0] is Preference.STRICT_X:
            return X
        if profile.voters[0] is Preference.STRICT_Y:
            return Y
        return Y

    w = unqualified_quota_contradiction(voter0_dictator, 2, 1)
    assert w.violated_axiom == "anonymity"
    assert w.observed is w.neutrality_requires


def test_contradiction_not_applicable_for_qualified_quotas():
    rule = threshold_table_rule(3, 2, X)
    with pytest.raises(ValueError):
        unqualified_quota_contradiction(rule, 3, 2)


# --- cell layouts -----------------------------------------------------------


def test_moves_toward_y_are_the_moves_toward_x_reversed():
    # the sweep keeps only the X-ward moves, and the search closes O along
    # the Y-ward ones: each Y-ward move is an X-ward one taken backwards,
    # so both give the same clause
    for n in range(1, 6):
        profiles = all_profiles(n)
        # (p, t) with t in responsive_neighbors(p, Y), and with p in
        # responsive_neighbors(t, X)
        toward_y = {(p, t) for p in profiles for t in responsive_neighbors(p, Y)}
        back_from_x = {(p, t) for t in profiles for p in responsive_neighbors(t, X)}
        assert toward_y == back_from_x, n


def test_grid_cells_map_to_their_tally_classes():
    # the anonymous search puts class (a, b) at grid bit a*(2n + 2) + b
    for n in range(1, 9):
        for a in range(n + 1):
            for b in range(n + 1 - a):
                grid = 1 << a * (2 * n + 2) + b
                assert _grid_to_classes(n, grid) == 1 << tally_class_index(n, a, b), (n, a, b)


# --- enumeration guard rails ------------------------------------------------


def test_sat_cell_cap():
    # full n=9 has 19,683 cells and anonymous n=167 has 14,196, both past 14,000
    with pytest.raises(GuardError, match="anonymous space"):
        enumerate_full(9, 5)
    with pytest.raises(GuardError, match="14,000-cell limit"):
        enumerate_anonymous(167, 84)
    with pytest.raises(GuardError):
        enumerate_full(1, 0)


def test_sat_cell_cap_admits_anonymous_n165():
    # anonymous n=165 has 13,861 cells, the most under the cap
    result = enumerate_anonymous(165, 83)
    assert result.matches_theorem and len(result.survivors) == 2


def test_sat_guard_refuses_a_huge_n_without_its_cell_count():
    with pytest.raises(GuardError) as info:
        enumerate_full(10**7, 1)
    assert str(info.value) == (
        "full space at n=10000000 past the 14,000-cell limit; use the anonymous space"
    )
    with pytest.raises(GuardError, match="past the 14,000-cell limit$"):
        enumerate_anonymous(10**3000, 1)
    # near the cap the count is spelled out
    with pytest.raises(GuardError, match="has 3,486,784,401 cells"):
        enumerate_full(20, 1)


def test_sat_survivor_cap():
    no_axioms = dict(use_neutrality=False, use_responsiveness=False)
    # 2^15 survivors at n=4 stay under the cap, listed in ascending order
    assert survivors_anonymous(4, 2, **no_axioms) == list(range(2**15))
    # all 2^21 anonymous n=5 tables survive, past the cap, so the call is
    # refused, as at every larger n
    for n in (5, 6):
        with pytest.raises(GuardError, match="more than 65,536"):
            survivors_anonymous(n, 3, **no_axioms)


def test_survivor_cap_refuses_without_listing_solutions(monkeypatch):
    # with no axiom selected every rule passes, so the count is known up front
    def fail(*args, **kwargs):
        raise AssertionError("solutions listed before the refusal")

    monkeypatch.setattr(verifier, "_solutions", fail)
    no_axioms = dict(use_neutrality=False, use_responsiveness=False)
    for n in (5, 8):
        with pytest.raises(GuardError, match="more than 65,536"):
            survivors_anonymous(n, 3, **no_axioms)
    with pytest.raises(GuardError, match="more than 65,536"):
        survivors_full(3, 2, use_anonymity=False, **no_axioms)


def test_bad_quota_rejected():
    with pytest.raises(ValueError):
        enumerate_full(2, 3)
    with pytest.raises(ValueError):
        enumerate_anonymous(3, -1)


# --- small-space enumeration ------------------------------------------------


def test_full_n2_survivors_and_encodings():
    result = enumerate_full(2, 2)
    assert result.rules_examined == 512
    assert result.matches_theorem
    expected = {
        TableRule.from_rule(QualifiedMajorityRule(2, 2, a), 2).bits: f"sigma_2^{a.value}"
        for a in (X, Y)
    }
    assert {s.encoding: s.pretty for s in result.survivors} == expected
    for s in result.survivors:
        decoded = TableRule(2, s.encoding)
        assert any(
            rules_equal(decoded, QualifiedMajorityRule(2, 2, a), 2) for a in (X, Y)
        )


def test_full_n2_nothing_survives_unqualified_quotas():
    for q in (0, 1):
        result = enumerate_full(2, q)
        assert result.rules_examined == 512
        assert result.survivors == ()
        assert result.matches_theorem


def test_anonymous_n3_survivors():
    result = enumerate_anonymous(3, 2)
    assert result.rules_examined == 1024
    expected = {
        AnonymousTableRule.from_rule(QualifiedMajorityRule(3, 2, a), 3).bits
        for a in (X, Y)
    }
    assert {s.encoding for s in result.survivors} == expected
    assert result.matches_theorem


def test_verify_characterization_wrapper():
    assert verify_characterization(2, 1, "full")
    assert verify_characterization(4, 3, "anonymous")
    with pytest.raises(ValueError):
        verify_characterization(2, 1, "both")


def test_full_and_anonymous_survivors_agree_at_n2():
    for q in range(3):
        full = set(survivors_full(2, q))
        lifted = {
            AnonymousTableRule(2, enc).lift().bits for enc in survivors_anonymous(2, q)
        }
        assert full == lifted


def conjugate_encoding(n, enc):
    """Encoding of the rule R -> swap(rule(dual R))."""
    base = AnonymousTableRule(n, enc)
    return AnonymousTableRule.from_rule(
        lambda p: base.evaluate(dual(p)).other, n
    ).bits


def test_survivor_sets_closed_under_conjugation():
    for n in (2, 3, 4):
        for q in range(n + 1):
            survivors = set(survivors_anonymous(n, q))
            assert survivors == {conjugate_encoding(n, e) for e in survivors}


# --- near-misses: drop one axiom -------------------------------------------
# Golden counts below were produced by this enumeration and are frozen;
# the drop-one membership was cross-checked against the profile-level
# checkers over all 512 rules when first recorded.


def test_near_miss_counts_full_n2_q2():
    assert len(survivors_full(2, 2)) == 2
    assert len(survivors_full(2, 2, use_responsiveness=False)) == 16
    assert len(survivors_full(2, 2, use_neutrality=False)) == 8
    # Dropping anonymity does NOT enlarge the set at n=2: responsiveness
    # plus 2-neutrality already pin down the two quota rules, which happen
    # to be anonymous. Recorded as found by the enumeration.
    assert survivors_full(2, 2, use_anonymity=False) == survivors_full(2, 2)


def test_near_miss_sets_match_profile_level_checkers():
    no_resp = set(survivors_full(2, 2, use_responsiveness=False))
    no_neu = set(survivors_full(2, 2, use_neutrality=False))
    for bits in range(512):
        rule = TableRule(2, bits)
        anon, resp, neu = (r.passed for r in run_all_checks(rule, 2, 2))
        assert (bits in no_resp) == (anon and neu)
        assert (bits in no_neu) == (anon and resp)


def test_single_axiom_kernel_filters_match_the_checkers():
    only_anon = set(
        survivors_full(2, 0, use_responsiveness=False, use_neutrality=False)
    )
    only_resp = set(
        survivors_full(2, 0, use_anonymity=False, use_neutrality=False)
    )
    for bits in range(512):
        rule = TableRule(2, bits)
        anon, resp, _ = (r.passed for r in run_all_checks(rule, 2, 0))
        assert (bits in only_anon) == anon
        assert (bits in only_resp) == resp
    no_checks = {"use_anonymity": False, "use_responsiveness": False, "use_neutrality": False}
    assert survivors_full(2, 0, **no_checks) == list(range(512))


# --- corruption is always caught --------------------------------------------


def test_flipped_bit_never_survives():
    enc = TableRule.from_rule(QualifiedMajorityRule(2, 2, X), 2).bits
    survivors = set(survivors_full(2, 2))
    for p in range(9):
        corrupted = TableRule(2, enc ^ (1 << p))
        assert corrupted.bits not in survivors
        assert not all(r.passed for r in run_all_checks(corrupted, 2, 2))
    result = enumerate_full(2, 2)
    assert result.matches_theorem


# --- a window of the n=3 full space ----------------------------------------


def test_full_n3_window_scan_finds_exactly_the_quota_rule():
    import numpy as np

    from qmvote import _kernels

    enc = TableRule.from_rule(QualifiedMajorityRule(3, 2, X), 3).bits
    cells = reference_profile_cells(3)
    in_rq = (np.array(cells.support) >= 2).astype(np.uint8)
    found = _kernels.scan_rules(
        enc - 512,
        enc + 512,
        in_rq,
        cells.dual_idx,
        cells.resp_x_indptr,
        cells.resp_x_targets,
        cells.trans,
        want_anonymity=True,
    )
    assert [int(v) for v in found] == [enc]


# --- the search against the sweep oracle ----------------------------------

AXIOM_SUBSETS = [
    dict(use_anonymity=a, use_responsiveness=r, use_neutrality=u)
    for a, r, u in itertools.product((True, False), repeat=3)
]
# anonymity holds by construction in the anonymous space
ANONYMOUS_SUBSETS = [
    dict(use_responsiveness=r, use_neutrality=u)
    for r, u in itertools.product((True, False), repeat=2)
]


def sweep_checks(axioms):
    """The sweep's check switches for a set of ``use_*`` axiom switches."""
    return {"want_" + name[len("use_"):]: on for name, on in axioms.items()}


def test_engines_agree_on_the_full_space_n2():
    for q in range(3):
        for axioms in AXIOM_SUBSETS:
            sweep = sweep_survivors(SPACE_FULL, 2, q, **sweep_checks(axioms))
            assert survivors_full(2, q, **axioms) == sweep, (q, axioms)


def test_engines_agree_on_the_anonymous_spaces_n2_to_n5():
    # a subset's oracle is the intersection of one-axiom sweeps, which is
    # the combined sweep by definition; responsiveness does not depend on
    # q, so it is swept once per n
    for n in range(2, 6):
        responsive = sweep_survivors(SPACE_ANONYMOUS, n, 0, want_neutrality=False)
        for q in range(n + 1):
            neutral = sweep_survivors(SPACE_ANONYMOUS, n, q, want_responsiveness=False)
            oracle = {
                (True, True): sorted(set(responsive).intersection(neutral)),
                (True, False): responsive,
                (False, True): neutral,
                (False, False): range(2 ** num_tally_classes(n)),
            }
            for axioms in ANONYMOUS_SUBSETS:
                want = oracle[axioms["use_responsiveness"], axioms["use_neutrality"]]
                if len(want) > 2**16:  # no axiom at n=5: 2^21 rules, past the survivor cap
                    with pytest.raises(GuardError, match="more than 65,536"):
                        survivors_anonymous(n, q, **axioms)
                else:
                    assert survivors_anonymous(n, q, **axioms) == list(want), (n, q, axioms)


# --- the search against the profile-level checkers ------------------------


def assert_survivors_pass_the_checkers(n, rules, survivors, subsets):
    """``survivors(n, q, **axioms)`` lists exactly the rules that pass the
    selected checkers of ``run_all_checks``, for every q and subset."""
    everything = {rule.bits for rule in rules}
    anonymous = {rule.bits for rule in rules if check_anonymity(rule, n).passed}
    responsive = {rule.bits for rule in rules if check_responsiveness(rule, n).passed}
    for q in range(n + 1):
        neutral = {rule.bits for rule in rules if check_q_neutrality(rule, n, q).passed}
        passing = {
            "use_anonymity": anonymous,
            "use_responsiveness": responsive,
            "use_neutrality": neutral,
        }
        for axioms in subsets:
            want = everything.intersection(*(passing[use] for use, on in axioms.items() if on))
            assert survivors(n, q, **axioms) == sorted(want), (n, q, axioms)


def test_survivors_match_the_profile_level_checkers():
    # every rule is decoded and checked profile by profile, so this oracle
    # reads no index table; anonymity and responsiveness do not depend on q
    full = [TableRule(2, bits) for bits in range(2**9)]
    assert_survivors_pass_the_checkers(2, full, survivors_full, AXIOM_SUBSETS)
    for n in (2, 3):
        tables = [AnonymousTableRule(n, bits) for bits in range(2 ** num_tally_classes(n))]
        assert_survivors_pass_the_checkers(n, tables, survivors_anonymous, ANONYMOUS_SUBSETS)


def quota_rule_encodings(cell_counts, q):
    """Encodings of the two quota-q rules from each cell's (n_x, n_y), the
    reform winning where its strict supporters reach q (bit 1 = Y wins)."""
    x_reform = sum(1 << k for k, (nx, _) in enumerate(cell_counts) if nx < q)
    y_reform = sum(1 << k for k, (_, ny) in enumerate(cell_counts) if ny >= q)
    return sorted({x_reform, y_reform})


def full_cell_counts(n):
    counts = []
    for index in range(3**n):
        digits = [(index // 3**i) % 3 for i in range(n)]
        counts.append((digits.count(0), digits.count(1)))
    return counts


def test_sat_theorem_full_n3_to_n5():
    for n in range(3, 6):
        counts = full_cell_counts(n)
        for q in range(n + 1):
            want = quota_rule_encodings(counts, q) if 2 * q > n else []
            assert survivors_full(n, q) == want, (n, q)
            result = enumerate_full(n, q)
            assert result.rules_examined == 2 ** 3**n
            assert result.matches_theorem


def test_sat_theorem_anonymous_n6_to_n20():
    for n in range(6, 21):
        counts = [(nx, ny) for nx in range(n + 1) for ny in range(n + 1 - nx)]
        for q in range(n + 1):
            want = quota_rule_encodings(counts, q) if 2 * q > n else []
            assert survivors_anonymous(n, q) == want, (n, q)
            assert enumerate_anonymous(n, q).matches_theorem


def test_sat_theorem_full_n8_under_the_plain_cap():
    counts = full_cell_counts(8)
    for q in range(9):
        want = quota_rule_encodings(counts, q) if 2 * q > 8 else []
        assert survivors_full(8, q) == want, q


def test_full_space_without_anonymity_keeps_the_two_quota_rules():
    # observed, not a claim of the paper: at every qualified quota for
    # n=2..8, responsiveness and q-neutrality alone leave exactly the two
    # quota-q rules, which are anonymous anyway
    for n in range(2, 9):
        counts = full_cell_counts(n)
        for q in range(n // 2 + 1, n + 1):
            want = quota_rule_encodings(counts, q)
            assert survivors_full(n, q, use_anonymity=False) == want, (n, q)


def test_full_n3_long_run_theorem():
    for q in range(4):
        result = enumerate_full(3, q)
        assert result.rules_examined == 2**27
        assert result.matches_theorem


def test_anonymous_n6_long_run_theorem():
    for q in range(7):
        result = enumerate_anonymous(6, q)
        assert result.rules_examined == 2**28
        assert result.matches_theorem


@pytest.mark.skipif(
    not os.environ.get("QMVOTE_LONG_TESTS"),
    reason="full n=3 sweep is behind QMVOTE_LONG_TESTS=1",
)
def test_full_n3_long_run_theorem_sweep():
    counts = full_cell_counts(3)
    for q in range(4):
        want = quota_rule_encodings(counts, q) if 2 * q > 3 else []
        found = sweep_survivors(SPACE_FULL, 3, q)
        assert found == want, q


@pytest.mark.skipif(
    not os.environ.get("QMVOTE_LONG_TESTS"),
    reason="anonymous n=6 sweep is behind QMVOTE_LONG_TESTS=1",
)
def test_anonymous_n6_long_run_theorem_sweep():
    counts = [(nx, ny) for nx in range(7) for ny in range(7 - nx)]
    for q in range(7):
        want = quota_rule_encodings(counts, q) if 2 * q > 6 else []
        found = sweep_survivors(SPACE_ANONYMOUS, 6, q)
        assert found == want, q
