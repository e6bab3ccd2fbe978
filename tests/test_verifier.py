import itertools
import math
import random

import pytest

from qmvote.core import (
    Alternative,
    Profile,
    all_profiles,
    dual,
    permute,
    qualified_quotas,
    responsive_neighbors,
    tally,
)
from qmvote.rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    num_tally_classes,
    qualified_majority_rules,
    rules_equal,
    tally_class_index,
    tally_classes,
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
from qmvote import _kernels, verifier
from qmvote.verifier import (
    SPACE_ANONYMOUS,
    SPACE_FULL,
    GuardError,
    enumerate_anonymous,
    enumerate_full,
    survivors_anonymous,
    survivors_full,
    verify_characterization,
)
from staircases import staircases
from sweep_oracle import (
    clauses,
    reference_profile_cells,
    reference_tally_cells,
    sweep_survivors,
)

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


def test_contradiction_refuses_a_quota_out_of_range():
    # a quota outside 0..n is neither qualified nor unqualified
    rule = threshold_table_rule(2, 1, X)
    for q in (-1, 3):
        with pytest.raises(ValueError, match=rf"^quota must lie in 0\.\.2, got {q}$"):
            unqualified_quota_contradiction(rule, 2, q)


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
                encoding = verifier._AnonymousSpace(n, True, True).encoding(grid)
                assert encoding == 1 << tally_class_index(n, a, b), (n, a, b)


def cell_spaces(n):
    """(layout class, oracle tables, the layout's bit for each table cell)
    at n voters: the full space without anonymity up to n=6, and the
    anonymous space, which the full space under anonymity searches too."""
    spaces = []
    if n <= 6:
        spaces.append((verifier._FullSpace, reference_profile_cells(n), range(3**n)))
    grid = [a * (2 * n + 2) + b for a, b in tally_classes(n)]
    spaces.append((verifier._AnonymousSpace, reference_tally_cells(n), grid))
    return spaces


def cell_layouts(all_quotas=False):
    """(layout, oracle tables, the layout's bit for each table cell, the
    cells one move toward X and toward Y away) for the full space at
    n=1..6 and the anonymous space at n=1..7, with responsiveness on and
    off, at q = n or at every quota. A dropped axiom leaves no moves."""
    for n in range(1, 8):
        for space, cells, bits in cell_spaces(n):
            no_moves = [[]] * len(bits)
            for responsiveness in (True, False):
                moves = (cells.x_targets, cells.y_targets) if responsiveness else (no_moves,) * 2
                for q in range(n + 1) if all_quotas else [n]:
                    layout = space(n, responsiveness, True).at(q)
                    yield layout, cells, bits, moves


def reached(start, targets):
    """The cells reachable from ``start`` along ``targets``."""
    seen, todo = {start}, [start]
    while todo:
        k = todo.pop()
        for t in targets[k]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def test_each_layout_closes_a_cell_as_the_profile_level_moves_do():
    # one call of a closure is complete: the search closes only the cells
    # new to a state and relies on it
    for layout, cells, bits, moves in cell_layouts():
        for k in range(cells.ncells):
            seed = layout.seed(bits[k])[0]
            for toward, targets in zip((layout.x_moves, layout.y_moves), moves):
                want = sum(1 << bits[t] for t in reached(k, targets))
                got = verifier._reached(seed, toward)
                assert got == want, (type(layout).__name__, layout.n, toward is layout.x_moves, k)


def test_each_layout_mirrors_a_cell_to_its_dual():
    # a decision seeds its cell alone and mirrors it to the dual
    for layout, cells, bits, _ in cell_layouts():
        for k, d in enumerate(cells.dual_idx):
            seeds = (1 << bits[k], 1 << bits[d])
            assert layout.seed(bits[k]) == seeds, (type(layout).__name__, layout.n, k)
    # without q-neutrality a layout has no mirrors and no quota region
    for space in (verifier._FullSpace, verifier._AnonymousSpace):
        layout = space(3, True, False).at(2)
        assert layout.in_rq == layout.out_rq == 0
        assert not any(layout.seed(k)[1] for k in range(layout.valid.bit_length()))


def test_each_layout_holds_r_q_where_some_alternative_has_q_supporters():
    # R_q is built from the quota-q rules' threshold sets, and the oracle
    # reads it off each cell's support, max(n_x, n_y)
    for n in range(1, 8):
        for space, cells, bits in cell_spaces(n):
            for q in range(n + 1):
                layout = space(n, True, True).at(q)
                sides = [0, 0]  # the cells outside and inside R_q
                for k, support in enumerate(cells.support):
                    sides[support >= q] |= 1 << bits[k]
                assert [layout.out_rq, layout.in_rq] == sides, (type(layout).__name__, n, q)


def recorded_states(monkeypatch):
    """The list every later ``_close`` call appends its result to."""
    states = []
    close = verifier._close

    def recording(space, state, new):
        states.append(close(space, state, new))
        return states[-1]

    monkeypatch.setattr(verifier, "_close", recording)
    return states


def test_search_states_hold_the_mirrors_of_their_cell_sets(monkeypatch):
    states = recorded_states(monkeypatch)
    for layout, cells, bits, _ in cell_layouts(all_quotas=True):
        del states[:]
        verifier._solutions(layout, 64)
        assert states, (type(layout).__name__, layout.n)
        duals = [(bits[k], bits[d]) for k, d in enumerate(cells.dual_idx)]
        for state in filter(None, states):
            z, o, zd, od = state
            mirrors = [sum(1 << d for k, d in duals if cell_set >> k & 1) for cell_set in (z, o)]
            assert [zd, od] == mirrors, (type(layout).__name__, layout.n, layout.in_rq)


def test_one_layout_answers_each_quota_as_a_fresh_layout_does(monkeypatch):
    # a quota enters a layout only through ``at``, so a layout taken through
    # every quota, down and then up, keeps nothing of the last one; a lower
    # survivor cap keeps the listings short, and its refusals must match too
    monkeypatch.setattr(verifier, "_MAX_SURVIVORS", 1 << 10)

    def outcome(layout, q):
        try:
            found = verifier._survivors(layout, q)
        except GuardError as exc:
            found = str(exc)
        return found, dict(vars(layout))

    cases = [(verifier._AnonymousSpace, n) for n in range(2, 9)]
    for space in (verifier._LiftedSpace, verifier._FullSpace):
        cases += [(space, n) for n in range(2, 5)]
    for (space, n), axioms in itertools.product(cases, itertools.product((True, False), repeat=2)):
        shared = space(n, *axioms)
        for q in [*range(n, -1, -1), *range(n + 1)]:
            fresh = space(n, *axioms)
            assert outcome(shared, q) == outcome(fresh, q), (space.__name__, n, axioms, q)


def test_a_report_names_only_the_quota_rules_cell_sets():
    # a survivor is named by its cell set; any other is labelled by its encoding
    for space in (verifier._FullSpace, verifier._LiftedSpace, verifier._AnonymousSpace):
        layout = space(3, True, True).at(2)
        rule, other = layout.elects_y[X], layout.valid ^ layout.elects_y[X]
        survivors = sorted((layout.encoding(cells), cells) for cells in (rule, other))
        result = verifier._build_result(layout, 2, survivors, 0.0)
        named = {info.encoding: info.pretty for info in result.survivors}
        assert named == {
            layout.encoding(rule): QualifiedMajorityRule(3, 2, X).pretty(),
            layout.encoding(other): f"table@{layout.encoding(other)}",
        }, type(layout).__name__
        assert not result.matches_theorem
        # at an unqualified quota there is no quota rule to name
        layout.at(1)
        survivors = sorted((layout.encoding(cells), cells) for cells in layout.elects_y.values())
        result = verifier._build_result(layout, 1, survivors, 0.0)
        assert [info.pretty for info in result.survivors] == [f"table@{e}" for e, _ in survivors]
        assert not result.matches_theorem


# --- enumeration guard rails ------------------------------------------------


def test_search_cell_cap():
    # full n=9 has 19,683 cells and anonymous n=167 has 14,196, both past 14,000
    with pytest.raises(GuardError, match="anonymous space"):
        enumerate_full(9, 5)
    with pytest.raises(GuardError, match="14,000-cell limit"):
        enumerate_anonymous(167, 84)
    with pytest.raises(GuardError):
        enumerate_full(1, 0)


def test_search_cell_cap_admits_anonymous_n165():
    # anonymous n=165 has 13,861 cells, the most under the cap
    result = enumerate_anonymous(165, 83)
    assert result.matches_theorem and len(result.survivors) == 2


def test_search_guard_refuses_a_huge_n_without_its_cell_count():
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


def test_search_survivor_cap():
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
    # under anonymity alone the count is 2 to the tally classes: 2^21 at n=5
    for n in (5, 8):
        with pytest.raises(GuardError, match="more than 65,536"):
            survivors_full(n, 3, **no_axioms)


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
    enc = TableRule.from_rule(QualifiedMajorityRule(3, 2, X), 3).bits
    cells = reference_profile_cells(3)
    ties, implies = clauses(cells, 2, want_anonymity=True)
    found = _kernels.scan_rules(enc - 512, enc + 512, cells.ncells, ties, implies)
    assert found == [enc]


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


def test_engines_agree_on_the_full_space_n3_with_one_axiom_dropped():
    # with anonymity kept, the search runs on the tally grid, and dropping
    # responsiveness leaves many classes free: 64 survivors at q=2.
    # Responsiveness and anonymity do not depend on q, so one q drops neutrality
    for q in range(4):
        sweep = sweep_survivors(SPACE_FULL, 3, q, want_responsiveness=False)
        assert survivors_full(3, q, use_responsiveness=False) == sweep, q
    sweep = sweep_survivors(SPACE_FULL, 3, 2, want_neutrality=False)
    assert survivors_full(3, 2, use_neutrality=False) == sweep


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


# --- the sweep kernel's block edges ----------------------------------------


def test_kernel_block_edges_match_a_whole_range_scan(monkeypatch):
    # blocks of 4 encodings put block edges inside the windows and all but
    # two cells above the block's bits; each window must give the
    # whole-range scan at the default block, filtered to the window
    scans = []
    for n, cells in ((4, reference_tally_cells(4)), (2, reference_profile_cells(2))):
        for q in range(n + 1):
            for axioms in AXIOM_SUBSETS:
                checks = sweep_checks(axioms)
                table = (cells.ncells, *clauses(cells, q, **checks))
                whole = _kernels.scan_rules(0, 1 << cells.ncells, *table)
                scans.append((1 << cells.ncells, table, checks, whole))
    monkeypatch.setattr(_kernels, "_BLOCK", 4)
    rng = random.Random(20261019)
    for size, table, checks, whole in scans:
        for _ in range(3):
            start = rng.randrange(size)
            stop = min(start + rng.randrange(1, 400), size)
            found = _kernels.scan_rules(start, stop, *table)
            assert found == [e for e in whole if start <= e < stop], (size, checks, start, stop)


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


def anonymous_cell_counts(n):
    return [(nx, ny) for nx in range(n + 1) for ny in range(n + 1 - nx)]


def test_each_space_encodes_the_quota_rules_as_their_cell_counts_do():
    spaces = (
        (verifier._FullSpace, full_cell_counts),
        (verifier._LiftedSpace, full_cell_counts),
        (verifier._AnonymousSpace, anonymous_cell_counts),
    )
    for n in range(1, 7):
        for q in qualified_quotas(n):
            for space, cell_counts in spaces:
                clauses = space(n, True, True).at(q)
                found = sorted(
                    clauses.encoding(clauses.elects_y[rule.reform])
                    for rule in qualified_majority_rules(n, q)
                )
                assert found == quota_rule_encodings(cell_counts(n), q), (space.__name__, n, q)


def test_the_lifted_space_encodes_each_grid_class_as_its_profiles():
    # the full space under anonymity searches the grid and lifts each class
    # to exactly the profiles with that tally
    for n in range(1, 7):
        layout = verifier._LiftedSpace(n, True, True)
        for a, b in tally_classes(n):
            want = sum(
                1 << i
                for i, profile in enumerate(all_profiles(n))
                if counts(profile)[:2] == (a, b)
            )
            assert layout.encoding(1 << a * layout.w + b) == want, (n, a, b)


def test_search_theorem_full_n3_to_n5():
    for n in range(3, 6):
        counts = full_cell_counts(n)
        for q in range(n + 1):
            want = quota_rule_encodings(counts, q) if 2 * q > n else []
            assert survivors_full(n, q) == want, (n, q)
            result = enumerate_full(n, q)
            assert result.rules_examined == 2 ** 3**n
            assert result.matches_theorem


def test_search_theorem_anonymous_n6_to_n20():
    for n in range(6, 21):
        counts = anonymous_cell_counts(n)
        for q in range(n + 1):
            want = quota_rule_encodings(counts, q) if 2 * q > n else []
            assert survivors_anonymous(n, q) == want, (n, q)
            assert enumerate_anonymous(n, q).matches_theorem


def test_search_theorem_full_n8_under_the_plain_cap():
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
    # at the unqualified quotas, none at q = 0, but rules that are not
    # anonymous pass at q >= 1
    for n in range(2, 6):
        assert survivors_full(n, 0, use_anonymity=False) == [], n
    for (n, q), count in {(2, 1): 4, (3, 1): 28, (4, 1): 4000, (4, 2): 16}.items():
        assert len(survivors_full(n, q, use_anonymity=False)) == count, (n, q)


def test_full_n3_theorem_every_quota():
    for q in range(4):
        result = enumerate_full(3, q)
        assert result.rules_examined == 2**27
        assert result.matches_theorem


def test_anonymous_n6_theorem_every_quota():
    for q in range(7):
        result = enumerate_anonymous(6, q)
        assert result.rules_examined == 2**28
        assert result.matches_theorem


def test_responsive_anonymous_rules_are_the_staircases():
    # without q-neutrality the quota reaches no clause, so q = 0 and q = n
    # stand for every q; the search and the staircases share no code
    for n in range(2, 13):
        stairs = list(staircases(n))
        assert len(stairs) == len(set(stairs)) == 2 ** (n + 1), n
        for q in (0, n):
            assert set(survivors_anonymous(n, q, use_neutrality=False)) == set(stairs), (n, q)


def mirror_diffs(n):
    """Each staircase of n voters, with the classes where it elects
    differently on a class (a, b) and on its mirror (b, a), as a bitmask,
    and the mask of R_q for each q: the classes with max(a, b) >= q."""
    classes = tally_classes(n)
    mirror = [tally_class_index(n, b, a) for a, b in classes]
    diffs = {}
    for rule in staircases(n):
        flipped = sum(1 << m for k, m in enumerate(mirror) if rule >> k & 1)
        diffs[rule] = rule ^ flipped
    in_rq = [
        sum(1 << k for k, (a, b) in enumerate(classes) if max(a, b) >= q) for q in range(n + 1)
    ]
    return diffs, in_rq


def test_theorem_through_the_staircases():
    # q-neutrality on tallies: a rule swaps its winner between a class and
    # its mirror on R_q and keeps it off R_q, so the classes where the two
    # differ are exactly R_q; no code is shared with the search
    for n in range(2, 13):
        diffs, in_rq = mirror_diffs(n)
        for q in range(n + 1):
            want = sorted(rule for rule, diff in diffs.items() if diff == in_rq[q])
            assert want == (quota_rule_encodings(tally_classes(n), q) if 2 * q > n else []), (n, q)
            assert survivors_anonymous(n, q) == want, (n, q)


def test_swap_half_at_the_smallest_qualified_quota_counts_central_binomials():
    # The staircase form explains the count C(2q, q). Y wins on a down-set
    # of the classes, ordered by moves toward X. The lowest class with
    # n_x >= q is (q, n - q), and its mirror (n - q, q) lies below it, as
    # n < 2q. Were Y to win anywhere on n_x >= q, it would win at both,
    # which the swap forbids; so X wins wherever n_x >= q and, by the swap,
    # Y wherever n_y >= q: all of R_q is fixed. As n >= 2q - 2, the classes
    # off R_q, n_x < q and n_y < q, form a whole q x q square in the product
    # order; Y may win on any down-set of it, and a q x q grid has C(2q, q)
    # down-sets, one per lattice path across it.
    # The other half of q-neutrality, the same winner off R_q, alone leaves
    # 2^(n+1) rules at q = 0, where R_q is every class, and 2^(n+2-q) at
    # q >= 1. For n <= 8 the search, with the other half's region emptied
    # after ``at(q)``, counts each half as the staircases do.
    for n in range(2, 13):
        diffs, in_rq = mirror_diffs(n)
        for q in range(n + 1):
            swaps = sum(1 for diff in diffs.values() if diff & in_rq[q] == in_rq[q])
            stays = sum(1 for diff in diffs.values() if diff & ~in_rq[q] == 0)
            assert stays == 2 ** (n + 1 if q == 0 else n + 2 - q), (n, q)
            if 2 * q <= n:
                assert swaps == 0, (n, q)
            elif q == n // 2 + 1:
                assert swaps == math.comb(2 * q, q), (n, q)
            if q == n:
                assert swaps == 2 ** (n + 1) - 2, n
            if n == 8 and q >= 5:
                assert swaps == (252, 420, 492, 510)[q - 5], q
            if n <= 8:
                for emptied, count in (("out_rq", swaps), ("in_rq", stays)):
                    layout = verifier._AnonymousSpace(n, True, True).at(q)
                    setattr(layout, emptied, 0)
                    found = verifier._solutions(layout, verifier._MAX_SURVIVORS)
                    assert len(found) == count, (n, q, emptied)


def test_full_n3_theorem_sweep():
    counts = full_cell_counts(3)
    for q in range(4):
        want = quota_rule_encodings(counts, q) if 2 * q > 3 else []
        found = sweep_survivors(SPACE_FULL, 3, q)
        assert found == want, q


def test_anonymous_n6_theorem_sweep():
    counts = anonymous_cell_counts(6)
    for q in range(7):
        want = quota_rule_encodings(counts, q) if 2 * q > 6 else []
        found = sweep_survivors(SPACE_ANONYMOUS, 6, q)
        assert found == want, q
