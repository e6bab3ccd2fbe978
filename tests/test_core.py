import itertools

import pytest

from qmvote.core import (
    Alternative,
    Preference,
    Profile,
    Tally,
    adjacent_transpositions,
    all_profiles,
    dual,
    is_qualified,
    meets_quota,
    permute,
    qualified_quotas,
    responsive_neighbors,
    supporters,
    tally,
    _dual_index,
    _voter_masks,
    _x_moves,
)

X, Y = Alternative.X, Alternative.Y
P = Profile.from_string


def test_alternative_other_is_involution():
    assert X.other is Y
    assert Y.other is X
    assert X.other.other is X


def test_preference_is_exactly_three_states():
    assert len(list(Preference)) == 3


def test_profile_needs_a_voter():
    with pytest.raises(ValueError):
        Profile(())


def test_profile_is_immutable_value_type():
    p = P("XYI")
    assert p == Profile((Preference.STRICT_X, Preference.STRICT_Y, Preference.INDIFFERENT))
    assert hash(p) == hash(P("XYI"))
    with pytest.raises(AttributeError):
        p.voters = ()


def test_profile_string_round_trip():
    for text in ["X", "YI", "XYI", "IIXYX"]:
        assert P(text).to_string() == text
    with pytest.raises(ValueError):
        P("XZ")


def test_canonical_index_voter0_least_significant():
    assert P("XYI").index == 0 + 1 * 3 + 2 * 9
    assert P("YXX").index == 1
    assert Profile.from_index(3, 21) == P("XYI")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_round_trip(n):
    for i in range(3**n):
        assert Profile.from_index(n, i).index == i
    with pytest.raises(ValueError):
        Profile.from_index(n, 3**n)


def test_all_profiles_in_index_order():
    profiles = all_profiles(3)
    assert len(profiles) == 27
    assert [p.index for p in profiles] == list(range(27))
    assert len(set(profiles)) == 27


def test_tally_direct_counts():
    assert tally(P("XYI")) == Tally(1, 1, 1)
    assert tally(P("XX")) == Tally(2, 0, 0)
    assert tally(P("XYI")).n == 3


def test_tally_of_dual_swaps_strict_counts():
    for p in all_profiles(3):
        t = tally(p)
        assert tally(dual(p)) == Tally(t.n_y, t.n_x, t.n_ind)


def test_supporters():
    assert supporters(P("XYI"), X) == frozenset({0})
    assert supporters(P("II"), X) == frozenset()
    for p in all_profiles(3):
        assert not supporters(p, X) & supporters(p, Y)
        assert len(supporters(p, X)) == tally(p).n_x


def test_permute_swap_and_identity():
    assert permute(P("XY"), (1, 0)) == P("YX")
    p = P("XYI")
    assert permute(p, (0, 1, 2)) == p


def test_permute_semantics_voter_i_takes_perm_i():
    # voter 0 of the result holds voter 2's preference
    assert permute(P("XYI"), (2, 0, 1)) == P("IXY")


def test_permute_inverse_round_trip():
    p = P("XYIIY")
    for perm in itertools.permutations(range(5)):
        inverse = [0] * 5
        for i, j in enumerate(perm):
            inverse[j] = i
        assert permute(permute(p, perm), inverse) == p


def test_permute_rejects_non_bijections():
    with pytest.raises(ValueError):
        permute(P("XY"), (0, 0))
    with pytest.raises(ValueError):
        permute(P("XY"), (0, 2))
    with pytest.raises(ValueError):
        permute(P("XY"), (0,))


def test_permutation_invariance_of_tally():
    p = P("XXYI")
    for perm in itertools.permutations(range(4)):
        assert tally(permute(p, perm)) == tally(p)


def test_dual_examples():
    assert dual(P("XIY")) == P("YIX")
    assert dual(P("III")) == P("III")
    assert dual(dual(P("XXYI"))) == P("XXYI")


def test_dual_commutes_with_permute():
    p = P("XYII")
    for perm in itertools.permutations(range(4)):
        assert dual(permute(p, perm)) == permute(dual(p), perm)


def test_dual_index_swaps_the_digits_of_a_profile_index():
    for n in range(1, 8):
        for p in range(3**n):
            assert _dual_index(n, p) == dual(Profile.from_index(n, p)).index, (n, p)


def test_is_qualified_exact_arithmetic():
    assert is_qualified(2, 3)
    assert is_qualified(2, 2)
    assert not is_qualified(1, 2)
    assert not is_qualified(2, 4)  # ties at exactly half must not qualify
    assert not is_qualified(4, 9)
    assert not is_qualified(5, 4)  # above n is not a quota at all
    assert list(qualified_quotas(4)) == [3, 4]
    assert list(qualified_quotas(5)) == [3, 4, 5]


def test_meets_quota():
    assert meets_quota(P("XXI"), 2)
    assert meets_quota(P("XYI"), 0)
    assert not meets_quota(P("III"), 1)
    assert meets_quota(dual(P("XXI")), 2)
    with pytest.raises(ValueError):
        meets_quota(P("XY"), 3)
    with pytest.raises(ValueError):
        meets_quota(P("XY"), -1)


def test_neighbors_single_voter():
    # a lone opponent can move to indifferent or cross over entirely
    assert set(responsive_neighbors(P("Y"), X)) == {P("I"), P("X")}


def test_neighbors_none_when_everyone_already_strict_for_winner():
    assert responsive_neighbors(P("XX"), X) == ()


def eq3_displacement_oracle(profile, winner):
    """Brute-force neighbor set: filter every profile by the definition.

    A neighbor differs at exactly one voter i, who weakly preferred the
    loser in the original and weakly prefers the winner afterwards.
    """
    loser = winner.other
    found = set()
    for cand in all_profiles(profile.n):
        if cand == profile:
            continue
        moved = [i for i in range(profile.n) if cand.voters[i] != profile.voters[i]]
        if len(moved) != 1:
            continue
        i = moved[0]
        if profile.voters[i].weakly_prefers(loser) and cand.voters[i].weakly_prefers(winner):
            found.add(cand)
    return found


def test_neighbors_match_displacement_oracle_on_worked_example():
    got = responsive_neighbors(P("IY"), X)
    assert list(got) == [P("XY"), P("II"), P("IX")]
    assert set(got) == eq3_displacement_oracle(P("IY"), X)
    assert set(got) == {P("XY"), P("II"), P("IX")}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_neighbors_match_displacement_oracle_exhaustively(n):
    for p in all_profiles(n):
        for winner in (X, Y):
            assert set(responsive_neighbors(p, winner)) == eq3_displacement_oracle(p, winner)


def voter_moves(profile, winner, i):
    """Voter i's moves toward ``winner`` from ``profile``, in canonical order."""
    return [t for t in responsive_neighbors(profile, winner) if t.voters[i] != profile.voters[i]]


def test_move_table_reads_the_profile_level_moves_both_ways():
    # each row of _x_moves, read forwards, is voter i's move-th move toward
    # X, and backwards, voter i's move-th move toward Y; the rows list every
    # move toward X once, in canonical witness order at each profile
    for n in range(1, 5):
        order = {p: [] for p in range(3**n)}
        for held, k, i, move in _x_moves(n, _voter_masks(n)):
            for p in order:
                if held >> p & 1:
                    at, to = Profile.from_index(n, p), Profile.from_index(n, p + k)
                    assert voter_moves(at, X, i)[move] == to, (n, p, i, move)
                    assert voter_moves(to, Y, i)[move] == at, (n, p, i, move)
                    order[p].append((i, move))
        for p, rows in order.items():
            assert rows == sorted(rows), (n, p)
            assert len(rows) == len(responsive_neighbors(Profile.from_index(n, p), X)), (n, p)


def test_neighbor_tally_moves():
    allowed = {(1, -1, 0), (1, 0, -1), (0, -1, 1)}
    for p in all_profiles(3):
        for winner in (X, Y):
            t = tally(p)
            base = (t.count_for(winner), t.count_for(winner.other), t.n_ind)
            for nb in responsive_neighbors(p, winner):
                tn = tally(nb)
                delta = (
                    tn.count_for(winner) - base[0],
                    tn.count_for(winner.other) - base[1],
                    tn.n_ind - base[2],
                )
                assert delta in allowed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_equal_tallies_iff_permutation_of_each_other(n):
    profiles = all_profiles(n)
    for a in profiles:
        sorted_a = tuple(sorted(a.voters))
        for b in profiles:
            same_tally = tally(a) == tally(b)
            is_rearrangement = sorted_a == tuple(sorted(b.voters))
            assert same_tally == is_rearrangement


def test_adjacent_transpositions():
    assert adjacent_transpositions(2) == ((1, 0),)
    assert adjacent_transpositions(4) == ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))
    assert adjacent_transpositions(1) == ()


def test_memoized_operations_have_bounded_caches():
    for cached in (tally, dual, all_profiles):
        assert cached.cache_info().maxsize is not None, cached.__name__
    # the per-profile caches hold all of n=9, the largest profile walk
    assert tally.cache_info().maxsize >= 3**9
