"""The sweep oracle: every encoding of a small rule space, tested by
``qmvote._kernels.scan_rules`` against clauses built from the
profile-level operations of ``core``.

The tests compare the verifier's search with it. The search reads the
axioms as closures of bitsets; the tables here are built one profile at
a time from ``dual``, ``responsive_neighbors`` and ``permute``, so the
two share no code beyond the profile numbering. The tables also give
the tests the cells each profile-level operation reaches, against which
they check the search's layouts. The kernel tests 2^20 encodings at once
as bit-sliced ints, with the standard library alone, so the largest
sweeps, full n=3 (2^27 rules) and anonymous n=6 (2^28), take seconds.
"""

from typing import NamedTuple

from qmvote._kernels import scan_rules
from qmvote.core import (
    Alternative,
    Profile,
    adjacent_transpositions,
    all_profiles,
    dual,
    permute,
    responsive_neighbors,
    tally,
)
from qmvote.rules import tally_class_index, tally_classes
from qmvote.verifier import SPACE_FULL


class Cells(NamedTuple):
    ncells: int
    support: list[int]  # max(n_x, n_y): the cell lies in R_q iff support >= q
    dual_idx: list[int]
    x_targets: list[list[int]]  # per cell, the cells one move toward X away
    y_targets: list[list[int]]  # the same toward Y
    trans: list[list[int]]


def reference_profile_cells(n):
    """The full-space tables: one cell per profile, in canonical order."""
    profiles = all_profiles(n)
    support = [max(tally(p).n_x, tally(p).n_y) for p in profiles]
    dual_idx = [dual(p).index for p in profiles]
    targets = [
        [[t.index for t in responsive_neighbors(p, winner)] for p in profiles]
        for winner in (Alternative.X, Alternative.Y)
    ]
    trans = [[permute(p, t).index for p in profiles] for t in adjacent_transpositions(n)]
    return Cells(len(profiles), support, dual_idx, *targets, trans)


def reference_tally_cells(n):
    """The anonymous-space tables: one cell per tally class, read off one
    representative profile per class."""

    def cell(profile):
        t = tally(profile)
        return tally_class_index(n, t.n_x, t.n_y)

    profiles = [Profile.from_counts(a, b, n - a - b) for a, b in tally_classes(n)]
    support = [max(a, b) for a, b in tally_classes(n)]
    dual_idx = [cell(dual(p)) for p in profiles]
    targets = [
        [list(dict.fromkeys(map(cell, responsive_neighbors(p, winner)))) for p in profiles]
        for winner in (Alternative.X, Alternative.Y)
    ]
    return Cells(len(profiles), support, dual_idx, *targets, [])


def clauses(cells, q, want_neutrality=True, want_responsiveness=True, want_anonymity=False):
    """The selected axioms at quota q as the kernel's clauses (ties,
    implies), each pair of cells once.

    Responsiveness is read off the moves toward X alone. Moving voter i
    from profile p toward X gives t exactly when moving voter i from t
    toward Y gives p back, so a rule breaks the Y-ward instance (Y wins at
    t, X at p) exactly when it breaks the X-ward one from p."""
    ties, implies = set(), set()
    if want_neutrality:
        # the winner at the dual is the same outside R_q and swapped inside
        outside = [s < q for s in cells.support]
        ties.update((min(k, d), max(k, d), outside[k]) for k, d in enumerate(cells.dual_idx))
    if want_responsiveness:
        implies.update((k, t) for k, targets in enumerate(cells.x_targets) for t in targets)
    if want_anonymity:
        ties.update((min(k, t), max(k, t), True) for row in cells.trans for k, t in enumerate(row))
    return ties, implies


def sweep_survivors(space, n, q, **checks):
    """Encodings of the rules of ``space`` at n voters passing the checks
    selected by ``want_neutrality``, ``want_responsiveness`` and
    ``want_anonymity``, ascending, found by testing every encoding. Every
    check is on by default, except anonymity in the anonymous space, where
    it always holds. No size guard: the caller picks a size that fits."""
    if not 0 <= q <= n:
        raise ValueError(f"quota must lie in 0..{n}, got {q}")
    cells = reference_profile_cells(n) if space == SPACE_FULL else reference_tally_cells(n)
    checks = {"want_anonymity": space == SPACE_FULL, **checks}
    return scan_rules(0, 1 << cells.ncells, cells.ncells, *clauses(cells, q, **checks))
