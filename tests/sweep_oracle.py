"""The sweep oracle: every encoding of a small rule space, tested by
``qmvote._kernels.scan_rules`` against index tables built from the
profile-level operations of ``core``.

The tests compare the verifier's search with it. The search reads the
axioms as masked shifts of bitsets; the tables here are built one
profile at a time from ``dual``, ``responsive_neighbors`` and
``permute``, so the two share no code beyond the profile numbering.
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
    resp_x_indptr: list[int]
    resp_x_targets: list[int]
    trans: list[list[int]]


def _csr(target_lists):
    indptr = [0]
    for targets in target_lists:
        indptr.append(indptr[-1] + len(targets))
    return indptr, [t for targets in target_lists for t in targets]


def reference_profile_cells(n):
    """The full-space tables: one cell per profile, in canonical order."""
    profiles = all_profiles(n)
    support = [max(tally(p).n_x, tally(p).n_y) for p in profiles]
    dual_idx = [dual(p).index for p in profiles]
    xi, xt = _csr([[t.index for t in responsive_neighbors(p, Alternative.X)] for p in profiles])
    trans = [[permute(p, t).index for p in profiles] for t in adjacent_transpositions(n)]
    return Cells(len(profiles), support, dual_idx, xi, xt, trans)


def reference_tally_cells(n):
    """The anonymous-space tables: one cell per tally class, read off one
    representative profile per class."""

    def cell(profile):
        t = tally(profile)
        return tally_class_index(n, t.n_x, t.n_y)

    profiles = [Profile.from_counts(a, b, n - a - b) for a, b in tally_classes(n)]
    support = [max(a, b) for a, b in tally_classes(n)]
    dual_idx = [cell(dual(p)) for p in profiles]
    xi, xt = _csr(
        [list(dict.fromkeys(map(cell, responsive_neighbors(p, Alternative.X)))) for p in profiles]
    )
    return Cells(len(profiles), support, dual_idx, xi, xt, [])


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
    found = scan_rules(
        0,
        1 << cells.ncells,
        [int(s >= q) for s in cells.support],
        cells.dual_idx,
        cells.resp_x_indptr,
        cells.resp_x_targets,
        cells.trans,
        **checks,
    )
    return found.tolist()
