"""Rule-space scan kernel: the sweep oracle.

One vectorized numpy kernel serves both rule spaces: a rule is an
integer whose bit k is the winner at cell k (0 = X, 1 = Y), where cells
are canonical profile indices in the full space and lexicographic tally
classes in the anonymous space. Encodings are swept in fixed-size
chunks; within a chunk the checks run as whole-array masks
(preference-reversal pairing, then single-voter moves, then adjacent
transpositions).

The verifier decides every call with its 2-SAT search and never imports
this module: ``sweep_survivors`` is only the oracle the tests compare
that search with. It runs in one thread and has no size guard, so its
caller picks a size that fits. It stays in the package, next to
``scan_rules``, because the benchmark's trace hook wraps ``scan_rules``
here by name.
"""

from __future__ import annotations

import numpy as np

from .verifier import SPACE_FULL, _checked_cells

_CHUNK = 1 << 14


def scan_rules(
    start: int,
    stop: int,
    in_rq,
    dual_idx,
    resp_x_indptr,
    resp_x_targets,
    resp_y_indptr,
    resp_y_targets,
    trans,
    want_neutrality: bool = True,
    want_responsiveness: bool = True,
    want_anonymity: bool = False,
) -> np.ndarray:
    """Encodings in [start, stop) passing the selected checks, ascending.

    The tables may be lists or arrays of cell indices.
    """
    dual_idx = np.asarray(dual_idx, dtype=np.int64)
    resp_x_targets = np.asarray(resp_x_targets, dtype=np.int64)
    resp_y_targets = np.asarray(resp_y_targets, dtype=np.int64)
    trans = np.asarray(trans, dtype=np.int64)
    ncells = dual_idx.shape[0]
    certain = np.asarray(in_rq, dtype=bool)
    shifts = np.arange(ncells, dtype=np.int64)
    found = []
    for lo in range(start, stop, _CHUNK):
        hi = min(stop, lo + _CHUNK)
        enc = np.arange(lo, hi, dtype=np.int64)
        bits = ((enc[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        keep = np.ones(enc.shape[0], dtype=bool)
        if want_neutrality:
            mirrored = bits[:, dual_idx]
            bad = np.where(certain[None, :], mirrored == bits, mirrored != bits)
            keep &= ~bad.any(axis=1)
        if want_responsiveness:
            for k in range(ncells):
                x_here = bits[:, k] == 0
                for j in range(resp_x_indptr[k], resp_x_indptr[k + 1]):
                    keep &= ~(x_here & (bits[:, resp_x_targets[j]] == 1))
                for j in range(resp_y_indptr[k], resp_y_indptr[k + 1]):
                    keep &= ~(~x_here & (bits[:, resp_y_targets[j]] == 0))
        if want_anonymity:
            for i in range(trans.shape[0]):
                keep &= (bits == bits[:, trans[i]]).all(axis=1)
        found.append(enc[keep])
    if not found:
        return np.empty(0, np.int64)
    return np.concatenate(found)


def sweep_survivors(space: str, n: int, q: int, **checks: bool) -> list[int]:
    """Encodings of the rules of ``space`` at n voters passing the checks
    selected by ``want_neutrality``, ``want_responsiveness`` and
    ``want_anonymity``, ascending, found by testing every encoding. Every
    check is on by default, except anonymity in the anonymous space, where
    it always holds."""
    cells = _checked_cells(space, n, q)
    checks = {"want_anonymity": space == SPACE_FULL, **checks}
    found = scan_rules(
        0,
        1 << cells.ncells,
        [int(s >= q) for s in cells.support],
        cells.dual_idx,
        cells.resp_x_indptr,
        cells.resp_x_targets,
        cells.resp_y_indptr,
        cells.resp_y_targets,
        cells.trans,
        **checks,
    )
    return found.tolist()
