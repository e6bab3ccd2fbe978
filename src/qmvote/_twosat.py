"""Rule-space search as 2-SAT.

Every axiom instance is a binary clause over cell bits (bit k is the
winner at cell k, 0 = X, 1 = Y), so the rules passing the axioms are
exactly the solutions of a 2-CNF. A literal ``2*k + v`` stands for
"bit k equals v"; its negation is ``literal ^ 1``. The responsiveness and
anonymity clauses do not depend on the quota, so they are held as one
implication graph per space and n, each clause ``a or b`` as the two
edges ``not a => b`` and ``not b => a``, and every quota's search shares
it. q-neutrality stores no edges: each literal has exactly one
neutrality edge, which the search looks up from the dual and support
columns and the quota as it propagates.

Solutions are enumerated by branching on the highest free bit, 0 before
1, and propagating its implications, so they come out in ascending
encoding order. The first descent also decides satisfiability: a
satisfiable formula never reaches a free bit that takes neither value
(Even, Itai & Shamir 1976), so the first such bit proves the formula
unsatisfiable, and the delay between two solutions is polynomial.
"""

from __future__ import annotations

from typing import Optional, Sequence


def implications(cells, *, responsiveness: bool, anonymity: bool) -> list[list[int]]:
    """The quota-independent implication graph of the selected axioms over
    ``cells``: the literals each literal forces, contrapositives included."""
    implied: list[list[int]] = [[] for _ in range(2 * cells.ncells)]

    def imply(a: int, b: int) -> None:
        implied[a].append(b)
        implied[b ^ 1].append(a ^ 1)

    for k in range(cells.ncells):
        if responsiveness:
            # bit k = 0 => bit t = 0 for each X-ward t; the contrapositive
            # bit t = 1 => bit k = 1 is the Y-ward move from t back to k,
            # so the X-ward moves give every responsiveness clause
            for j in range(cells.resp_x_indptr[k], cells.resp_x_indptr[k + 1]):
                imply(2 * k, 2 * cells.resp_x_targets[j])
        if anonymity:
            for row in cells.trans:
                t = row[k]
                if k < t:  # bit k = bit t, once per swapped pair
                    imply(2 * k, 2 * t)
                    imply(2 * k + 1, 2 * t + 1)
    return implied


def solutions(
    implied: list[list[int]],
    limit: int,
    *,
    dual: Optional[Sequence[int]] = None,
    support: Sequence[int] = (),
    q: int = 0,
) -> list[int]:
    """Encodings of the formula's solutions, ascending, stopping once
    ``limit`` have been found; empty when it is unsatisfiable.

    The formula is ``implied``, plus, when ``dual`` is given, q-neutrality:
    bit k = v forces bit ``dual[k]`` = v xor (``support[k]`` >= q). ``dual``
    must be an involution and ``support`` constant on its pairs; then the
    edge out of the dual cell is the contrapositive, so this one lookup
    covers both directions of each clause. ``implied`` is only read."""
    nbits = len(implied) // 2
    # a bit that is its own dual inside R_q is forced to its own negation
    if dual is not None and any(d == k and support[k] >= q for k, d in enumerate(dual)):
        return []
    value = [-1] * nbits
    trail: list[int] = []

    def assign(literal: int) -> bool:
        """Set a literal and all it implies; False on a conflict."""
        todo = [literal]
        while todo:
            literal = todo.pop()
            bit, v = literal >> 1, literal & 1
            if value[bit] == v:
                continue
            if value[bit] >= 0:
                return False
            value[bit] = v
            trail.append(bit)
            todo.extend(implied[literal])
            if dual is not None:
                todo.append(2 * dual[bit] + (v ^ (support[bit] >= q)))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            value[trail.pop()] = -1

    def branch(bit: int, v: int) -> bool:
        """Try bit = v, then bit = 1 when v is 0; record the open choice."""
        mark = len(trail)
        for v in range(v, 2):
            if assign(2 * bit + v):
                choices.append((bit, mark, v))
                return True
            undo(mark)
        return False

    found: list[int] = []
    choices: list[tuple[int, int, int]] = []  # (bit, trail mark, value taken)
    bit = nbits - 1
    while len(found) < limit:
        while bit >= 0 and value[bit] >= 0:
            bit -= 1
        if bit >= 0:
            if branch(bit, 0):
                continue
            # the assignment so far is closed and conflict-free, so the clauses
            # left over are original ones over free bits (Even, Itai & Shamir):
            # only an unsatisfiable formula reaches a bit that takes neither value
            return []
        found.append(int("".join("01"[v] for v in reversed(value)), 2))
        # back up to the latest choice that can still take the value 1
        while choices:
            bit, mark, v = choices.pop()
            undo(mark)
            if v == 0 and branch(bit, 1):
                break
        else:
            break
    return found
