"""Rule-space search as 2-SAT.

Every axiom instance is a binary clause over cell bits (bit k is the
winner at cell k, 0 = X, 1 = Y), so the rules passing the axioms are
exactly the solutions of a 2-CNF. A literal ``2*k + v`` stands for
"bit k equals v"; its negation is ``literal ^ 1``. The formula is held as
an implication graph, each clause ``a or b`` as the two edges
``not a => b`` and ``not b => a``.

Satisfiability is decided by strongly connected components of that graph
(Aspvall, Plass & Tarjan 1979): the formula is unsatisfiable iff some
bit shares a component with its negation. Solutions of a satisfiable
formula are then enumerated by branching on the highest free bit, 0
before 1, and propagating its implications. When propagation ends
without a conflict, the clauses left over mention only free bits and are
a subset of the original satisfiable clauses, so no branch dead-ends
below that point (Even, Itai & Shamir 1976): the delay between two
solutions is polynomial, and solutions come out in ascending encoding
order.
"""

from __future__ import annotations


def implications(
    cells, in_rq, *, neutrality: bool, responsiveness: bool, anonymity: bool
) -> list[list[int]]:
    """The implication graph of the selected axioms over ``cells``: the
    literals each literal forces, contrapositives included."""
    implied: list[list[int]] = [[] for _ in range(2 * cells.ncells)]

    def imply(a: int, b: int) -> None:
        implied[a].append(b)
        implied[b ^ 1].append(a ^ 1)

    for k in range(cells.ncells):
        if neutrality and k <= cells.dual_idx[k]:
            # bit k = v  =>  bit (dual k) = v xor in_rq[k]
            d, flip = cells.dual_idx[k], in_rq[k]
            imply(2 * k, 2 * d + flip)
            imply(2 * k + 1, 2 * d + 1 - flip)
        if responsiveness:
            # bit k = 0 => bit t = 0 for each X-ward t; the contrapositive
            # bit t = 1 => bit k = 1 is the Y-ward move from t back to k,
            # so the Y-ward table adds no further clause
            for j in range(cells.resp_x_indptr[k], cells.resp_x_indptr[k + 1]):
                imply(2 * k, 2 * cells.resp_x_targets[j])
        if anonymity:
            for row in cells.trans:
                t = row[k]
                if k < t:  # bit k = bit t, once per swapped pair
                    imply(2 * k, 2 * t)
                    imply(2 * k + 1, 2 * t + 1)
    return implied


def satisfiable(implied: list[list[int]]) -> bool:
    """False iff some literal and its negation imply each other, found with
    an iterative Tarjan pass over the implication graph."""
    count = len(implied)
    order = [-1] * count
    low = [0] * count
    comp = [-1] * count
    stack: list[int] = []
    seen = components = 0
    for root in range(count):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, iter(implied[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if order[nxt] < 0:
                    order[nxt] = low[nxt] = seen
                    seen += 1
                    stack.append(nxt)
                    work.append((nxt, iter(implied[nxt])))
                    break
                if comp[nxt] < 0 and order[nxt] < low[node]:  # nxt is still on the stack
                    low[node] = order[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == order[node]:
                    while True:
                        member = stack.pop()
                        comp[member] = components
                        if member == node:
                            break
                    components += 1
    return all(comp[lit] != comp[lit + 1] for lit in range(0, count, 2))


def solutions(implied: list[list[int]], limit: int) -> list[int]:
    """Encodings of a satisfiable formula's solutions, ascending, stopping
    once ``limit`` have been found."""
    nbits = len(implied) // 2
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
        if bit >= 0 and branch(bit, 0):
            continue
        if bit < 0:
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


def solve(
    cells, in_rq, *, neutrality: bool, responsiveness: bool, anonymity: bool, limit: int
) -> list[int]:
    """Encodings of the rules over ``cells`` passing the selected axioms,
    ascending; at most ``limit`` of them."""
    implied = implications(
        cells, in_rq, neutrality=neutrality, responsiveness=responsiveness, anonymity=anonymity
    )
    return solutions(implied, limit) if satisfiable(implied) else []
