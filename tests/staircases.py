"""The staircase oracle: every responsive anonymous rule, listed by
construction, with no search and no sweep.

Write c = n - n_y for a tally class (n_x, n_y). The classes are then the
cells (n_x, c) of the triangle 0 <= n_x <= c <= n. One voter's move
toward X takes (a, c) to (a + 1, c) (indifferent to X, open when
a < c), to (a, c + 1) (Y to indifferent, open when c < n) or to
(a + 1, c + 1) (Y to X, the second move and then the first). The first
two are the covers of the product order on the triangle, so the moves
toward X generate that order. A rule on tallies is responsive when X
keeps winning after any move toward X and Y after any move toward Y; a
move toward Y is a move toward X taken backwards, so both ask the same:
the set D of cells where Y wins is a down-set of the triangle. Any
(a', c') <= (a, c) is reached from (a, c) inside the triangle by
lowering a to a', then c to c'.

Down-sets are staircases. Column a of D is the set of c with (a, c) in
D; being down-closed in c, it is an interval [a, h(a)] when not empty.
If (a, a) is in D, so is (a - 1, a - 1), so the nonempty columns are
0..k-1 for some k in 0..n+1. If (a, h(a)) is in D, so is
(a - 1, h(a)), so h(0) >= ... >= h(k-1), and h(k-1) >= k - 1 because
column k - 1 holds (k - 1, k - 1). So every height lies in [k - 1, n].
Conversely, take any k in 0..n+1 and any non-increasing heights in
[k - 1, n], and let D hold the (a, c) with a < k and a <= c <= h(a).
Each column is nonempty, as h(a) >= k - 1 >= a. D is a down-set: if
(a', c') <= (a, c) with (a, c) in D, then a' <= a < k and
a' <= c' <= c <= h(a) <= h(a'). Its k and heights read back as the
ones given. So the responsive anonymous rules are in bijection with the pairs
(k, heights). For each k there are C(n + 1, k) such height lists,
multisets of size k from n - k + 2 values, so 2^(n+1) rules in all.

The encodings are built on ``rules.tally_class_index`` alone, so the
oracle shares nothing with the verifier's search but the class order.
"""

from itertools import combinations_with_replacement

from qmvote.rules import tally_class_index


def staircases(n):
    """The anonymous encoding of every responsive rule on n voters, one per
    (k, non-increasing heights in [k - 1, n]): Y wins on class (n_x, n_y)
    iff n_x < k and n - n_y <= h(n_x)."""
    for k in range(n + 2):
        # descending values make each combination non-increasing
        for heights in combinations_with_replacement(range(n, k - 2, -1), k):
            yield sum(
                1 << tally_class_index(n, a, n - c)
                for a, h in enumerate(heights)
                for c in range(a, h + 1)
            )
