"""Rule-space scan kernel, which the tests' sweep oracle runs.

A rule is an integer whose bit k is the winner at cell k (0 = X, 1 = Y):
a canonical profile index in the full space, a lexicographic tally class
in the anonymous space. The kernel tests 2-CNF clauses over those bits
and is bit-sliced (Biham, FSE 1997): it sweeps aligned blocks of
``_BLOCK`` encodings, and in a block column k is one int whose bit e is
cell k's bit in encoding base + e, so each clause is one Boolean
expression of two columns over the whole block.

The verifier never imports this module. The tests' sweep oracle
(``tests/sweep_oracle.py``) builds the clauses of each axiom from the
profile-level operations and tests every encoding of a small space with
them. ``scan_rules`` runs in one thread and has no size guard, so its
caller picks a size that fits. It stays in the package because the
benchmark's trace hook wraps it here by name.
"""

from __future__ import annotations

_BLOCK = 1 << 20


def scan_rules(start: int, stop: int, ncells: int, ties, implies) -> list[int]:
    """Encodings of ``ncells`` cells in [start, stop) that satisfy every
    clause, ascending. A tie (a, b, same) asks cells a and b for equal
    bits when ``same`` and for different ones otherwise; an implication
    (a, b) forbids X at a with Y at b."""
    bits = min(_BLOCK.bit_length() - 1, ncells)
    size = 1 << bits
    full = (1 << size) - 1
    # the columns k < bits, grown by doubling: the new column k is 2^k
    # zeros, then 2^k ones, and the columns below it repeat
    low = []
    for k in range(bits):
        low = [c | c << (1 << k) for c in low] + [((1 << (1 << k)) - 1) << (1 << k)]
    found = []
    for base in range(start >> bits << bits, stop, size):
        # the block's encodings in [start, stop)
        keep = (1 << min(stop - base, size)) - (1 << max(start - base, 0))
        col = low + [full if base >> k & 1 else 0 for k in range(bits, ncells)]
        neg = [full ^ c for c in col]
        for a, b, same in ties:
            keep &= col[a] ^ (neg[b] if same else col[b])
        for a, b in implies:
            keep &= col[a] | neg[b]
        # character e of the reversed binary string is bit e
        found += [base + e for e, c in enumerate(format(keep, "b")[::-1]) if c == "1"]
    return found
