"""Exact WPMS optimum by exhaustive enumeration, for small instances only.

Assignments are the integers 0..2^n-1 (bit v-1 holds the value of
variable v), and a set of assignments is a Python int used as a bitset:
bit a stands for assignment a. A clause's falsified set is the AND of its
literals' false sets. The objective is kept as bit planes (plane b holds
the assignments whose objective has bit b set); each soft weight is added
by a ripple-carry over the planes.
"""
from __future__ import annotations

from .formula import INF, Formula

MAX_ORACLE_VARS = 24


class TooManyVariables(ValueError):
    pass


def brute_force_opt(f: Formula):
    """Minimum cost over all assignments, with one minimizing witness.

    Returns (cost, values) where values is a 0/1 list indexed by variable
    (slot 0 unused), or (inf, None) when no feasible assignment exists.
    The witness is deterministic: the feasible minimizer with the smallest
    assignment index.
    """
    n = f.num_vars
    if n > MAX_ORACLE_VARS:
        raise TooManyVariables(f"{n} variables exceed the enumeration cap of {MAX_ORACLE_VARS}")
    size = 1 << n
    full = (1 << size) - 1
    truth = [0]  # truth[v]: the assignments with v true, by doubling a pattern
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        pattern, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            pattern |= pattern << period
            period *= 2
        truth.append(pattern)

    def falsified(lits) -> int:
        out = full
        for lit in lits:
            out &= ~truth[lit] if lit > 0 else truth[-lit]
        return out

    feasible = 0 if f.has_empty_hard else full
    for lits in f.hard:
        feasible &= ~falsified(lits)
    if not feasible:
        return INF, None

    # Every objective fits in as many planes as the total soft weight needs.
    planes = [0] * sum(f.soft_weights).bit_length()
    for lits, w in zip(f.soft, f.soft_weights):
        members = falsified(lits) & feasible
        carry = b = 0
        while w or carry:
            plane = planes[b]
            if w & 1:
                half_sum = plane ^ members
                planes[b] = half_sum ^ carry
                carry = (plane & members) | (carry & half_sum)
            else:
                planes[b] = plane ^ carry
                carry &= plane
            w >>= 1
            b += 1

    # Narrow to the minimizers from the top plane down; keep the lowest.
    best, cost = feasible, 0
    for b in reversed(range(len(planes))):
        zero = best & ~planes[b]
        if zero:
            best = zero
        else:
            cost |= 1 << b
    index = (best & -best).bit_length() - 1
    return f.soft_base + cost, [0] + [(index >> (v - 1)) & 1 for v in range(1, n + 1)]
