"""Polynomial-time existence decision for an appropriate sequential mechanism.

The path criterion runs on packed lanes of the lattice's willing ranks: each
layer is one Python int with a lane per ones-count, so the max over a state's
two parents, the per-bound indicator and the end-layer test are a few big-int
operations per layer instead of one Python step per state (the SWAR technique
of Lamport, "Multiple byte processing with full-word instructions", CACM
1975). Only `_lanes` knows the lane format, and it packs afresh on each call,
reading the live states off the lanes' sign bits. A rank bound that no path
can break gets no pass, and when no bound is left nothing is packed.
`oracle.per_bound_verdict` keeps the per-state list DP, every bound passed, as
the reference.
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple

from .model import InfoState, ProblemInstance
from .pivotal import StateLattice

REASON_TRIVIAL = "trivial"
REASON_C_UNDEFINED = "c_undefined_at"
REASON_PIGEONHOLE = "pigeonhole_path"


class Witness(NamedTuple):
    """A root-to-end path packing more than `violating_rank` cheap decision points."""

    path: tuple[InfoState, ...]
    violating_rank: int
    count: int


class Verdict(NamedTuple):
    exists: bool
    reason: str | None
    undefined_at: InfoState | None = None
    witness: Witness | None = None


def _lanes(lattice: StateLattice) -> tuple[int, list[int], list[int]]:
    """(width, ranks, live): the lattice in lanes of `width` bits, lane k for
    state (i, k), in the narrowest signed `array` typecode with n + 2 below
    its top bit, so that no lane value carries into the next. A packed rank
    row has the top bit set in exactly the lanes of its determined states,
    where the mark is negative: live[i] is all ones in the other lanes, and
    ranks[i] keeps layer i's willing ranks there and 0 elsewhere.
    """
    n = len(lattice.rank)
    code = next(code for code in "bhiq" if n + 2 < 1 << (8 * array(code).itemsize - 1))
    width = 8 * array(code).itemsize
    mask = (1 << width) - 1
    high = ((1 << (n * width)) - 1) // mask << (width - 1)
    packed = [int.from_bytes(array(code, row), sys.byteorder) for row in lattice.rank]
    live = [(((high >> ((n - 1 - i) * width)) & ~row) >> (width - 1)) * mask for i, row in enumerate(packed)]
    ranks = [row & alive for row, alive in zip(packed, live)]
    return width, ranks, live


def exists_appropriate(instance: ProblemInstance) -> Verdict:
    """Decide whether some sequential mechanism computes the function in equilibrium.

    Empty reduced graph (constant function): trivially yes. A state where no
    agent is willing to compute: no, naming the first such state in (i, k)
    order, the first willing rank of 0 in the rank rows (a determined state
    holds ~z < 0), read before any lane is packed. Otherwise, no iff for some
    end node and some rank bound j a root-to-end path carries more than j
    nodes whose willing rank is at most j; only j distinct agents that cheap
    exist, so one of those decision points would be left to an unwilling
    agent. The witness is the smallest such end node at its smallest j, on
    the path that breaks ties toward the parent (i-1, k-1).

    A path holds one state per layer, so at bound j it counts at most U(j),
    the number of layers whose cheapest live willing rank is at most j, and
    only a willing rank j with j < U(j) gets a pass of `rows`, O(n) big-int
    operations on n-lane integers; a skipped bound violates at no end node.
    With no such bound the answer is yes and no lane is packed. The scan
    stops once the first end node violates.
    """
    lattice = instance.lattice
    if lattice.rank[0][0] < 0:
        return Verdict(True, REASON_TRIVIAL)
    distinct = []  # each layer's distinct rank values
    for i, row in enumerate(lattice.rank):
        distinct.append(set(row))
        if 0 in distinct[-1]:
            return Verdict(False, REASON_C_UNDEFINED, undefined_at=InfoState(i, row.index(0)))
    willing = {c for c in set().union(*distinct) if c >= 0}  # the live states' willing ranks
    # The counts only change where j crosses a willing rank, so the smallest
    # violating j of any end node is one of those ranks, and a path of n
    # states breaks no bound j >= n. The root is live and a live state has a
    # live child, so every layer has a cheapest live rank, and with those
    # sorted, U(j) > j for j < n iff the (j+1)-th smallest is at most j.
    bounds = sorted(j for j in willing if j < instance.n)
    if bounds:
        cheapest = sorted(map(min, map(willing.intersection, distinct)))
        bounds = [j for j in bounds if cheapest[j] <= j]
    if not bounds:
        return Verdict(True, None)
    width, ranks, live = _lanes(lattice)
    mask = (1 << width) - 1
    ones = ((1 << (instance.n * width)) - 1) // mask  # 1 in every lane
    high = ones << (width - 1)

    def rows(rank_bound: int) -> list[int]:
        """The path DP at one rank bound: lane k of layer i is one more than
        the largest number of states with willing rank at most `rank_bound`
        on a path from (0, 0) to (i, k), and 0 at a determined state.

        Each layer takes the lane-wise max of its two parents, (i-1, k-1) in
        the previous row shifted up one lane and (i-1, k) in place: a
        subtraction with the top bit of every lane set leaves that bit set
        exactly where the shifted parent is at least the other.
        """
        out = []
        at_most = (rank_bound * ones) | high
        row = 1  # a virtual parent of count 0 above the root
        for packed, alive in zip(ranks, live):
            shifted = row << width
            pick = (((shifted | high) - row) & high) >> (width - 1)
            cheap = ((at_most - packed) & high) >> (width - 1)
            row = ((row ^ ((shifted ^ row) & ((pick << width) - pick))) + cheap) & alive
            out.append(row)
        return out

    # Per bound, `found` takes the lowest violating end lane, the lowest set
    # bit of `over`, and `below` keeps the end lanes under it.
    below, found = live[-1], None
    for j in bounds:
        layers = rows(j)
        over = ((layers[-1] | high) - (j + 2) * ones) & high & below
        if over:
            found = ((over & -over).bit_length() - 1) // width, j, layers
            below &= (1 << (found[0] * width)) - 1
            if not below:
                break
    if found is None:
        return Verdict(True, None)
    k, j, layers = found
    count = ((layers[-1] >> (k * width)) & mask) - 1
    # The path's states are lattice states, so they skip `InfoState`'s checks.
    path = [tuple.__new__(InfoState, (instance.n - 1, k))]
    for i in range(instance.n - 2, -1, -1):
        if k:
            parents = layers[i] >> ((k - 1) * width)  # lane k - 1 at the bottom, lane k above it
            if parents & mask >= (parents >> width) & mask:
                k -= 1
        path.append(tuple.__new__(InfoState, (i, k)))
    return Verdict(False, REASON_PIGEONHOLE, witness=Witness(tuple(reversed(path)), j, count))
