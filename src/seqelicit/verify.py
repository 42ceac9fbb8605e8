"""Polynomial-time existence decision for an appropriate sequential mechanism.

The path criterion runs on packed lanes: each layer of the state lattice is one
Python int with a W-bit lane per ones-count, so the max over a state's two
parents, the per-bound indicator and the end-layer test are a few big-int
operations per layer instead of one Python step per state (the SWAR technique
of Lamport, "Multiple byte processing with full-word instructions", CACM 1975).
`oracle.per_bound_verdict` keeps the per-state list DP as the reference.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, compress

from .model import InfoState, ProblemInstance
from .pivotal import StateLattice

REASON_TRIVIAL = "trivial"
REASON_C_UNDEFINED = "c_undefined_at"
REASON_PIGEONHOLE = "pigeonhole_path"


@dataclass(frozen=True)
class Witness:
    """A root-to-end path packing more than `violating_rank` cheap decision points."""

    path: tuple[InfoState, ...]
    violating_rank: int
    count: int


@dataclass(frozen=True)
class Verdict:
    exists: bool
    reason: str | None
    undefined_at: InfoState | None = None
    witness: Witness | None = None


class _Lanes:
    """The lattice packed once: per layer, `ranks` holds the willing rank of
    state (i, k) in lane k and `live` is all ones in the lanes of the
    undetermined states. Lanes are the narrowest `array` item with n + 2 below
    its top bit, so no lane value used below ever carries into the next lane.
    """

    def __init__(self, lattice: StateLattice):
        n = lattice.n
        code = next(code for code in "BHIQ" if n + 2 < 1 << (8 * array(code).itemsize - 1))
        size = array(code).itemsize
        self.width = width = 8 * size
        self.mask = (1 << width) - 1

        def layers(values) -> list[int]:
            # Layer i holds i + 1 states and starts after the i(i+1)/2 before it.
            data = array(code, values).tobytes()
            return [
                int.from_bytes(data[i * (i + 1) // 2 * size : (i + 1) * (i + 2) // 2 * size], sys.byteorder)
                for i in range(n)
            ]

        self.ones = int.from_bytes(array(code, [1]).tobytes() * n, sys.byteorder)
        self.high = self.ones << (width - 1)
        self.ranks = layers(chain.from_iterable(lattice.rank))
        self.live = [flags * self.mask for flags in layers(map(bool, chain.from_iterable(lattice.num)))]

    def lane(self, packed: int, k: int) -> int:
        return (packed >> (k * self.width)) & self.mask

    def lowest(self, packed: int) -> int:
        """Index of the lowest nonzero lane."""
        return ((packed & -packed).bit_length() - 1) // self.width

    def rows(self, rank_bound: int) -> list[int]:
        """The path DP at one rank bound: lane k of layer i is one more than the
        largest number of states with willing rank at most `rank_bound` on a
        path from (0, 0) to (i, k), and 0 at a determined state.

        Each layer takes the lane-wise max of its two parents, (i-1, k-1) in
        the previous row shifted up one lane and (i-1, k) in place: a
        subtraction with the top bit of every lane set leaves that bit set
        exactly where the shifted parent is at least the other.
        """
        width, high, rows = self.width, self.high, []
        at_most = (rank_bound * self.ones) | high
        row = 1  # a virtual parent of count 0 above the root
        for ranks, live in zip(self.ranks, self.live):
            shifted = row << width
            pick = (((shifted | high) - row) & high) >> (width - 1)
            cheap = ((at_most - ranks) & high) >> (width - 1)
            row = ((row ^ ((shifted ^ row) & ((pick << width) - pick))) + cheap) & live
            rows.append(row)
        return rows


def exists_appropriate(instance: ProblemInstance) -> Verdict:
    """Decide whether some sequential mechanism computes the function in equilibrium.

    Empty reduced graph (constant function): trivially yes. A state where no
    agent is willing to compute: no, naming the first such state in (i, k)
    order. Otherwise, no iff for some end node and some rank bound j a
    root-to-end path carries more than j nodes whose willing rank is at most j;
    only j distinct agents that cheap exist, so one of those decision points
    would be left to an unwilling agent. The witness is the smallest such end
    node at its smallest j, on the path that breaks ties toward the parent
    (i-1, k-1).

    Each rank bound is one pass of `_Lanes.rows`, O(n) big-int operations on
    n-lane integers, and the scan stops once the first end node violates.
    """
    lattice = instance.lattice
    if not lattice.num[0][0]:
        return Verdict(True, REASON_TRIVIAL)
    lanes = _Lanes(lattice)
    high = lanes.high
    bounds = set(compress(chain.from_iterable(lattice.rank), chain.from_iterable(lattice.num)))
    if 0 in bounds:
        for i, (ranks, live) in enumerate(zip(lanes.ranks, lanes.live)):
            unwilling = (high - ranks) & high & live
            if unwilling:
                return Verdict(False, REASON_C_UNDEFINED, undefined_at=InfoState(i, lanes.lowest(unwilling)))
    # The counts only change where j crosses a willing rank, so the smallest
    # violating j of any end node is one of those ranks. Per bound, keep the
    # lowest violating end lane below the one found so far.
    ends = lanes.live[-1]
    first_end = lanes.lowest(ends)
    found = None
    for j in sorted(bounds):
        over = ((lanes.rows(j)[-1] | high) - (j + 2) * lanes.ones) & high & ends
        if found is not None:
            over &= (1 << (found[0] * lanes.width)) - 1
        if over:
            found = lanes.lowest(over), j
            if found[0] == first_end:
                break
    if found is None:
        return Verdict(True, None)
    k, j = found
    rows = lanes.rows(j)
    count = lanes.lane(rows[-1], k) - 1
    path = [InfoState(instance.n - 1, k)]
    for i in range(instance.n - 2, -1, -1):
        if k and lanes.lane(rows[i], k - 1) >= lanes.lane(rows[i], k):
            k -= 1
        path.append(InfoState(i, k))
    return Verdict(False, REASON_PIGEONHOLE, witness=Witness(tuple(reversed(path)), j, count))
