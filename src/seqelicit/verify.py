"""Polynomial-time existence decision for an appropriate sequential mechanism."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import _path_counts, _walk
from .model import InfoState, ProblemInstance

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


def exists_appropriate(instance: ProblemInstance) -> Verdict:
    """Decide whether some sequential mechanism computes the function in equilibrium.

    Empty reduced graph (constant function): trivially yes. A state where no
    agent is willing to compute: no, naming that state. Otherwise, no iff for
    some end node and some rank bound j a root-to-end path carries more than j
    nodes whose willing rank is at most j; only j distinct agents that cheap
    exist, so one of those decision points would be left to an unwilling agent.
    """
    lattice = instance.lattice
    if not lattice.num[0][0]:
        return Verdict(True, REASON_TRIVIAL)
    bounds: set[int] = set()
    for i, (num_row, rank_row) in enumerate(zip(lattice.num, lattice.rank)):
        for k, (num, rank) in enumerate(zip(num_row, rank_row)):
            if num:
                if not rank:
                    return Verdict(False, REASON_C_UNDEFINED, undefined_at=InfoState(i, k))
                bounds.add(rank)
    # The counts only change where j crosses a willing rank, so the smallest
    # violating j of any end node is one of those ranks. Per bound, keep the
    # first violating end node that precedes the one found so far.
    ends = [InfoState(instance.n - 1, k) for k, num in enumerate(lattice.num[-1]) if num]
    witness = None
    for j in sorted(bounds):
        best, pred = _path_counts(lattice, j)
        for end in ends:
            if witness is not None and end >= witness.path[-1]:
                break
            if best[-1][end.ones] > j:
                witness = Witness(_walk(pred, end), j, best[-1][end.ones])
                break
    if witness is None:
        return Verdict(True, None)
    return Verdict(False, REASON_PIGEONHOLE, witness=witness)
