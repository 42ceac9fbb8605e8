"""Polynomial-time existence decision for an appropriate sequential mechanism."""

from __future__ import annotations

from dataclasses import dataclass

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


def _path_counts(lattice: StateLattice, rank_bound: int):
    """Layered DP over the undetermined states: best[i][k] is the largest
    number of states with willing rank in 1..rank_bound on a path from (0, 0)
    to (i, k), -1 at determined states; pred[i][k] is the ones-count of the
    chosen parent in layer i-1 (a virtual parent of value 0 sits above the
    root). Ties break toward the lexicographically smaller parent (i-1, k-1)
    so witness extraction is deterministic.
    """
    best, pred, prev = [], [], [0]
    for num_row, rank_row in zip(lattice.num, lattice.rank):
        padded = [-1, *prev, -1]  # padded[k] is parent (i-1, k-1), padded[k+1] is (i-1, k)
        back = [k - 1 if padded[k] >= padded[k + 1] else k for k in range(len(num_row))]
        prev = [
            padded[parent + 1] + (0 < rank <= rank_bound) if num else -1
            for parent, num, rank in zip(back, num_row, rank_row)
        ]
        best.append(prev)
        pred.append(back)
    return best, pred


def _walk(pred, target: InfoState) -> tuple[InfoState, ...]:
    """The root-to-`target` path that `pred` from _path_counts records."""
    i, k = target.approached, target.ones
    path = [target]
    while i:
        i, k = i - 1, pred[i][k]
        path.append(InfoState(i, k))
    return tuple(reversed(path))


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
