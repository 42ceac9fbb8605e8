"""Reference baselines for validating the analytic engine.

Nothing here reuses the state lattice's recurrence or the path criterion: the
pivotal checks either sum the closed-form binomial weights or enumerate secret
completions one vector at a time, and the existence checks either enumerate
every adaptive mechanism outright or expand the highest-cost-first policy's
full reply tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CapExceeded
from .mechanism import HcfPolicy, audit_full_tree
from .model import InfoState, ProblemInstance
from .pivotal import _check_approachable, c_of, determine

# Largest number of free agents completion enumeration accepts, and largest n
# mechanism enumeration accepts (the count of mechanisms grows doubly
# exponentially in n).
BRUTE_PIVOTAL_CAP = 24
EXHAUSTIVE_CAP = 4


@dataclass(frozen=True)
class DecisionTree:
    """Adaptive mechanism: approach `rank`, then recurse on the reply.

    A None child means the state after that reply is determined and the
    mechanism halts there.
    """

    rank: int
    on_zero: "DecisionTree | None"
    on_one: "DecisionTree | None"


@dataclass(frozen=True)
class OracleVerdict:
    exists: bool
    certificate: DecisionTree | None
    mechanisms_checked: int


def closed_form_pivotal(state: InfoState, instance: ProblemInstance) -> Fraction:
    """Pivotality as the closed-form sum: the binomial weight of each ones-count
    m of the n-i-1 agents other than the one being approached for which the
    table differs between totals k+m and k+m+1."""
    _check_approachable(state, instance.n)
    rest = instance.n - state.approached - 1
    q = instance.q
    table = instance.fn_spec.ones_to_one
    k = state.ones
    total = Fraction(0)
    for m in range(rest + 1):
        if table[k + m] != table[k + m + 1]:
            total += comb(rest, m) * q**m * (1 - q) ** (rest - m)
    return total


def brute_pivotal(state: InfoState, instance: ProblemInstance) -> Fraction:
    """Pivotality by enumerating every completion of the other unapproached
    agents, summing the prior weight of those where flipping the approached
    agent's secret flips the output."""
    n = instance.n
    _check_approachable(state, n)
    rest = n - state.approached - 1
    if rest > BRUTE_PIVOTAL_CAP:
        raise CapExceeded(f"completion enumeration capped at {BRUTE_PIVOTAL_CAP} free agents, got {rest}")
    q = instance.q
    weight_of = [q**m * (1 - q) ** (rest - m) for m in range(rest + 1)]
    fn = instance.fn_spec
    total = Fraction(0)
    for completion in itertools.product((0, 1), repeat=rest):
        ones = sum(completion)
        if fn.value_at(state.ones + ones) != fn.value_at(state.ones + ones + 1):
            total += weight_of[ones]
    return total


def _trees(instance, state, remaining):
    # Depth-first enumeration, candidate ranks ascending.
    fn = instance.fn_spec
    child0 = InfoState(state.approached + 1, state.ones)
    child1 = InfoState(state.approached + 1, state.ones + 1)
    open0 = determine(child0, fn) is None
    open1 = determine(child1, fn) is None
    for rank in sorted(remaining):
        rest = remaining - {rank}
        for left in _trees(instance, child0, rest) if open0 else (None,):
            for right in _trees(instance, child1, rest) if open1 else (None,):
                yield DecisionTree(rank, left, right)


def _tree_willing(instance, tree, state) -> bool:
    if tree is None:
        return True
    if tree.rank > (c_of(state, instance) or 0):
        return False
    child0 = InfoState(state.approached + 1, state.ones)
    child1 = InfoState(state.approached + 1, state.ones + 1)
    return _tree_willing(instance, tree.on_zero, child0) and _tree_willing(
        instance, tree.on_one, child1
    )


def exhaustive_existence(instance: ProblemInstance) -> OracleVerdict:
    """Enumerate every earliest-halting adaptive mechanism and accept the first
    whose chosen agent is willing to compute at every reachable state.

    A constant function needs no approaches; the empty mechanism counts as the
    single one checked.
    """
    if instance.n > EXHAUSTIVE_CAP:
        raise CapExceeded(f"mechanism enumeration capped at n={EXHAUSTIVE_CAP}, instance has n={instance.n}")
    root = InfoState(0, 0)
    if determine(root, instance.fn_spec) is not None:
        return OracleVerdict(True, None, 1)
    checked = 0
    for tree in _trees(instance, root, frozenset(instance.ranks)):
        checked += 1
        if _tree_willing(instance, tree, root):
            return OracleVerdict(True, tree, checked)
    return OracleVerdict(False, None, checked)


def hcf_tree_existence(instance: ProblemInstance) -> OracleVerdict:
    """Existence via the constructive route: the highest-cost-first policy's
    full-tree audit passes iff some appropriate mechanism exists (capped at
    the audit's AUDIT_CAP)."""
    report = audit_full_tree(instance, HcfPolicy(instance))
    return OracleVerdict(report.passed, None, 1)
