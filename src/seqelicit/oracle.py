"""Reference baselines for validating the analytic engine.

The pivotal checks either sum the closed-form binomial weights or enumerate
secret completions one vector at a time, and the existence checks either
enumerate every adaptive mechanism outright or expand the highest-cost-first
policy's full reply tree; none of them reuses the state lattice's recurrence
or the path criterion. The incentive checks walk every reply path, and play
every secret vector, without the (state, remaining) sharing of `mechanism`;
as there, a policy failure in the deviation check fails every rank at once.

One reference keeps the lattice's recurrence: `full_lattice`, the whole
numerator table with every layer's floors stepped down from the root. It
checks the rolling rows and the floors each 64-layer block starts from, not
the recurrence, which the binomial sums cover.

One reference does run the path criterion on the lattice: `per_bound_verdict`,
one list DP per rank bound with one Python step per state. It checks only the
packed-lane arithmetic of `verify`, not the lattice's ranks or the criterion
itself, which the closed-form and enumeration routes cover.

Every reference that plays or walks a game stops where `determine`'s window
scan finds the output forced, while the executors in `mechanism` stop where
the lattice marks the state determined in its rank row, so each comparison
checks one stop test against the other; the list DP below tests the
numerators for 0 instead of the mark. `mirror` relabels every
secret 0 <-> 1, the same game seen from q -> 1-q: the lattice answers any q
in (0, 1) natively, so the mirror is the reference its low-prior answers are
checked against.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import CapExceeded, PolicyFailed
from .mechanism import (
    AUDIT_CAP,
    DEVIATION_CAP,
    FAIL_CHOSEN_INELIGIBLE,
    AuditRecord,
    AuditReport,
    HcfPolicy,
    _all_remaining,
    _next_rank,
    audit_full_tree,
)
from .model import ALL_ACTIONS, Action, AnonymousFunctionSpec, InfoState, ProblemInstance
from .pivotal import StateLattice, _check_approachable, c_of, threshold
from .verify import REASON_C_UNDEFINED, REASON_PIGEONHOLE, REASON_TRIVIAL, Verdict, Witness

# Largest number of free agents completion enumeration accepts, and largest n
# mechanism enumeration accepts (the count of mechanisms grows doubly
# exponentially in n). `oracle --mode pivotal` enumerates at every node, root
# first, so the cap at the root bounds the whole command to about 4x its work.
BRUTE_PIVOTAL_CAP = 16
EXHAUSTIVE_CAP = 4


class DecisionTree(NamedTuple):
    """Adaptive mechanism: approach `rank`, then recurse on the reply.

    A None child means the state after that reply is determined and the
    mechanism halts there.
    """

    rank: int
    on_zero: "DecisionTree | None"
    on_one: "DecisionTree | None"


class OracleVerdict(NamedTuple):
    exists: bool
    certificate: DecisionTree | None
    mechanisms_checked: int


def mirror(instance: ProblemInstance) -> ProblemInstance:
    """The instance with every secret relabeled 0 <-> 1: q becomes 1-q and
    ones-count w becomes n-w, so the table reverses. State (i, k) becomes
    (i, i-k) with the same pivotality, threshold and willing rank, and the
    actions that name a bit swap. A symmetric table keeps its name."""
    table = tuple(reversed(instance.fn_spec.ones_to_one))
    name = instance.fn_spec.name if table == instance.fn_spec.ones_to_one else None
    fn_spec = AnonymousFunctionSpec(instance.n, table, name)
    return ProblemInstance(
        instance.n, 1 - instance.q, instance.costs, instance.original_index, fn_spec, instance.agent_ids
    )


def determine(state: InfoState, fn: AnonymousFunctionSpec) -> int | None:
    """The output forced at `state`, or None while both outcomes are reachable.

    The reachable ones-counts from (i, k) are k..k+(n-i); the output is forced
    exactly when the table is constant on that window, and is that constant.
    The scan is the reference for the lattice's mark, `rank[i][k] < 0`, i < n.
    """
    if state.approached > fn.n:
        raise ValueError(f"state {state} out of range for n={fn.n}")
    window = fn.ones_to_one[state.ones : state.ones + (fn.n - state.approached) + 1]
    if all(window):
        return 1
    if not any(window):
        return 0
    return None


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


def full_lattice(instance: ProblemInstance) -> tuple[list[list[int]], list[list[int]]]:
    """(num, rank) of `pivotal.StateLattice` built whole: every numerator row
    kept, root row first, and every layer's floors stepped down from the root
    one `// b` at a time. The reference for the lattice's two rolling rows,
    its closed-form floors atop each 64-layer block and its `num`."""
    n, a, b = instance.n, instance.q.numerator, instance.q.denominator
    table = instance.fn_spec.ones_to_one
    num = [[int(table[k] != table[k + 1]) for k in range(n)]]
    for size in range(n - 1, 0, -1):
        row = num[-1]
        num.append([a * row[k + 1] + (b - a) * row[k] for k in range(size)])
    num.reverse()
    counts = Counter(map(Fraction.as_integer_ratio, instance.costs))
    below = [0, *itertools.accumulate(counts.values())]
    m, scale = min(a, b - a), b**n
    floors = [f for f in ((top * scale - 1) // (den * m) for top, den in counts) if f < scale // b]
    determined = ~below[instance.costs[0] == 0]
    rank = []
    for row in num:
        rank.append([below[bisect_left(floors, v)] if v else determined for v in row])
        floors = [f // b for f in floors]
    return num, rank


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


def brute_audit(instance: ProblemInstance, policy) -> AuditReport:
    """`mechanism.audit_full_tree` by expanding all 2^n reply paths, calling
    the policy at every node of the tree."""
    if instance.n > AUDIT_CAP:
        raise CapExceeded(f"full tree audit capped at n={AUDIT_CAP}, instance has n={instance.n}")
    fn = instance.fn_spec
    records: list[AuditRecord] = []
    seen: set[tuple[InfoState, int]] = set()

    def walk(state: InfoState, remaining: int) -> None:
        if determine(state, fn) is not None:
            return
        rank = _next_rank(policy, *state, remaining)
        eligible = rank <= (c_of(state, instance) or 0)
        key = (state, rank)
        if key not in seen:
            seen.add(key)
            records.append(
                AuditRecord(state, rank, instance.cost_of_rank(rank), threshold(state, instance), eligible)
            )
        if not eligible:
            raise PolicyFailed(state, FAIL_CHOSEN_INELIGIBLE)
        rest = remaining ^ (1 << rank)
        walk(InfoState(state.approached + 1, state.ones), rest)
        walk(InfoState(state.approached + 1, state.ones + 1), rest)

    try:
        walk(InfoState(0, 0), _all_remaining(instance))
    except PolicyFailed as exc:
        return AuditReport(passed=False, records=tuple(records), failure=(exc.state, exc.reason))
    return AuditReport(passed=True, records=tuple(records), failure=None)


def brute_deviation_profiles(instance: ProblemInstance, policy) -> dict[int, dict[Action, Fraction]]:
    """`mechanism.deviation_profile` of every rank by playing all 2^n secret
    vectors: per vector, the truthful game once and, at each approach on it,
    the continuation with the approached agent's reply flipped. A rank never
    approached is credited from the truthful outputs. Each vector weighs
    a^ones (b-a)^(n-ones), its prior probability scaled by b^n for q = a/b.

    A policy failure fails every rank, as in `deviation_profile`: it raises
    the first exception met, each truthful game played before its flips. The
    replies are the secrets, so the truthful games follow every reply path of
    the policy, and every rank's own enumeration would meet a failure.
    """
    n = instance.n
    if n > DEVIATION_CAP:
        raise CapExceeded(f"deviation enumeration capped at n={DEVIATION_CAP}, instance has n={n}")
    a, b = instance.q.numerator, instance.q.denominator
    weight_of = [a**ones * (b - a) ** (n - ones) for ones in range(n + 1)]
    fn = instance.fn_spec
    # Per rank, the weight of the vectors where each action, in ALL_ACTIONS
    # order, gives the true output.
    correct = {rank: [0] * len(ALL_ACTIONS) for rank in instance.ranks}
    approached = dict.fromkeys(instance.ranks, 0)
    truthful_right = 0
    all_ranks = _all_remaining(instance)

    def play(i: int, k: int, remaining: int, secrets, ranks: list) -> int:
        # The ones-count where the game from (i, k, remaining) stops, asking
        # the policy at every step; appends each rank approached to `ranks`.
        while determine(InfoState(i, k), fn) is None:
            rank = _next_rank(policy, i, k, remaining)
            ranks.append(rank)
            i, k, remaining = i + 1, k + secrets[rank - 1], remaining ^ (1 << rank)
        return k

    for secrets in itertools.product((0, 1), repeat=n):
        weight = weight_of[sum(secrets)]
        true_value = fn.value_at(sum(secrets))
        ranks: list[int] = []
        truthful = fn.value_at(play(0, 0, all_ranks, secrets, ranks))
        truthful_right += weight * (truthful == true_value)
        i, k, remaining = 0, 0, all_ranks
        for rank in ranks:
            reply = secrets[rank - 1]
            remaining ^= 1 << rank
            outputs = [truthful, truthful]  # indexed by the agent's reply
            outputs[1 - reply] = fn.value_at(play(i + 1, k + 1 - reply, remaining, secrets, []))
            approached[rank] += weight
            for slot, action in enumerate(ALL_ACTIONS):
                correct[rank][slot] += weight * (outputs[action.reply(reply)] == true_value)
            i, k = i + 1, k + reply
    profiles: dict[int, dict[Action, Fraction]] = {}
    for rank in instance.ranks:
        if not approached[rank]:
            profiles[rank] = dict.fromkeys(ALL_ACTIONS, Fraction(truthful_right, b**n))
        else:
            cost = instance.cost_of_rank(rank)
            profiles[rank] = {
                action: Fraction(right, approached[rank]) - (cost if action.compute else 0)
                for action, right in zip(ALL_ACTIONS, correct[rank])
            }
    return profiles


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


def per_bound_verdict(instance: ProblemInstance) -> Verdict:
    """`verify.exists_appropriate` with one list DP per distinct willing rank,
    one Python step per state: the reference for the packed-lane DP. The first
    state in (i, k) order with no willing agent names a c-undefined verdict;
    otherwise the witness is the smallest violating end node at its smallest
    rank bound.
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
