"""Sequential elicitation policies, game execution, and equilibrium audits.

A policy maps an undetermined information state and the agents not yet
approached to the rank to approach next, or raises PolicyFailed. The
executors (`run`, `deviation_profile` and the audit) stop as soon as the
output is determined, so no policy decides when to halt. The highest-cost-first
policy asks the most expensive agent that is still willing to compute; its
full-reply-tree audit certifies that everybody computing truthfully is an
equilibrium.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, PolicyFailed
from .model import ALL_ACTIONS, Action, InfoState, ProblemInstance, Transcript
from .pivotal import c_of, determine, threshold

FAIL_NO_ELIGIBLE = "no_eligible_agent"
FAIL_CHOSEN_INELIGIBLE = "chosen_ineligible"


class HcfPolicy:
    """Approach the dearest agent still willing to compute."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance

    def next(self, state: InfoState, remaining: frozenset) -> int:
        """The largest remaining rank up to the state's willing rank, so equal
        costs break toward the higher rank. Raises PolicyFailed when nobody
        remaining is willing."""
        willing = c_of(state, self.instance) or 0
        best = max((r for r in remaining if r <= willing), default=None)
        if best is None:
            raise PolicyFailed(state, FAIL_NO_ELIGIBLE)
        return best


class FixedOrderPolicy:
    """Approach agents in a fixed order regardless of incentives.

    The baseline that motivates sequencing by willingness: a game under it
    still stops as soon as the output is forced, but it never checks whether
    the approached agent has any reason to compute.
    """

    def __init__(self, instance: ProblemInstance, order=None):
        self.instance = instance
        self.order = tuple(order) if order is not None else tuple(instance.ranks)
        if sorted(self.order) != list(instance.ranks):
            raise ValueError("order must be a permutation of the ranks")

    def next(self, state: InfoState, remaining: frozenset) -> int:
        # An undetermined state always has an agent left: every state after
        # the last approach is determined.
        return next(rank for rank in self.order if rank in remaining)


@dataclass(frozen=True)
class RunResult:
    transcript: Transcript
    output: int
    halted_at: InfoState
    approached_count: int
    total_cost_incurred: Fraction


@dataclass(frozen=True)
class AuditRecord:
    state: InfoState
    rank: int
    cost: Fraction
    threshold: Fraction
    eligible: bool


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    records: tuple[AuditRecord, ...]
    failure: tuple[InfoState, str] | None


def _next_rank(policy, state: InfoState, remaining: frozenset) -> int:
    rank = policy.next(state, remaining)
    if rank not in remaining:
        raise ValueError(f"policy chose rank {rank!r} at {state}, which is not a remaining rank")
    return rank


def _play(instance, policy, state: InfoState, remaining: frozenset, secrets, entries=None, stop_at=None):
    """Approach agents as `policy` directs, replying from `secrets` (rank order),
    until the output is determined or the policy is about to approach rank
    `stop_at`. Appends each (rank, reply) to `entries` when given.

    Returns the state reached, the ranks still unapproached, and the
    determined output (None when stopped at `stop_at`). Every state after the
    last approach is determined, so the loop always ends.
    """
    fn = instance.fn_spec
    while True:
        forced = determine(state, fn)
        if forced is not None:
            return state, remaining, forced
        rank = _next_rank(policy, state, remaining)
        if rank == stop_at:
            return state, remaining, None
        reply = secrets[rank - 1]
        if entries is not None:
            entries.append((rank, reply))
        state = InfoState(state.approached + 1, state.ones + reply)
        remaining = remaining - {rank}


def run(instance: ProblemInstance, policy, secrets) -> RunResult:
    """Execute one game with truthful replies drawn from `secrets` (rank order).

    The output always equals the function's value on the true secrets, since
    the game stops only once every completion agrees.
    """
    secrets = tuple(secrets)
    if len(secrets) != instance.n or any(s not in (0, 1) for s in secrets):
        raise ValueError(f"secrets must be {instance.n} bits")
    entries: list[tuple[int, int]] = []
    halted_at, _, output = _play(instance, policy, InfoState(0, 0), frozenset(instance.ranks), secrets, entries)
    return RunResult(
        transcript=Transcript(tuple(entries)),
        output=output,
        halted_at=halted_at,
        approached_count=len(entries),
        total_cost_incurred=sum((instance.cost_of_rank(r) for r, _ in entries), Fraction(0)),
    )


def draw_secrets(instance: ProblemInstance, seed: int) -> tuple[int, ...]:
    """Secrets in rank order, drawn iid from the prior via a seeded generator."""
    rng = random.Random(seed)
    q = instance.q
    return tuple(
        1 if rng.randrange(q.denominator) < q.numerator else 0 for _ in range(instance.n)
    )


def audit_full_tree(instance: ProblemInstance, policy, cap: int = 20) -> AuditReport:
    """Expand every reply path of the policy and check each decision point.

    At each reached undetermined state the chosen agent's cost is compared to
    the threshold there. A pass certifies that everybody computing truthfully
    is an equilibrium: any unilateral deviation at a reached state reduces to
    the recorded inequality. Stops at the first failure; records are deduped
    by (state, rank) in first-reached order.
    """
    if instance.n > cap:
        raise CapExceeded(f"full tree audit capped at n={cap}, instance has n={instance.n}")
    fn = instance.fn_spec
    records: list[AuditRecord] = []
    seen: set[tuple[InfoState, int]] = set()

    def walk(state: InfoState, remaining: frozenset) -> None:
        if determine(state, fn) is not None:
            return
        rank = _next_rank(policy, state, remaining)
        eligible = rank <= (c_of(state, instance) or 0)
        key = (state, rank)
        if key not in seen:
            seen.add(key)
            records.append(
                AuditRecord(state, rank, instance.cost_of_rank(rank), threshold(state, instance), eligible)
            )
        if not eligible:
            raise PolicyFailed(state, FAIL_CHOSEN_INELIGIBLE)
        rest = remaining - {rank}
        walk(InfoState(state.approached + 1, state.ones), rest)
        walk(InfoState(state.approached + 1, state.ones + 1), rest)

    try:
        walk(InfoState(0, 0), frozenset(instance.ranks))
    except PolicyFailed as exc:
        return AuditReport(passed=False, records=tuple(records), failure=(exc.state, exc.reason))
    return AuditReport(passed=True, records=tuple(records), failure=None)


def deviation_profile(
    instance: ProblemInstance, policy, rank: int, cap: int = 12
) -> dict[Action, Fraction]:
    """Expected utility of all six actions for the agent at `rank`, with every
    other agent computing and reporting truthfully.

    Utilities are conditional on the policy actually approaching the agent
    (the deviation only ever takes effect at that moment); a never-approached
    agent pays nothing and all six actions collapse to the unconditional
    probability that the output is correct. Exact enumeration over all 2^n
    secret vectors with their prior weights.
    """
    n = instance.n
    if n > cap:
        raise CapExceeded(f"deviation enumeration capped at n={cap}, instance has n={n}")
    if rank not in instance.ranks:
        raise ValueError(f"rank {rank} outside 1..{n}")
    q = instance.q
    cost = instance.cost_of_rank(rank)
    fn = instance.fn_spec
    acc = {action: Fraction(0) for action in ALL_ACTIONS}
    weight_approached = Fraction(0)
    correct_unapproached = Fraction(0)
    root, all_ranks = InfoState(0, 0), frozenset(instance.ranks)
    for secrets in itertools.product((0, 1), repeat=n):
        weight = Fraction(1)
        for s in secrets:
            weight *= q if s else 1 - q
        true_value = fn.value_at(sum(secrets))
        state, remaining, prefix_output = _play(instance, policy, root, all_ranks, secrets, stop_at=rank)
        if prefix_output is not None:
            if prefix_output == true_value:
                correct_unapproached += weight
            continue
        weight_approached += weight
        rest = remaining - {rank}
        outputs = tuple(
            _play(instance, policy, InfoState(state.approached + 1, state.ones + bit), rest, secrets)[2]
            for bit in (0, 1)
        )
        own_secret = secrets[rank - 1]
        for action in ALL_ACTIONS:
            utility = Fraction(1 if outputs[action.reply(own_secret)] == true_value else 0)
            if action.compute:
                utility -= cost
            acc[action] += weight * utility
    if weight_approached:
        return {action: acc[action] / weight_approached for action in ALL_ACTIONS}
    return {action: correct_unapproached for action in ALL_ACTIONS}

