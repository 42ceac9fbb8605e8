"""Sequential elicitation policies, game execution, and equilibrium audits.

A policy decides, from the public transcript, whether to halt with a value or
which remaining agent to approach next. The highest-cost-first policy asks the
most expensive agent that is still willing to compute; its full-reply-tree
audit certifies that everybody computing truthfully is an equilibrium.
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


@dataclass(frozen=True)
class Approach:
    rank: int


@dataclass(frozen=True)
class Halt:
    bit: int


@dataclass(frozen=True)
class Fail:
    reason: str


def hcf_next(instance: ProblemInstance, state: InfoState, remaining) -> Approach | Fail:
    """Pick the highest-cost remaining agent whose cost is at most the state's
    threshold: the largest remaining rank up to the willing rank, so equal
    costs break toward the higher rank. Fails when nobody remaining is
    willing."""
    willing = c_of(state, instance) or 0
    best = max((r for r in remaining if r <= willing), default=None)
    return Fail(FAIL_NO_ELIGIBLE) if best is None else Approach(best)


class HcfPolicy:
    """Approach the dearest willing agent; halt as soon as the value is forced."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance

    def next(self, transcript: Transcript, remaining) -> Approach | Halt | Fail:
        state = transcript.state
        forced = determine(state, self.instance.fn_spec)
        if forced is not None:
            return Halt(forced)
        return hcf_next(self.instance, state, remaining)


class FixedOrderPolicy:
    """Approach agents in a fixed order regardless of incentives.

    The baseline that motivates sequencing by willingness: it still halts as
    soon as the output is forced, but never checks whether the approached
    agent has any reason to compute.
    """

    def __init__(self, instance: ProblemInstance, order=None):
        self.instance = instance
        self.order = tuple(order) if order is not None else tuple(instance.ranks)
        if sorted(self.order) != list(instance.ranks):
            raise ValueError("order must be a permutation of the ranks")

    def next(self, transcript: Transcript, remaining) -> Approach | Halt | Fail:
        forced = determine(transcript.state, self.instance.fn_spec)
        if forced is not None:
            return Halt(forced)
        for rank in self.order:
            if rank in remaining:
                return Approach(rank)
        return Fail("no_agent_remaining")


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


def _play(policy, transcript: Transcript, remaining: frozenset, secrets, stop_at: int | None = None):
    """Approach agents as `policy` directs, replying from `secrets` (rank order),
    until it halts or is about to approach rank `stop_at`.

    Returns the transcript, the ranks still unapproached, and the halting bit
    (None when stopped at `stop_at`). Each step removes a rank, so a policy
    that neither halts nor fails runs out of ranks and is rejected.
    """
    while True:
        step = policy.next(transcript, remaining)
        if isinstance(step, Halt):
            return transcript, remaining, step.bit
        if isinstance(step, Fail):
            raise PolicyFailed(transcript.state, step.reason)
        if step.rank == stop_at:
            return transcript, remaining, None
        if step.rank not in remaining:
            raise ValueError(f"policy approached rank {step.rank} twice")
        transcript = transcript.extended(step.rank, secrets[step.rank - 1])
        remaining = remaining - {step.rank}


def run(instance: ProblemInstance, policy, secrets) -> RunResult:
    """Execute one game with truthful replies drawn from `secrets` (rank order).

    The output always equals the function's value on the true secrets, since a
    policy halts only once every completion agrees.
    """
    secrets = tuple(secrets)
    if len(secrets) != instance.n or any(s not in (0, 1) for s in secrets):
        raise ValueError(f"secrets must be {instance.n} bits")
    transcript, _, output = _play(policy, Transcript(), frozenset(instance.ranks), secrets)
    return RunResult(
        transcript=transcript,
        output=output,
        halted_at=transcript.state,
        approached_count=len(transcript.entries),
        total_cost_incurred=sum((instance.cost_of_rank(r) for r, _ in transcript.entries), Fraction(0)),
    )


def draw_secrets(instance: ProblemInstance, seed: int) -> tuple[int, ...]:
    """Secrets in rank order, drawn iid from the prior via a seeded generator."""
    rng = random.Random(seed)
    q = instance.q
    return tuple(
        1 if rng.randrange(q.denominator) < q.numerator else 0 for _ in range(instance.n)
    )


def sample_run(instance: ProblemInstance, policy, seed: int) -> RunResult:
    """Run on secrets drawn from the prior by `draw_secrets`."""
    return run(instance, policy, draw_secrets(instance, seed))


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
    records: list[AuditRecord] = []
    seen: set[tuple[InfoState, int]] = set()
    failure: tuple[InfoState, str] | None = None

    def walk(transcript: Transcript, remaining: frozenset) -> None:
        nonlocal failure
        if failure is not None:
            return
        step = policy.next(transcript, remaining)
        if isinstance(step, Halt):
            if step.bit != determine(transcript.state, instance.fn_spec):
                raise ValueError(f"policy halted with the wrong value at {transcript.state}")
            return
        if isinstance(step, Fail):
            failure = (transcript.state, step.reason)
            return
        state = transcript.state
        eligible = step.rank <= (c_of(state, instance) or 0)
        key = (state, step.rank)
        if key not in seen:
            seen.add(key)
            records.append(
                AuditRecord(
                    state, step.rank, instance.cost_of_rank(step.rank), threshold(state, instance), eligible
                )
            )
        if not eligible:
            failure = (state, FAIL_CHOSEN_INELIGIBLE)
            return
        rest = remaining - {step.rank}
        walk(transcript.extended(step.rank, 0), rest)
        walk(transcript.extended(step.rank, 1), rest)

    walk(Transcript(), frozenset(instance.ranks))
    return AuditReport(passed=failure is None, records=tuple(records), failure=failure)


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
    all_ranks = frozenset(instance.ranks)
    for secrets in itertools.product((0, 1), repeat=n):
        weight = Fraction(1)
        for s in secrets:
            weight *= q if s else 1 - q
        true_value = fn.value_at(sum(secrets))
        transcript, remaining, prefix_output = _play(policy, Transcript(), all_ranks, secrets, rank)
        if prefix_output is not None:
            if prefix_output == true_value:
                correct_unapproached += weight
            continue
        weight_approached += weight
        rest = remaining - {rank}
        outputs = tuple(_play(policy, transcript.extended(rank, bit), rest, secrets)[2] for bit in (0, 1))
        own_secret = secrets[rank - 1]
        for action in ALL_ACTIONS:
            utility = Fraction(1 if outputs[action.reply(own_secret)] == true_value else 0)
            if action.compute:
                utility -= cost
            acc[action] += weight * utility
    if weight_approached:
        return {action: acc[action] / weight_approached for action in ALL_ACTIONS}
    return {action: correct_unapproached for action in ALL_ACTIONS}


def deviation_utility(
    instance: ProblemInstance, policy, rank: int, action: Action, cap: int = 12
) -> Fraction:
    """Expected utility of one action for the agent at `rank`; see
    deviation_profile for the conditioning convention."""
    return deviation_profile(instance, policy, rank, cap=cap)[action]
