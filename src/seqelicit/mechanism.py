"""Sequential elicitation policies, game execution, and equilibrium audits.

A policy maps an undetermined information state, the ints (i, k) of agents
approached and ones reported, and the agents not yet approached to the rank
to approach next, or raises PolicyFailed. The agents not yet approached are
an int bitmask, `remaining`: bit r is set while rank r has not been
approached, and bit 0 is always clear, so a step of a game removes a rank
with one xor and tests one with one shift. The executors (`run`,
`deviation_profile` and the audit) step on (i, k) and hand the policy those
ints; an `InfoState` is built only where a result names a state. They stop
where the output is forced, at i == n or where the lattice marks the state
determined with a negative willing rank, `rank[i][k] < 0`, so no policy
decides when to halt. The highest-cost-first policy reads the same row: it
asks the most expensive agent that is still willing to compute, and its
full-reply-tree audit certifies that everybody computing truthfully is an
equilibrium.

Every executor asks a policy through `_asker`: the built-in policies over
its own instance through their `next`, and any other through `_next_rank`,
which checks each answer once. `run` under `HcfPolicy` over its own instance
also walks the game's top-rank prefix without asking (see `run`).

Since a policy sees only (i, k, remaining), the incentive checks visit each
reachable such pair once, in two separate walks, each holding only the pairs
at undetermined states. The audit goes depth first, skips a pair it has
already walked and reads each record's threshold from the lattice's
`thresholds` table, filling a state's slot on first use, so the audits of one
instance share one threshold object per distinct value. The deviation
profile is a forward reach, layer by layer, that carries path weights through
every pair and averages the lattice's pivotality over the deviating agent's
approaches, from which every deviation's utility follows in integers. The
reach does not depend on the deviating agent, so one walk sums the weights of
every rank's approaches and the instance keeps the sums of the last policy
asked; the built-in policies are values, so fresh ones share that walk. The
2^n tree walk and secret-vector enumeration are in `oracle`, as the
references.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .errors import CapExceeded, PolicyFailed
from .model import ALL_ACTIONS, Action, InfoState, ProblemInstance, Transcript
from .pivotal import c_of

FAIL_NO_ELIGIBLE = "no_eligible_agent"
FAIL_CHOSEN_INELIGIBLE = "chosen_ineligible"

# Largest n the audit and the deviation profile accept. Both are polynomial in
# the (state, remaining) pairs the policy reaches; the caps are fixed n limits
# shared with the 2^n oracles in `oracle`, not work budgets.
AUDIT_CAP = 20
DEVIATION_CAP = 12

# (action, misreports a secret 0, misreports a secret 1, computes) per action.
_MISREPORTS = tuple((action, action.reply(0) != 0, action.reply(1) != 1, action.compute) for action in ALL_ACTIONS)


class _InstancePolicy:
    """A built-in policy is a value: two compare and hash equal exactly when
    they are of the same class over the same instance object, so a fresh
    policy object reuses the deviation reach of an equal one."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other.instance is self.instance

    def __hash__(self) -> int:
        return hash((self.__class__, id(self.instance)))


class HcfPolicy(_InstancePolicy):
    """Approach the dearest agent still willing to compute.

    Building a policy builds no lattice: an answer reads the rank row of
    `instance.lattice` first, so an executor's own checks, of the secrets
    and the caps, still come before the lattice budget's. `run` over its own
    instance calls it on every step after the top-rank prefix.
    """

    def next(self, i: int, k: int, remaining: int) -> int:
        """The largest remaining rank up to the willing rank c at (i, k), so
        equal costs break toward the higher rank: the top set bit of
        `remaining` at or below bit c, read as `c_of` does. Raises
        PolicyFailed when nobody remaining is willing."""
        instance = self.instance
        if not 0 <= k <= i < instance.n:
            c_of(InfoState(i, k), instance)  # not a lattice state: raises as c_of does
        willing = instance.lattice.rank[i][k]
        willing = willing if willing >= 0 else ~willing
        rank = (remaining & ((2 << willing) - 1)).bit_length() - 1
        if rank <= 0:
            raise PolicyFailed(InfoState(i, k), FAIL_NO_ELIGIBLE)
        return rank


class FixedOrderPolicy(_InstancePolicy):
    """Approach agents in ascending cost rank regardless of incentives.

    The baseline that motivates sequencing by willingness: a game under it
    still stops as soon as the output is forced, but it never checks whether
    the approached agent has any reason to compute.
    """

    def next(self, i: int, k: int, remaining: int) -> int:
        # The lowest remaining rank. An undetermined state always has an agent
        # left: every state after the last approach is determined.
        return (remaining & -remaining).bit_length() - 1


class RunResult(NamedTuple):
    transcript: Transcript
    output: int
    halted_at: InfoState
    approached_count: int
    total_cost_incurred: Fraction


class AuditRecord(NamedTuple):
    state: InfoState
    rank: int
    cost: Fraction
    threshold: Fraction
    eligible: bool


class AuditReport(NamedTuple):
    passed: bool
    records: tuple[AuditRecord, ...]
    failure: tuple[InfoState, str] | None


def _all_remaining(instance: ProblemInstance) -> int:
    """The mask with every rank 1..n remaining."""
    return (2 << instance.n) - 2


def _next_rank(policy, i: int, k: int, remaining: int) -> int:
    """The policy's answer at (i, k, remaining) if it names a rank whose bit
    is set in `remaining`, else ValueError."""
    rank = policy.next(i, k, remaining)
    # A bool is an int: True would pass as rank 1, and False fails `rank > 0`.
    if not (isinstance(rank, int) and rank is not True and rank > 0 and remaining >> rank & 1):
        raise ValueError(f"policy chose rank {rank!r} at ({i},{k}), which is not a remaining rank")
    return rank


def _asker(instance: ProblemInstance, policy):
    """f(i, k, remaining) -> rank: `policy.next` itself for `HcfPolicy` or
    `FixedOrderPolicy` (not a subclass, which may override `next`) over
    `instance`, which at an undetermined state answers only a remaining rank,
    else `_next_rank` bound to the policy."""
    if type(policy) in (HcfPolicy, FixedOrderPolicy) and policy.instance is instance:
        return policy.next
    return partial(_next_rank, policy)


def run(instance: ProblemInstance, policy, secrets) -> RunResult:
    """Play one game from the root as `policy` directs, with truthful replies
    drawn from `secrets` (rank order): n elements that `bytes()` takes, each
    0 or 1 (any int or bool, or any object with `__index__`; not a float, a
    str or a Fraction), or ValueError; a non-iterable raises TypeError. The
    secrets are read once, as one `bytes` of their tuple (the tuple makes an
    `array` give its elements, not its raw buffer), and the check, the ones
    count and every reply read that one object.

    The game stops only once every completion agrees, so the output always
    equals the function's value on the true secrets. The stop test reads the
    instance's lattice under any policy, so past `pivotal.LATTICE_BUDGET_BITS`
    this raises CapExceeded, as it does when the costs' common denominator
    has more than 4300 digits (`ProblemInstance.scaled_costs`). Each step is
    one lattice lookup, one `_asker` answer and one xor, so each rank is new
    and in 1..n and the transcript skips the checks of `Transcript(...)`.
    Its entries are the instance's shared (rank, reply) pairs from
    `_step_pairs`, indexed by rank and then reply, plain ints whatever types
    the policy and the secrets use, so a step allocates nothing.

    A game of `HcfPolicy` itself (not a subclass, which may override `next`)
    over this instance first walks its top-rank prefix without calling
    `next`. While exactly ranks 1..n - i remain, HCF's answer is the top rank
    n - i as long as its willing rank reaches it, so those steps count the
    rank down from n with one row read and one compare each, and no mask.
    Above the lattice's `top_depth` d every state is willing to rank n - i,
    so the first d steps read no row: their entries are one comprehension
    over the top d ranks, and k is the count of ones among their secrets.
    Where the walk stops, the mask is built and the game goes on through
    `next`. The prefix takes the dearest ranks in turn, so the total cost
    reads its part from one of the suffix totals in `scaled_costs` and adds
    up only the steps after it, one scaled cost each.
    """
    secrets = tuple(secrets)
    n = instance.n
    try:
        bits = bytes(secrets)
    except (TypeError, ValueError):
        raise ValueError(f"secrets must be {n} bits") from None
    if len(bits) != n or bits.translate(None, b"\0\1"):
        raise ValueError(f"secrets must be {n} bits")
    willing, pairs = instance.lattice.rank, instance._step_pairs
    entries: list[tuple[int, int]] = []
    i = k = 0
    if type(policy) is HcfPolicy and policy.instance is instance:
        # With exactly ranks 1..n - i left, `HcfPolicy.next` answers n - i
        # while c >= n - i (a determined state's row is negative), which
        # holds at every state above layer d.
        i = instance.lattice.top_depth
        entries = [p[s] for p, s in zip(pairs[n:n - i:-1], bits[n - i:][::-1])]
        k = bits.count(1, n - i)
        for rank in range(n - i, 0, -1):
            if willing[i][k] < rank:
                break
            reply = bits[rank - 1]
            entries.append(pairs[rank][reply])
            i += 1
            k += reply
    top = i
    remaining = (2 << (n - i)) - 2
    # Only a game that goes on past the prefix asks the policy.
    if i < n and willing[i][k] >= 0:
        ask = _asker(instance, policy)
        # Every state after the last approach is determined, so the loop ends.
        while i < n and willing[i][k] >= 0:
            rank = ask(i, k, remaining)
            reply = bits[rank - 1]
            entries.append(pairs[rank][reply])
            i += 1
            k += reply
            remaining ^= 1 << rank
    den, scaled, tops = instance.scaled_costs
    return RunResult(
        transcript=tuple.__new__(Transcript, (tuple(entries),)),  # each rank new and in 1..n: no check
        output=instance.fn_spec.value_at(k),
        halted_at=tuple.__new__(InfoState, (i, k)),  # a lattice state: no check
        approached_count=len(entries),
        total_cost_incurred=Fraction(tops[top] + sum(map(scaled.__getitem__, map(itemgetter(0), entries[top:]))), den),
    )


def draw_secrets(instance: ProblemInstance, seed: int) -> tuple[int, ...]:
    """Secrets in rank order, drawn iid from the prior via a seeded generator."""
    rng = random.Random(seed)
    q = instance.q
    return tuple(
        1 if rng.randrange(q.denominator) < q.numerator else 0 for _ in range(instance.n)
    )


def audit_full_tree(instance: ProblemInstance, policy) -> AuditReport:
    """Follow every reply path of the policy and check each decision point.

    At each reached undetermined state the chosen agent's cost is compared to
    the threshold there. A pass certifies that everybody computing truthfully
    is an equilibrium: any unilateral deviation at a reached state reduces to
    the recorded inequality. Stops at the first failure; records are deduped
    by (state, rank) in first-reached order. The walk is depth first, reply 0
    first, and meets each (state, remaining) pair once: the policy sees only
    the pair, so all below a pair met again has been walked, and the records
    are those of the full tree (`oracle.brute_audit`). Only live pairs are
    pushed: the root when it is undetermined, and a child when it lies above
    layer n and its rank row is nonnegative.

    A record's threshold is read from the lattice's `thresholds` table, and
    written there on the state's first record. The threshold m num / b^(n-i)
    is keyed by num b^i, and a `Fraction` is made only for a key that neither
    this audit nor the table holds yet, so the audits of an instance share
    one object per distinct threshold.
    """
    if instance.n > AUDIT_CAP:
        raise CapExceeded(f"full tree audit capped at n={AUDIT_CAP}, instance has n={instance.n}")
    n, costs, lattice = instance.n, instance.costs, instance.lattice
    willing, num, m, b = lattice.rank, lattice.num, lattice._m, lattice._b
    ask = _asker(instance, policy)
    # num b^i -> its threshold, equal keys for equal thresholds in any layer,
    # seeded with the slots an earlier audit filled.
    shared = {
        nums[k] * b ** i: tau
        for i, (taus, nums) in enumerate(zip(vars(lattice).get("thresholds", ()), num))
        for k, tau in enumerate(taus)
        if tau is not None
    }
    table = lattice.thresholds
    # Layer n, after the last approach, is determined throughout.
    below = [*willing[1:], [-1] * (n + 1)]
    # Keyed by ints: (i, k, rank) for the records, (i, k, remaining) for the walk.
    records: dict[tuple[int, int, int], AuditRecord] = {}
    walked: set[tuple[int, int, int]] = set()
    stack = [(0, 0, _all_remaining(instance))] if willing[0][0] >= 0 else []
    try:
        while stack:
            key = stack.pop()
            if key in walked:
                continue
            walked.add(key)
            i, k, remaining = key
            rank = ask(i, k, remaining)
            eligible = rank <= willing[i][k]
            if (i, k, rank) not in records:
                tau = table[i][k]
                if tau is None:
                    scaled = num[i][k] * b ** i
                    tau = shared.get(scaled)
                    if tau is None:
                        # `StateLattice.threshold`, inline: the call is slower.
                        tau = shared[scaled] = Fraction(m * num[i][k], b ** (n - i))
                    table[i][k] = tau
                state = tuple.__new__(InfoState, (i, k))  # a lattice state: no check
                records[i, k, rank] = tuple.__new__(AuditRecord, (state, rank, costs[rank - 1], tau, eligible))
            if not eligible:
                raise PolicyFailed(tuple.__new__(InfoState, (i, k)), FAIL_CHOSEN_INELIGIBLE)  # a lattice state
            rest, row = remaining ^ (1 << rank), below[i]
            if row[k + 1] >= 0:
                stack.append((i + 1, k + 1, rest))
            if row[k] >= 0:
                stack.append((i + 1, k, rest))
    except PolicyFailed as exc:
        return AuditReport(passed=False, records=tuple(records.values()), failure=(exc.state, exc.reason))
    return AuditReport(passed=True, records=tuple(records.values()), failure=None)


def _reach(instance: ProblemInstance, policy) -> tuple[list[int], list[int]]:
    """The forward reach of `deviation_profile` over (state, remaining), in
    layers. Returns `total` and `pivotal`, indexed by rank (entry 0 is 0): at
    each pick of rank r, `total[r]` adds the weight of the paths there and
    `pivotal[r]` that weight times P(i, k), both scaled by b^n for q = a/b.
    Once a rank is picked it leaves `remaining`, so each path picks it at
    most once. A layer holds only live pairs: the root when it is
    undetermined, and a child when it lies above layer n and its rank row is
    nonnegative, so layer n stays empty. Raises the first policy failure met
    in layer order."""
    n, lattice = instance.n, instance.lattice
    num, willing = lattice.num, lattice.rank
    a, b = instance.q.numerator, instance.q.denominator
    prior = (b - a, a)  # weight of a 0 and of a 1, scaled by b
    # Layer n, after the last approach, is determined throughout.
    below = [*willing[1:], [-1] * (n + 1)]
    total, pivotal = [0] * (n + 1), [0] * (n + 1)
    ask = _asker(instance, policy)
    # (ones, remaining) -> weight of the paths reaching it at this depth,
    # scaled by b^depth.
    layer = {(0, _all_remaining(instance)): 1} if willing[0][0] >= 0 else {}
    for i in range(n):
        reached: dict = {}
        scale, row, live = b ** (n - i), num[i], below[i]
        for (k, remaining), weight in layer.items():
            chosen = ask(i, k, remaining)
            total[chosen] += weight * scale
            pivotal[chosen] += weight * row[k] * b
            rest = remaining ^ (1 << chosen)
            for bit in (0, 1):
                if live[k + bit] >= 0:
                    key = (k + bit, rest)
                    reached[key] = reached.get(key, 0) + weight * prior[bit]
        layer = reached
    return total, pivotal


def deviation_profile(instance: ProblemInstance, policy, rank: int) -> dict[Action, Fraction]:
    """Expected utility of all six actions for the agent at `rank`, with every
    other agent computing and reporting truthfully.

    Utilities are conditional on the policy actually approaching the agent
    (the deviation only ever takes effect at that moment); a never-approached
    agent pays nothing and all six actions collapse to the unconditional
    probability that the output is correct, which is 1.

    Say the policy approaches the agent at state (i, k). Its secret s and the
    ones-count m of the n-i-1 other unapproached agents are independent of
    the path there, and the game stops only once the output is forced, so
    reply r yields fn(k+r+m) against the true fn(k+s+m). These differ exactly
    when r != s and fn flips between k+m and k+m+1, which has the lattice's
    probability P(i, k). So with Pbar the mean of P over the agent's approach
    states, weighted by the chance of reaching each, an action is correct
    with probability 1 - Pbar Pr[reply(s) != s]: 1 for truthful, 1 - Pbar for
    lie, 1 - q Pbar for the two replying 0 and 1 - (1-q) Pbar for the two
    replying 1.

    A forward reach over (state, remaining) carries the weights and meets
    every reachable pair once. It does not depend on `rank`: one walk sums
    the weights at the picks of every rank, and the instance keeps the sums
    of the last policy asked, so profiling each rank under one policy (or
    under equal built-in policies) walks once. A policy must therefore be a
    function of (i, k, remaining) alone. A policy failure at any reachable
    pair fails every rank, with the first exception met in layer order, and
    is not kept. `oracle.brute_deviation_profiles(instance, policy)[rank]` is
    the same profile from all 2^n secret vectors.
    """
    n = instance.n
    if n > DEVIATION_CAP:
        raise CapExceeded(f"deviation profile capped at n={DEVIATION_CAP}, instance has n={n}")
    if not isinstance(rank, int) or rank is True or rank not in instance.ranks:
        raise ValueError(f"rank {rank!r} is not an int in 1..{n}")
    memo = instance._deviation_memo
    # One read takes the pair: the comparison may run code that refills it.
    seen, sums = memo or (None, None)
    if sums is None or seen != policy:
        sums = _reach(instance, policy)
        memo[:] = (policy, sums)
    total, pivotal = sums[0][rank], sums[1][rank]
    if not total:
        # Every path ends where the output is forced, which is the true value.
        return {action: Fraction(1) for action in ALL_ACTIONS}
    a, b = instance.q.numerator, instance.q.denominator
    c, d = instance._cost_pairs[rank - 1]
    # Utility 1 - pivotal miss / (total b) - c/d over total b d; miss = b Pr[misreport].
    whole = total * b
    return {
        action: Fraction((whole - pivotal * ((b - a) * miss0 + a * miss1)) * d - c * whole * computes, whole * d)
        for action, miss0, miss1, computes in _MISREPORTS
    }
