"""Policies, game execution, the full-tree audit, and deviation utilities."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from array import array
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    example1_instance,
    example2_instance,
    example3_instance,
    make_instance,
    random_instance,
    threshold_cost_instance,
)
from seqelicit import mechanism
from seqelicit.errors import CapExceeded, PolicyFailed, StateExhausted
from seqelicit.mechanism import (
    AUDIT_CAP,
    DEVIATION_CAP,
    FixedOrderPolicy,
    HcfPolicy,
    RunResult,
    _next_rank,
    audit_full_tree,
    deviation_profile,
    draw_secrets,
    run,
)
from seqelicit.cli import _label_json, _labels
from seqelicit.oracle import brute_audit, brute_deviation_profiles, determine, full_lattice, mirror
from seqelicit.model import (
    ALL_ACTIONS,
    COMPUTE_REPORT_ONE,
    COMPUTE_REPORT_ZERO,
    GUESS_ONE,
    GUESS_ZERO,
    AnonymousFunctionSpec,
    InfoState,
    ProblemInstance,
    TRUTHFUL_COMPUTE,
    Transcript,
    consensus,
    emit,
    ingest,
    majority,
    parity,
)
from seqelicit.pivotal import c_of, edges, nodes, pivotal_prob, threshold
from seqelicit.verify import REASON_C_UNDEFINED, exists_appropriate


def test_hcf_next_prefers_highest_rank_among_ties():
    inst = example2_instance()
    rank = HcfPolicy(inst).next(0, 0, 0b11110)
    assert rank == 3


def test_hcf_next_last_agent():
    inst = example2_instance()
    assert HcfPolicy(inst).next(3, 0, 0b10000) == 4


def test_hcf_next_fails_when_nobody_willing():
    inst = example1_instance()
    with pytest.raises(PolicyFailed) as excinfo:
        HcfPolicy(inst).next(0, 0, (1 << 12) - 2)
    assert excinfo.value.reason == "no_eligible_agent"


def test_hcf_policy_halts_exactly_when_determined():
    # The executor stops at the determined state (2,1) with output 0 and asks
    # the policy again at the undetermined (1,0).
    inst = example2_instance()
    assert determine(InfoState(2, 1), inst.fn_spec) == 0
    assert determine(InfoState(1, 0), inst.fn_spec) is None
    result = run(inst, HcfPolicy(inst), (0, 1, 0, 1))
    assert result.halted_at == InfoState(2, 1)
    assert result.output == 0
    assert HcfPolicy(inst).next(1, 0, 0b10110) in (1, 2, 4)


def _random_remaining(rng, n):
    """A random set of ranks from 1..n, and the same set as a mask."""
    ranks = {r for r in range(1, n + 1) if rng.random() < 0.5}
    return ranks, sum(1 << r for r in ranks)


def test_hcf_next_matches_the_set_reference(corpus_main):
    # The largest r in R with r <= c, or PolicyFailed at the same state with
    # the same reason, for random R at every state of the corpus.
    rng = random.Random(20261018)
    for inst in corpus_main:
        policy = HcfPolicy(inst)
        for i in range(inst.n):
            for k in range(i + 1):
                state = InfoState(i, k)
                willing = c_of(state, inst) or 0
                for _ in range(4):
                    ranks, mask = _random_remaining(rng, inst.n)
                    expected = max((r for r in ranks if r <= willing), default=None)
                    if expected is None:
                        with pytest.raises(PolicyFailed) as excinfo:
                            policy.next(i, k, mask)
                        assert (excinfo.value.state, excinfo.value.reason) == (state, "no_eligible_agent")
                    else:
                        assert policy.next(i, k, mask) == expected


def test_fixed_order_next_matches_the_set_reference(corpus_main):
    # The lowest rank in R, for random nonempty R at every state of the corpus.
    rng = random.Random(20261019)
    for inst in corpus_main:
        policy = FixedOrderPolicy(inst)
        for i in range(inst.n):
            for k in range(i + 1):
                for _ in range(4):
                    ranks, mask = _random_remaining(rng, inst.n)
                    if ranks:
                        assert policy.next(i, k, mask) == min(ranks)


def test_run_consensus_trace():
    inst = example2_instance()
    result = run(inst, HcfPolicy(inst), (0, 0, 0, 1))
    assert [r for r, _ in result.transcript.entries] == [3, 2, 1, 4]
    assert result.output == 0
    assert result.halted_at == InfoState(4, 1)
    assert result.approached_count == 4
    assert result.total_cost_incurred == Fraction(2, 5)


def test_run_halts_after_two_differing_replies():
    inst = example2_instance()
    result = run(inst, HcfPolicy(inst), (0, 1, 0, 1))
    assert [r for r, _ in result.transcript.entries] == [3, 2]
    assert result.output == 0
    assert result.halted_at == InfoState(2, 1)


def test_run_parity_three():
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    result = run(inst, HcfPolicy(inst), (1, 1, 0))
    assert result.approached_count == 3
    assert result.output == 0
    for secrets in ((1, 1), (1, 1, 0, 0), (1, 2, 0), (1, "1", 0), (1.0, 0, 1), (Fraction(1), 0, 0)):
        with pytest.raises(ValueError, match="secrets must be 3 bits"):
            run(inst, HcfPolicy(inst), secrets)


class _Bit:
    """A secret that is no int but has `__index__`, as numpy's integers do."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _run_outcome(inst, policy, secrets):
    try:
        return run(inst, policy, secrets)
    except PolicyFailed as exc:
        return exc.state, exc.reason


def test_run_reads_any_form_of_the_same_secrets_alike(corpus_main):
    # `run` reads its secrets as one `bytes`: every iterable of n elements
    # that `bytes()` takes as 0 or 1 gives the same game, with plain-int
    # entries whatever the elements' type.
    rng = random.Random(20261022)
    for inst in corpus_main:
        secrets = tuple(rng.randrange(2) for _ in range(inst.n))
        for policy in (HcfPolicy(inst), FixedOrderPolicy(inst)):
            expected = _run_outcome(inst, policy, secrets)
            for form in (
                list(secrets),
                bytes(secrets),
                bytearray(secrets),
                (bit for bit in secrets),
                tuple(map(bool, secrets)),
                [_Bit(bit) for bit in secrets],
                array("h", secrets),
            ):
                outcome = _run_outcome(inst, policy, form)
                assert outcome == expected
                if isinstance(outcome, RunResult):
                    assert all(type(reply) is int for _, reply in outcome.transcript.entries)
                    assert type(outcome.halted_at.ones) is int
    inst = corpus_main[0]
    # `bytes(5)` would be five zero secrets; a non-iterable is refused first.
    with pytest.raises(TypeError):
        run(inst, HcfPolicy(inst), inst.n)
    for bad in (-1, 256, 2**70, _Bit(2), _Bit(-1)):
        with pytest.raises(ValueError, match=f"secrets must be {inst.n} bits"):
            run(inst, HcfPolicy(inst), [bad] + [0] * (inst.n - 1))


def _reference_run(inst, policy_type, secrets):
    """`run` stepped by the public lookups: `determine` for the stop, and
    `c_of` (HCF) or the lowest rank (fixed order) over a set of remaining ranks."""
    state, remaining, entries = InfoState(0, 0), set(inst.ranks), []
    while (output := determine(state, inst.fn_spec)) is None:
        if policy_type is HcfPolicy:
            rank = max((r for r in remaining if r <= (c_of(state, inst) or 0)), default=None)
            if rank is None:
                raise PolicyFailed(state, "no_eligible_agent")
        else:
            rank = min(remaining)
        remaining.remove(rank)
        entries.append((rank, secrets[rank - 1]))
        state = InfoState(state.approached + 1, state.ones + secrets[rank - 1])
    return tuple(entries), output, state


def _threshold_cost_corpus():
    rng = random.Random(20261020)
    return [
        threshold_cost_instance(family(n), zeros, rng)
        for family in (parity, majority, consensus)
        for n, zeros in ((1, 0), (7, 2), (20, 5), (41, 10), (60, 0), (60, 45))
    ]


@pytest.mark.parametrize("policy_type", [HcfPolicy, FixedOrderPolicy])
def test_run_matches_the_reference_loop(corpus_main, policy_type):
    # The integer-stepping executor against a loop over the public lookups,
    # with seeded secrets: the same transcript, output, halting state and
    # total cost, or PolicyFailed at the same state.
    rng = random.Random(20261021)
    ran = failed = 0
    for inst in (*corpus_main, *_threshold_cost_corpus()):
        policy = policy_type(inst)
        for _ in range(3):
            secrets = tuple(rng.randrange(2) for _ in range(inst.n))
            try:
                entries, output, state = _reference_run(inst, policy_type, secrets)
            except PolicyFailed as exc:
                with pytest.raises(PolicyFailed) as excinfo:
                    run(inst, policy, secrets)
                assert (excinfo.value.state, excinfo.value.reason) == (exc.state, exc.reason)
                failed += 1
                continue
            result = run(inst, policy, secrets)
            assert (result.transcript.entries, result.output, result.halted_at) == (entries, output, state)
            assert result.approached_count == len(entries)
            assert result.total_cost_incurred == sum((inst.costs[r - 1] for r, _ in entries), Fraction(0))
            ran += 1
    assert ran and (failed > 0) == (policy_type is HcfPolicy)


def test_run_totals_the_cost_of_its_transcript():
    # `run` reads the cost of HCF's top-rank prefix from the instance's
    # `scaled_costs` and adds up only the steps after it; the total must be
    # the sum of the approached ranks' costs. Games wholly in the prefix
    # (parity and consensus, zero and low costs), games that leave it, games
    # whose dearest agent is unwilling at the root so the prefix is empty,
    # games of policies that never take it (fixed order and an HCF subclass),
    # and costs over many distinct prime denominators must each show up.
    class Subclass(HcfPolicy):
        pass

    rng = random.Random(20261025)
    insts = []
    for n in (5, 30, 90):
        for fn in (parity(n), consensus(n)):
            insts.append(ProblemInstance.create(Fraction(3, 5), [Fraction(0)] * n, fn))
            low = [Fraction(rng.randrange(4), 2048) for _ in range(n)]
            insts.append(ProblemInstance.create(Fraction(1, 2), low, fn))
    insts += [_dear_top_majority(n) for n in (9, 40, 100)]
    for fn in (majority(7), majority(30), consensus(4)):
        insts.append(ProblemInstance.create(Fraction(1, 2), [Fraction(0)] * (fn.n - 1) + [Fraction(9, 10)], fn))
    primes = [p for p in range(3, 200) if all(p % d for d in range(2, p))]
    for fn in (parity(40), majority(40), consensus(6)):
        costs = [Fraction(rng.randrange(p // 3), p) for p in primes[: fn.n]]
        insts.append(ProblemInstance.create(Fraction(1, 2), costs, fn))
    kinds = dict.fromkeys(("wholly_top", "left_top", "empty_top", "fixed", "subclass", "primes"), 0)
    for inst in insts:
        many_dens = len({c.denominator for c in inst.costs}) >= 20
        for policy in (HcfPolicy(inst), FixedOrderPolicy(inst), Subclass(inst)):
            for _ in range(6):
                game = _game(inst, policy, tuple(rng.randrange(2) for _ in range(inst.n)))
                if type(game) is not RunResult or not game.approached_count:
                    continue
                total = sum((inst.costs[r - 1] for r, _ in game.transcript.entries), Fraction(0))
                assert game.total_cost_incurred == total, (inst, game)
                if type(policy) is HcfPolicy:
                    top = _top_rank_steps(inst, game)
                    kinds["wholly_top" if top == game.approached_count else "left_top" if top else "empty_top"] += 1
                    kinds["primes"] += bool(many_dens and top and total)
                else:
                    kinds["fixed" if type(policy) is FixedOrderPolicy else "subclass"] += 1
    assert all(kinds.values()), kinds


def test_the_top_cost_sums_are_suffix_sums_built_only_by_run():
    # Entry L of `scaled_costs[2]` is the scaled cost of the L dearest ranks,
    # n - L + 1..n. `verify`, the audits, `nodes` and `edges` leave it
    # unbuilt, a run of any policy builds it, and equality, hashing and the
    # repr ignore it.
    rng = random.Random(20261026)
    for seed in range(30):
        n = seed % 9 + 1
        inst, twin = (random_instance(random.Random(seed), n, max_cost_k=16) for _ in range(2))
        exists_appropriate(inst)
        audit_full_tree(inst, HcfPolicy(inst))
        audit_full_tree(inst, FixedOrderPolicy(inst))
        nodes(inst), edges(inst)
        assert "scaled_costs" not in vars(inst)
        run(inst, FixedOrderPolicy(inst), tuple(rng.randrange(2) for _ in range(n)))
        tops, den = vars(inst)["scaled_costs"][2], inst.scaled_costs[0]
        assert len(tops) == n + 1 and inst.scaled_costs[2] is tops
        for length in range(n + 1):
            assert Fraction(tops[length], den) == sum(inst.costs[n - length :], Fraction(0))
        assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)


class _Recording:
    """A policy that keeps every argument tuple it is handed and asks `inner`
    for the rank."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def next(self, i, k, remaining):
        self.seen.append((i, k, remaining))
        return self.inner.next(i, k, remaining)


@pytest.mark.parametrize("policy_type", [HcfPolicy, FixedOrderPolicy])
def test_executors_hand_the_policy_ints_at_undetermined_states_only(policy_type):
    # `run`, the audit and the deviation reach pass the policy plain ints,
    # never an InfoState, and ask it only at a lattice state (0 <= k <= i < n)
    # that the rank row marks undetermined.
    rng = random.Random(20261019)
    insts = [example2_instance(), example3_instance(), make_instance("1/2", ["1/10"] * 4, parity(4).ones_to_one)]
    insts += [random_instance(rng, n, max_cost_k=16) for n in (1, 3, 5, 7, 8)]
    for inst in insts:
        runs, audit, reach = (_Recording(policy_type(inst)) for _ in range(3))
        for secrets in itertools.product((0, 1), repeat=inst.n):
            try:
                run(inst, runs, secrets)
            except PolicyFailed:
                pass
        audit_full_tree(inst, audit)
        _outcome(deviation_profile, inst, reach, 1)
        assert runs.seen and audit.seen and reach.seen
        for policy in (runs, audit, reach):
            for args in policy.seen:
                assert all(type(arg) is int for arg in args)
                i, k, remaining = args
                assert 0 <= k <= i < inst.n and inst.lattice.rank[i][k] >= 0
                assert remaining & 1 == 0 and remaining.bit_count() == inst.n - i


def test_hcf_next_past_the_last_layer_raises_as_c_of_does():
    # Only (i, k) with 0 <= k <= i < n is a lattice state. Layer n is
    # exhausted; beyond it, k > i, k < 0 and i < 0 are out of range, though
    # a negative index would read a row from its end.
    inst = example2_instance()
    rows = [
        (4, 0, StateExhausted),
        (4, 4, StateExhausted),
        (5, 0, ValueError),
        (1, 2, ValueError),
        (2, -1, ValueError),
        (-1, 0, ValueError),
        (-1, -1, ValueError),
    ]
    for i, k, error in rows:
        with pytest.raises(error):
            HcfPolicy(inst).next(i, k, 0b10000)
        with pytest.raises(error):
            c_of(InfoState(i, k), inst)


def test_run_constant_function_no_approaches():
    inst = make_instance("1/2", ["1/10"], [True, True])
    result = run(inst, HcfPolicy(inst), (0,))
    assert result.output == 1
    assert result.approached_count == 0
    assert result.total_cost_incurred == 0


def test_run_output_always_correct_and_at_most_n_steps():
    for inst in (example2_instance(), make_instance("3/5", ["1/10"] * 3, parity(3).ones_to_one)):
        policy = HcfPolicy(inst)
        for secrets in itertools.product((0, 1), repeat=inst.n):
            result = run(inst, policy, secrets)
            assert result.output == inst.fn_spec.value_at(sum(secrets))
            ranks = [r for r, _ in result.transcript.entries]
            assert len(ranks) == len(set(ranks)) <= inst.n


def test_run_raises_on_policy_failure():
    inst = example1_instance()
    with pytest.raises(PolicyFailed) as excinfo:
        run(inst, HcfPolicy(inst), (1,) * 11)
    assert excinfo.value.state == InfoState(0, 0)


def test_audit_consensus_passes():
    report = audit_full_tree(example2_instance(), HcfPolicy(example2_instance()))
    assert report.passed
    assert report.failure is None
    assert all(rec.eligible for rec in report.records)


def test_audit_majority_fails_at_root():
    inst = example1_instance()
    report = audit_full_tree(inst, HcfPolicy(inst))
    assert not report.passed
    assert report.failure == (InfoState(0, 0), "no_eligible_agent")
    assert report.records == ()


def test_audit_parity_thresholds():
    inst = example3_instance()
    report = audit_full_tree(inst, HcfPolicy(inst))
    assert report.passed
    assert report.records
    assert all(rec.threshold == Fraction(1, 2) for rec in report.records)


def test_audit_flags_ineligible_choice():
    # The fixed-order baseline approaches rank 1 at the root where nobody is
    # willing, so the audit must call it out.
    inst = example1_instance()
    report = audit_full_tree(inst, FixedOrderPolicy(inst))
    assert not report.passed
    assert report.failure == (InfoState(0, 0), "chosen_ineligible")
    assert report.records[0].rank == 1
    assert not report.records[0].eligible


def test_audit_cap():
    # The cap is checked before any work, so an instance just over it fails at once.
    n = AUDIT_CAP + 1
    inst = make_instance("1/2", ["0"] * n, parity(n).ones_to_one)
    with pytest.raises(CapExceeded):
        audit_full_tree(inst, HcfPolicy(inst))


def test_deviation_fixed_order_guess_one():
    inst = example1_instance()
    utility = deviation_profile(inst, FixedOrderPolicy(inst), 1)[GUESS_ONE]
    assert utility == Fraction(449, 512)


def test_deviation_hcf_last_agent_payoffs():
    inst = example2_instance()
    policy = HcfPolicy(inst)
    profile = deviation_profile(inst, policy, 4)
    assert profile[TRUTHFUL_COMPUTE] == Fraction(3, 5)
    assert profile[GUESS_ONE] == Fraction(1, 2)
    assert profile[GUESS_ZERO] == Fraction(1, 2)


def test_deviation_profile_consistent_with_utility():
    inst = example2_instance()
    policy = HcfPolicy(inst)
    profile = deviation_profile(inst, policy, 4)
    assert profile[TRUTHFUL_COMPUTE] == Fraction(3, 5)
    assert set(profile) == set(ALL_ACTIONS)


def test_deviation_never_approached_agent():
    # A constant function halts at the root, so nobody is ever approached and
    # every action collapses to the bare correctness probability (1 here).
    constant = make_instance("1/2", ["1/10", "1/10"], [True, True, True])
    profile = deviation_profile(constant, HcfPolicy(constant), 1)
    assert all(value == 1 for value in profile.values())


def test_deviation_cap():
    n = DEVIATION_CAP + 1
    inst = make_instance("1/2", ["0"] * n, parity(n).ones_to_one)
    with pytest.raises(CapExceeded):
        deviation_profile(inst, HcfPolicy(inst), 1)


def test_best_response_on_examples():
    for inst in (example2_instance(), make_instance("1/2", ["1/10"] * 4, parity(4).ones_to_one)):
        policy = HcfPolicy(inst)
        report = audit_full_tree(inst, policy)
        assert report.passed
        for rank in sorted({rec.rank for rec in report.records}):
            profile = deviation_profile(inst, policy, rank)
            truthful = profile[TRUTHFUL_COMPUTE]
            assert truthful == 1 - inst.costs[rank - 1]
            for action in ALL_ACTIONS:
                assert profile[action] <= truthful


def test_sample_run_deterministic():
    inst = example3_instance()
    a = run(inst, HcfPolicy(inst), draw_secrets(inst, 1234))
    b = run(inst, HcfPolicy(inst), draw_secrets(inst, 1234))
    assert a == b
    c = run(inst, HcfPolicy(inst), draw_secrets(inst, 1235))
    assert isinstance(c.output, int)


def test_sample_run_single_agent():
    inst = make_instance("1/2", ["1/4"], [False, True])
    for seed in range(8):
        result = run(inst, HcfPolicy(inst), draw_secrets(inst, seed))
        assert result.approached_count == 1
        assert result.output == result.transcript.entries[0][1]


def test_sample_run_frequency_matches_prior():
    inst = example2_instance()
    policy = HcfPolicy(inst)
    runs = 10_000
    ones = sum(run(inst, policy, draw_secrets(inst, seed)).output for seed in range(runs))
    p = Fraction(1, 8)
    stderr = (float(p) * (1 - float(p)) / runs) ** 0.5
    assert abs(ones / runs - float(p)) <= 3 * stderr


class CountingPolicy:
    """Counts the calls to the wrapped policy's `next`."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def next(self, i, k, remaining):
        self.calls += 1
        return self.inner.next(i, k, remaining)


def test_run_stays_on_one_path():
    # A single run consults the policy once per step along the realized path,
    # never expanding the reply tree.
    inst = example3_instance()
    policy = CountingPolicy(HcfPolicy(inst))
    run(inst, policy, (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1))
    assert policy.calls <= inst.n


class _Delegating:
    """A plain policy whose `next` is another policy's bound `next`: `run`
    calls it on every step, as it calls any policy but `HcfPolicy` itself."""

    def __init__(self, inner):
        self.next = inner.next


def _game(inst, policy, secrets):
    """`run`'s result, or its exception as type and, for a policy failure,
    state and reason, else message."""
    try:
        return run(inst, policy, secrets)
    except PolicyFailed as exc:
        return type(exc), exc.state, exc.reason
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc), str(exc)


def _hcf_against_the_generic_loop(inst, secret_vectors) -> list:
    """Each vector's game under `HcfPolicy`, whose top-rank prefix `run`
    walks without `next`, after asserting it equal, field by field or
    failure by failure, to the game of the same rule called through `next`
    on every step."""
    kernel, generic = HcfPolicy(inst), _Delegating(HcfPolicy(inst))
    games = []
    for secrets in secret_vectors:
        game = _game(inst, kernel, secrets)
        assert game == _game(inst, generic, secrets), (inst, secrets)
        games.append(game)
    return games


def _skips_a_dearer_rank(inst, result) -> bool:
    """Whether some step of the game took a rank below the top one remaining."""
    remaining = set(inst.ranks)
    for rank, _ in result.transcript.entries:
        if rank != max(remaining):
            return True
        remaining.remove(rank)
    return False


def _counting_down(ranks, first) -> int:
    """How many leading ranks count down by one from `first`."""
    return next((step for step, rank in enumerate(ranks) if rank != first - step), len(ranks))


def _top_rank_steps(inst, result) -> int:
    """How many steps the game takes from its first on, each at the top rank
    remaining: the steps `run` walks in its top-rank prefix."""
    return _counting_down([rank for rank, _ in result.transcript.entries], inst.n)


@pytest.mark.parametrize("corpus_name", ["corpus_main", "corpus_small", "corpus_pivotal", "corpus_br"])
def test_inline_hcf_games_match_the_generic_loop_on_the_corpora(corpus_name, request):
    # Every secret vector up to n = 4, seeded draws above that.
    rng = random.Random(20261020)
    for inst in request.getfixturevalue(corpus_name):
        if inst.n <= 4:
            vectors = list(itertools.product((0, 1), repeat=inst.n))
        else:
            vectors = [tuple(rng.randrange(2) for _ in range(inst.n)) for _ in range(6)]
        _hcf_against_the_generic_loop(inst, vectors)


def _top_depth(inst) -> int:
    """The first layer holding a state (i, k) with a willing rank below the
    top rank n - i, determined states included, else n: `oracle.full_lattice`'s
    rank rows read state by state, the reference for `StateLattice.top_depth`."""
    rank = full_lattice(inst)[1]
    for i in range(inst.n):
        for k in range(i + 1):
            if rank[i][k] < inst.n - i:
                return i
    return inst.n


@pytest.mark.parametrize("corpus_name", ["corpus_main", "corpus_small", "corpus_pivotal", "corpus_br"])
def test_top_depth_matches_a_state_by_state_scan_of_the_full_lattice(corpus_name, request):
    depths = set()
    for inst in request.getfixturevalue(corpus_name):
        depth = inst.lattice.top_depth
        assert type(depth) is int and depth == _top_depth(inst), inst
        depths.add(depth)
    assert len(depths) > 1


def test_top_depth_of_the_dear_top_majorities():
    # At even n a first reply of 0 already leaves rank n - 1 unwilling; at odd
    # n both states of layer 1 keep it willing and a state of layer 2 leaves
    # rank n - 2 unwilling.
    for n in (*range(9, 41), 100, 101):
        inst = _dear_top_majority(n)
        assert inst.lattice.top_depth == _top_depth(inst) == (1 if n % 2 == 0 else 2), n


def _dear_top_majority(n: int) -> ProblemInstance:
    """Majority at q = 1/2 with its three dearest agents at the root's
    threshold: they are willing at the root but not at every later state (at
    even n, not after a first reply of 0), so HCF takes the top rank first
    and the steps after that prefix call `next`."""
    root = threshold(InfoState(0, 0), ProblemInstance.create(Fraction(1, 2), (Fraction(0),) * n, majority(n)))
    return ProblemInstance.create(Fraction(1, 2), (Fraction(0),) * (n - 3) + (root,) * 3, majority(n))


def test_inline_hcf_games_match_the_generic_loop_at_scale():
    # Parity and majority at n = 100..150: zero costs, where every game runs
    # to the forced output; threshold costs, where willing ranks spread over
    # 0..n so the rule skips dearer ranks and can fail mid-game; and a flat
    # 2/5, where HCF fails at the root. Each kind of game must show up.
    rng = random.Random(20261021)
    insts = []
    for n in (100, 125, 150):
        for fn in (parity(n), majority(n)):
            insts.append(ProblemInstance.create(Fraction(3, 5), (Fraction(0),) * n, fn))
            insts += [threshold_cost_instance(fn, zeros, rng) for zeros in (0, n // 10, n // 2)]
            insts.append(ProblemInstance.create(Fraction(1, 2), (Fraction(2, 5),) * n, fn))
    insts += [threshold_cost_instance(majority(n), zeros, rng) for n in (7, 20, 41) for zeros in (0, 2)]
    insts.append(example1_instance())
    insts += [_dear_top_majority(n) for n in (100, 125, 150)]
    finished = skipped = failed_at_root = failed_later = 0
    # Finished games that run wholly in the top-rank prefix, and finished
    # games that leave it at an undetermined state after at least one step
    # there and go on through `next`.
    wholly_top = handed_over = 0
    # Instances whose top depth d is 0, where the prefix walk reads the root's
    # row at once; in 1..n-1, where it leaves the row-free layers for the row
    # walk; and n, where the whole game takes no row read.
    depths = set()
    for inst in insts:
        depth = inst.lattice.top_depth
        assert depth == _top_depth(inst), inst
        depths.add("none" if depth == 0 else "all" if depth == inst.n else "some")
        vectors = [tuple(rng.randrange(2) for _ in range(inst.n)) for _ in range(8)]
        for game in _hcf_against_the_generic_loop(inst, vectors):
            if type(game) is RunResult:
                finished += 1
                skipped += _skips_a_dearer_rank(inst, game)
                top = _top_rank_steps(inst, game)
                wholly_top += top == game.approached_count
                handed_over += 0 < top < game.approached_count
            else:
                assert game[0] is PolicyFailed and game[2] == "no_eligible_agent"
                failed_at_root += game[1] == InfoState(0, 0)
                failed_later += game[1] != InfoState(0, 0)
    assert finished and skipped and failed_at_root and failed_later
    assert wholly_top and handed_over
    assert depths == {"none", "some", "all"}


def test_hcf_games_call_next_on_every_step_after_the_top_rank_prefix(monkeypatch):
    # `run` walks HCF's top-rank prefix without calling `next` and calls it
    # once on every step after. The count wraps the class's own `next`, not a
    # subclass's, so the prefix walk still applies.
    calls = 0
    hcf_next = HcfPolicy.next

    def counting_next(self, i, k, remaining):
        nonlocal calls
        calls += 1
        return hcf_next(self, i, k, remaining)

    monkeypatch.setattr(HcfPolicy, "next", counting_next)
    rng = random.Random(20261024)
    insts = [_dear_top_majority(n) for n in (9, 40, 100)]
    for n in (9, 40, 100):
        for fn in (parity(n), majority(n)):
            insts += [threshold_cost_instance(fn, zeros, rng) for zeros in (0, n // 2, n)]
    wholly_top = handed_over = 0
    for inst in insts:
        for secrets in [tuple(rng.randrange(2) for _ in range(inst.n)) for _ in range(6)]:
            calls = 0
            game = _game(inst, HcfPolicy(inst), secrets)
            if type(game) is not RunResult:
                continue
            top = _top_rank_steps(inst, game)
            assert calls == game.approached_count - top, (inst, secrets)
            if top == game.approached_count:
                wholly_top += 1
                assert calls == 0
            else:
                handed_over += 1
    assert wholly_top and handed_over


def test_hcf_subclasses_and_foreign_instances_are_called_on_every_step(monkeypatch):
    # A subclass may override `next`, and a policy over another instance
    # reads other rows, so `run` calls both through `next` on every step.
    class Counting(HcfPolicy):
        calls = 0

        def next(self, i, k, remaining):
            self.calls += 1
            return super().next(i, k, remaining)

    rng = random.Random(20261022)
    insts = [example2_instance(), example3_instance()]
    insts += [random_instance(rng, n, max_cost_k=16) for n in (3, 6, 9)]
    for inst in insts:
        for secrets in [tuple(rng.randrange(2) for _ in range(inst.n)) for _ in range(8)]:
            policy = Counting(inst)
            game = _game(inst, policy, secrets)
            assert game == _game(inst, HcfPolicy(inst), secrets)
            if type(game) is RunResult:
                assert policy.calls == game.approached_count
    # Policies over other instances: the same n with other willing ranks, a
    # larger n, and a smaller n, whose rows end before this game does.
    a = make_instance("1/2", ["1/10", "1/5", "3/10", "2/5"], parity(4).ones_to_one)
    others = (
        make_instance("1/2", ["0", "0", "1/5", "2/5"], consensus(4).ones_to_one),
        example3_instance(),
        make_instance("1/2", ["0"] * 6, majority(6).ones_to_one),
        make_instance("3/5", ["0", "0"], parity(2).ones_to_one),
    )
    outcomes = set()
    for b in others:
        for secrets in itertools.product((0, 1), repeat=a.n):
            game = _game(a, HcfPolicy(b), secrets)
            assert game == _game(a, _Delegating(HcfPolicy(b)), secrets)
            outcomes.add(type(game) if type(game) is RunResult else game[0])
    assert outcomes == {RunResult, PolicyFailed, StateExhausted}
    # `HcfPolicy` itself over its own instance is not called while the
    # top-rank prefix lasts.
    vectors = list(itertools.product((0, 1), repeat=a.n))
    games = {secrets: _game(a, _Delegating(HcfPolicy(a)), secrets) for secrets in vectors}
    monkeypatch.setattr(HcfPolicy, "next", None)
    for secrets, game in games.items():
        assert type(game) is RunResult and run(a, HcfPolicy(a), secrets) == game


def test_a_failing_hcf_game_raises_before_the_cost_total_is_read():
    # Four costs just under 1/2 over odd 14000-bit denominators, majority:
    # HCF fails at the root, and the costs' common denominator runs past the
    # 4300 digits `scaled_costs` allows. The game's failure comes first.
    rng = random.Random(9101)
    dens = [rng.getrandbits(14000) | 1 << 13999 | 1 for _ in range(4)]
    inst = ProblemInstance.create(Fraction(1, 2), [Fraction(d // 2 - 1, d) for d in dens], majority(4))
    for secrets in itertools.product((0, 1), repeat=4):
        with pytest.raises(PolicyFailed) as excinfo:
            run(inst, HcfPolicy(inst), secrets)
        assert (excinfo.value.state, excinfo.value.reason) == (InfoState(0, 0), "no_eligible_agent")
    with pytest.raises(CapExceeded, match="cost totals capped at 4300 digits"):
        run(inst, FixedOrderPolicy(inst), (0, 0, 0, 0))


class _RepeatingPolicy:
    """Names the same rank at every state, whether or not it is still remaining."""

    def __init__(self, rank):
        self.rank = rank

    def next(self, i, k, remaining):
        return self.rank


@pytest.mark.parametrize("rank", [1, 0, 4])
def test_executors_reject_a_rank_that_is_not_remaining(rank):
    # Rank 1 is approached again one step after the first; 0 and 4 lie
    # outside 1..3. Parity is undetermined until the last reply.
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    policy = _RepeatingPolicy(rank)
    with pytest.raises(ValueError):
        run(inst, policy, (0, 1, 1))
    with pytest.raises(ValueError):
        audit_full_tree(inst, policy)
    with pytest.raises(ValueError):
        deviation_profile(inst, policy, 1)


@pytest.mark.parametrize("rank", [1.0, "2", None, -1, 2**70])
def test_executors_reject_a_rank_that_is_not_an_int_in_range(rank):
    # A mask answers only int ranks 1..n; anything else is not remaining.
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    policy = _RepeatingPolicy(rank)
    with pytest.raises(ValueError):
        run(inst, policy, (0, 1, 1))
    with pytest.raises(ValueError):
        audit_full_tree(inst, policy)
    with pytest.raises(ValueError):
        deviation_profile(inst, policy, 1)


class _TruePolicy:
    """The lowest remaining rank, but True in place of rank 1."""

    def next(self, i, k, remaining):
        rank = (remaining & -remaining).bit_length() - 1
        return True if rank == 1 else rank


def test_executors_reject_a_bool_rank():
    # True is an int equal to 1, so without a check of its own it would pass
    # as rank 1: the transcript would start (True, 1) and the audit would
    # record rank=True. (A policy naming True at every step is caught anyway,
    # as a repeat, one step later.)
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    with pytest.raises(ValueError):
        run(inst, _TruePolicy(), (1, 0, 1))
    with pytest.raises(ValueError):
        audit_full_tree(inst, _TruePolicy())
    with pytest.raises(ValueError):
        deviation_profile(inst, _TruePolicy(), 1)


class _Rank(int):
    """An int subclass: accepted wherever the int it equals is."""


# Answers at layer 1 of parity(3), after the root has approached rank 3.
ANSWERS = [2, 3, 0, 4, -1, True, False, 1.0, "2", None, 2**70, _Rank(2)]


class _AnswerPolicy:
    """Rank 3 at the root, `answer` at layer 1, then the lowest remaining rank."""

    def __init__(self, answer):
        self.answer = answer

    def next(self, i, k, remaining):
        if i == 0:
            return 3
        if i == 1:
            return self.answer
        return (remaining & -remaining).bit_length() - 1


def _refusal(check, *args):
    """The ValueError message `check` raised, or None if it raised none."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("answer", ANSWERS, ids=[f"{type(a).__name__}:{a!r}" for a in ANSWERS])
def test_executors_accept_and_refuse_as_next_rank_does(answer):
    # Every executor must accept what `_next_rank` accepts and refuse the
    # rest with its message. The first layer-1 state each executor meets is
    # (1,0): the run's rank 3 replies 0, the audit goes reply 0 first and the
    # reach keeps the layer's order.
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    policy = _AnswerPolicy(answer)
    expected = _refusal(_next_rank, policy, 1, 0, 0b0110)
    assert (expected is None) == (answer == 2 and isinstance(answer, int))
    assert _refusal(run, inst, policy, (1, 0, 0)) == expected
    assert _refusal(audit_full_tree, inst, policy) == expected
    assert _refusal(deviation_profile, inst, policy, 1) == expected
    if expected is None:
        assert run(inst, policy, (1, 0, 0)).transcript.entries[:2] == ((3, 0), (2, 0))
    # The 2^n reference plays every secret vector in its own game loop and
    # refuses as the executors do.
    assert _refusal(brute_deviation_profiles, inst, policy) == expected
    if expected is None:
        assert brute_deviation_profiles(inst, policy)[1] == deviation_profile(inst, policy, 1)


@pytest.mark.parametrize("corpus_name", ["corpus_main", "corpus_small", "corpus_pivotal", "corpus_br"])
def test_run_transcripts_pass_the_transcript_checks(corpus_name, request):
    # `run` makes its transcript without Transcript's checks; every one it
    # makes must pass them unchanged. Every secret vector up to n = 4, and
    # four drawn ones above.
    for inst in request.getfixturevalue(corpus_name):
        vectors = (
            itertools.product((0, 1), repeat=inst.n)
            if inst.n <= 4
            else (draw_secrets(inst, seed) for seed in range(4))
        )
        for secrets in vectors:
            for policy in (HcfPolicy(inst), FixedOrderPolicy(inst)):
                try:
                    result = run(inst, policy, secrets)
                except PolicyFailed:
                    continue
                assert type(result.transcript) is Transcript
                assert Transcript(result.transcript.entries) == result.transcript


def test_runs_share_the_instance_pairs():
    # Every entry is the instance's own (rank, reply) pair, so equal entries
    # of two runs are one object and a step allocates nothing.
    inst = make_instance("1/2", ["0"] * 12, parity(12).ones_to_one)
    first, second = (run(inst, HcfPolicy(inst), draw_secrets(inst, seed)).transcript.entries for seed in (1, 2))
    shared = [(a, b) for a in first for b in second if a == b]
    assert shared and all(a is b for a, b in shared)
    assert all(entry is inst._step_pairs[entry[0]][entry[1]] for entry in first + second)


def test_kept_transcripts_cost_one_pointer_per_step():
    # 500 kept runs of 100 steps each: a fresh tuple per step kept about
    # 3.2 MB, a pointer per step keeps about 0.55 MB.
    inst = make_instance("1/2", ["0"] * 100, parity(100).ones_to_one)
    run(inst, HcfPolicy(inst), draw_secrets(inst, 0))
    vectors = [draw_secrets(inst, seed) for seed in range(500)]
    tracemalloc.start()
    try:
        kept = [run(inst, HcfPolicy(inst), secrets) for secrets in vectors]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(result.approached_count for result in kept) == 50_000
    assert retained < 1_000_000


def test_bool_secrets_and_int_subclass_ranks_give_plain_int_entries():
    # True replies and `_Rank` answers read the shared pairs of plain ints:
    # equal and hash-equal to the pairs they would have made.
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    for policy, secrets, made in [
        (HcfPolicy(inst), (True, False, True), ((3, True), (2, False), (1, True))),
        (_AnswerPolicy(_Rank(2)), (1, 0, 0), ((3, 0), (_Rank(2), 0), (1, 1))),
    ]:
        result = run(inst, policy, secrets)
        entries = result.transcript.entries
        assert entries == made and hash(entries) == hash(made)
        assert {type(value) for entry in entries for value in entry} == {int}
        assert Transcript(entries) == result.transcript


def _outcome(check, *args):
    """The check's answer, or the type of the exception it raised."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type below
        return type(exc)


@pytest.mark.parametrize("corpus_name", ["corpus_main", "corpus_br"])
@pytest.mark.parametrize("policy_type", [HcfPolicy, FixedOrderPolicy])
def test_incentive_checks_match_the_oracles(corpus_name, policy_type, request):
    # The memoized audit and the deviation reach against the full reply tree
    # and the 2^n enumeration: equal reports and profiles for every rank, or
    # the same exception type. One enumeration serves every rank.
    failures = 0
    for inst in request.getfixturevalue(corpus_name):
        policy = policy_type(inst)
        assert _outcome(audit_full_tree, inst, policy) == _outcome(brute_audit, inst, policy)
        brute = _outcome(brute_deviation_profiles, inst, policy)
        for rank in inst.ranks:
            profile = _outcome(deviation_profile, inst, policy, rank)
            assert profile == (brute if isinstance(brute, type) else brute[rank])
            failures += isinstance(profile, type)
    if policy_type is FixedOrderPolicy:
        assert failures == 0
    else:
        assert failures > 0


class _HashedPolicy:
    """An arbitrary function of (i, k, remaining): the remaining rank that a
    hash of the three and a seed picks. Hashes of int tuples do not depend on
    PYTHONHASHSEED."""

    def __init__(self, seed):
        self.seed = seed

    def next(self, i, k, remaining):
        ranks = [r for r in range(1, remaining.bit_length()) if remaining >> r & 1]
        return ranks[hash((self.seed, i, k, remaining)) % len(ranks)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.sampled_from((4, 16, 64)), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_incentive_checks_match_the_oracles_under_an_arbitrary_policy(n, max_cost_k, seed, rng):
    # Both built-in policies are structured; the audit's one visit per pair
    # and the deviation utilities' pivotality identity must hold for any
    # policy of (i, k, remaining).
    inst = random_instance(rng, n, max_cost_k=max_cost_k)
    policy = _HashedPolicy(seed)
    assert audit_full_tree(inst, policy) == brute_audit(inst, policy)
    brute = brute_deviation_profiles(inst, policy)
    for rank in inst.ranks:
        assert deviation_profile(inst, policy, rank) == brute[rank]


@pytest.mark.parametrize("fill", [None, "threshold", "labels"])
@pytest.mark.parametrize("policy_types", [(HcfPolicy, FixedOrderPolicy), (FixedOrderPolicy, HcfPolicy)])
def test_audit_thresholds_equal_the_numerator_formula(fill, policy_types):
    # `brute_audit` reads `pivotal.threshold`, which reads the same lattice
    # numerators as the audit, so comparing the two cannot catch a wrong
    # numerator. Each record's threshold is recomputed here from the whole
    # numerator table of `oracle.full_lattice`, with the audits in either
    # order, on instances whose thresholds were read first by nobody, by the
    # public lookup or by the CLI's labels.
    rng = random.Random(9300)
    records = passed = 0
    for _ in range(40):
        q = rng.choice((Fraction(1, 10), Fraction(1, 3), Fraction(3, 5), Fraction(3, 4)))
        inst = random_instance(rng, rng.randrange(1, 11), q=q, max_cost_k=16)
        num, _ = full_lattice(inst)
        m, b = min(q.numerator, q.denominator - q.numerator), q.denominator
        if fill == "threshold":
            for i in range(inst.n):
                for k in range(i + 1):
                    threshold(InfoState(i, k), inst)
        elif fill == "labels":
            for label in _labels(inst):
                _label_json(inst, *label)
        for policy_type in policy_types:
            report = audit_full_tree(inst, policy_type(inst))
            for rec in report.records:
                i, k = rec.state
                assert type(rec.state) is InfoState and 0 <= k <= i < inst.n
                assert rec.threshold == Fraction(m * num[i][k], b ** (inst.n - i))
            records += len(report.records)
            passed += report.passed
    assert records >= 800 and passed >= 30


def test_the_audits_of_one_instance_share_one_threshold_per_state():
    # Every record at one state, in either audit, holds the one `Fraction` in
    # the lattice's table, equal to the formula on `oracle.full_lattice`'s
    # numerators; the table has one slot per state and fills only the
    # recorded ones.
    rng = random.Random(9400)
    shared = 0
    for _ in range(40):
        q = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(3, 4)))
        inst = random_instance(rng, rng.randrange(1, 11), q=q, max_cost_k=16)
        n, m, b = inst.n, min(q.numerator, q.denominator - q.numerator), q.denominator
        num, _ = full_lattice(inst)
        reports = [audit_full_tree(inst, policy_type(inst)) for policy_type in (HcfPolicy, FixedOrderPolicy)]
        table = inst.lattice.thresholds
        assert [len(row) for row in table] == list(range(1, n + 1))
        filled = {(i, k) for i, row in enumerate(table) for k, tau in enumerate(row) if tau is not None}
        assert len(filled) <= n * (n + 1) // 2
        states = [set(map(tuple, (rec.state for rec in report.records))) for report in reports]
        assert filled == states[0] | states[1]
        for report in reports:
            for rec in report.records:
                i, k = rec.state
                assert rec.threshold is table[i][k]
                assert rec.threshold == Fraction(m * num[i][k], b ** (n - i))
        shared += len(states[0] & states[1])
    assert shared >= 200


def test_records_with_equal_thresholds_hold_one_object():
    # Across both audits of an instance, equal thresholds, at any states and
    # layers, are one `Fraction`, equal to the formula on `oracle.full_lattice`'s
    # numerators.
    rng = random.Random(9450)
    repeated = 0
    for _ in range(60):
        q = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(3, 4)))
        inst = random_instance(rng, rng.randrange(1, 11), q=q, max_cost_k=16)
        n, m, b = inst.n, min(q.numerator, q.denominator - q.numerator), q.denominator
        num, _ = full_lattice(inst)
        records = [
            rec for policy_type in (HcfPolicy, FixedOrderPolicy) for rec in audit_full_tree(inst, policy_type(inst)).records
        ]
        objects: dict[Fraction, Fraction] = {}
        for rec in records:
            i, k = rec.state
            assert rec.threshold == Fraction(m * num[i][k], b ** (n - i))
            assert objects.setdefault(rec.threshold, rec.threshold) is rec.threshold
        repeated += len({tuple(rec.state) for rec in records}) - len(objects)
    assert repeated >= 100


@pytest.mark.parametrize("policy_type", [HcfPolicy, FixedOrderPolicy])
def test_a_parity_audit_at_one_half_holds_one_threshold_object(policy_type):
    # At q = 1/2 every live parity state has P = 1, so all n(n+1)/2 records
    # hold one threshold, 1/2, and one object.
    for n in (1, 5, 12):
        inst = make_instance("1/2", ["0"] * n, parity(n).ones_to_one)
        report = audit_full_tree(inst, policy_type(inst))
        assert report.passed and len(report.records) == n * (n + 1) // 2
        assert len({id(rec.threshold) for rec in report.records}) == 1
        assert report.records[0].threshold == Fraction(1, 2)


class _HcfSubclass(HcfPolicy):
    """HCF's rule under another class, so executors check its answers."""


class _FixedSubclass(FixedOrderPolicy):
    """The fixed order under another class, so executors check its answers."""


def _executors(inst, policy):
    """Three games of `run`, `audit_full_tree` and every rank's
    `deviation_profile` under `policy`: each answer, or the (state, reason) of
    its PolicyFailed."""

    def outcome(check, *args):
        try:
            return check(*args)
        except PolicyFailed as exc:
            return exc.state, exc.reason

    return (
        [outcome(run, inst, policy, draw_secrets(inst, seed)) for seed in range(3)],
        outcome(audit_full_tree, inst, policy),
        [outcome(deviation_profile, inst, policy, rank) for rank in inst.ranks],
    )


def test_built_in_policies_over_their_instance_skip_the_answer_check(monkeypatch):
    # `HcfPolicy` and `FixedOrderPolicy` themselves over the executor's
    # instance answer only remaining ranks, so every executor asks their
    # `next` directly, which reaches a wrapper patched onto the class.
    asked = {HcfPolicy: 0, FixedOrderPolicy: 0}

    def counting(policy_type):
        original = policy_type.next

        def next(self, i, k, remaining):
            asked[policy_type] += 1
            return original(self, i, k, remaining)

        return next

    def refuse(*args):
        raise AssertionError("a built-in policy's answer was checked")

    rng = random.Random(9660)
    insts = [example2_instance(), example3_instance(), *(random_instance(rng, n, max_cost_k=16) for n in (3, 5, 7))]
    expected = [[_executors(inst, make(inst)) for make in (_HcfSubclass, _FixedSubclass)] for inst in insts]
    for policy_type in asked:
        monkeypatch.setattr(policy_type, "next", counting(policy_type))
    monkeypatch.setattr(mechanism, "_next_rank", refuse)
    for inst, outcomes in zip(insts, expected):
        for policy_type, outcome in zip((HcfPolicy, FixedOrderPolicy), outcomes):
            before = asked[policy_type]
            assert _executors(inst, policy_type(inst)) == outcome
            assert asked[policy_type] > before


def test_other_policies_are_asked_through_the_answer_check(monkeypatch):
    # Subclasses, which may override `next`, and built-in policies over an
    # equal but distinct instance go through `_next_rank` on every answer.
    checked = 0
    next_rank = mechanism._next_rank

    def counting(policy, i, k, remaining):
        nonlocal checked
        checked += 1
        return next_rank(policy, i, k, remaining)

    monkeypatch.setattr(mechanism, "_next_rank", counting)
    majority4 = partial(make_instance, "1/3", ["1/9", "0", "1/5", "1/7"], majority(4).ones_to_one)
    for make in (example2_instance, example3_instance, majority4):
        inst, twin = make(), make()
        assert twin == inst and twin is not inst
        for policy_type, subclass in ((HcfPolicy, _HcfSubclass), (FixedOrderPolicy, _FixedSubclass)):
            expected = _executors(inst, policy_type(inst))
            for policy in (policy_type(twin), subclass(inst)):
                checked = 0
                assert _executors(inst, policy) == expected
                assert checked > 0


def test_trusted_and_checked_asking_agree_with_the_oracles():
    # On seeded draws, with q either side of 1/2, the built-in policies asked
    # directly, their subclasses asked through `_next_rank`, and the 2^n
    # references give equal games, audit reports and profiles, passing or
    # failing for either reason.
    rng = random.Random(9680)
    seen = set()
    for _ in range(80):
        q = rng.choice((Fraction(1, 10), Fraction(1, 3), Fraction(3, 5), Fraction(9, 10)))
        inst = random_instance(rng, rng.randrange(1, 8), q=q, max_cost_k=16)
        for policy_type, subclass in ((HcfPolicy, _HcfSubclass), (FixedOrderPolicy, _FixedSubclass)):
            games, report, profiles = _executors(inst, policy_type(inst))
            assert (games, report, profiles) == _executors(inst, subclass(inst))
            assert report == brute_audit(inst, policy_type(inst))
            # The reach and the reference may meet different failures first.
            brute = _outcome(brute_deviation_profiles, inst, policy_type(inst))
            if brute is PolicyFailed:
                assert len(set(profiles)) == 1 and type(profiles[0]) is tuple
            else:
                assert profiles == [brute[rank] for rank in inst.ranks]
            seen.add((q < Fraction(1, 2), report.failure[1] if report.failure else "passed"))
    assert seen == {(low, kind) for low in (False, True) for kind in ("passed", "no_eligible_agent", "chosen_ineligible")}


def test_only_the_audits_build_the_threshold_table():
    # verify, games, the deviation reach, the reduced graph, the CLI's labels,
    # one path's thresholds and the public lookups leave it unbuilt.
    built = 0
    for seed in range(9500, 9530):
        inst = random_instance(random.Random(seed), seed % 8 + 1, max_cost_k=16)
        exists_appropriate(inst)
        for policy in (HcfPolicy(inst), FixedOrderPolicy(inst)):
            for action in (lambda: run(inst, policy, draw_secrets(inst, seed)), lambda: deviation_profile(inst, policy, 1)):
                try:
                    action()
                except PolicyFailed:
                    pass
        nodes(inst), edges(inst)
        for label in _labels(inst):
            _label_json(inst, *label)
        inst.lattice.path_thresholds(list(range(inst.n)))
        for i in range(inst.n):
            for k in range(i + 1):
                threshold(InfoState(i, k), inst), pivotal_prob(InfoState(i, k), inst)
        assert "thresholds" not in vars(inst.lattice)
        audit_full_tree(inst, FixedOrderPolicy(inst))
        built += "thresholds" in vars(inst.lattice)
    assert built == 30


def test_incentive_checks_match_the_oracles_on_priors_either_side_of_one_half():
    # Seeded draws, constant functions among them, with q below, at and above
    # 1/2: both audits against the full reply tree and every rank's profile
    # under both policies against the 2^n enumeration.
    rng = random.Random(9600)
    passed = failed = constant = 0
    for draw in range(60):
        q = rng.choice((Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)))
        n = rng.randrange(1, 8)
        if draw % 6 == 0:
            inst = make_instance(q, [Fraction(rng.randrange(16), 64) for _ in range(n)], (draw % 12 == 0,) * (n + 1))
        else:
            inst = random_instance(rng, n, q=q, max_cost_k=16)
        constant += len(set(inst.fn_spec.ones_to_one)) == 1
        for policy_type in (HcfPolicy, FixedOrderPolicy):
            policy = policy_type(inst)
            report = audit_full_tree(inst, policy)
            assert report == brute_audit(inst, policy)
            passed += report.passed
            failed += not report.passed
            brute = _outcome(brute_deviation_profiles, inst, policy)
            for rank in inst.ranks:
                profile = _outcome(deviation_profile, inst, policy, rank)
                assert profile == (brute if isinstance(brute, type) else brute[rank])
    assert passed >= 20 and failed >= 20 and constant >= 10


def test_deviation_profile_rejects_a_rank_outside_1_to_n_before_any_policy_call():
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    for rank in (0, inst.n + 1, 1.0, Fraction(2), True):
        policy = CountingPolicy(HcfPolicy(inst))
        with pytest.raises(ValueError):
            deviation_profile(inst, policy, rank)
        assert policy.calls == 0


class _FailingPolicy:
    """The lowest remaining rank, but raises KeyError at (1, 1) and IndexError at (2, 1)."""

    def next(self, i, k, remaining):
        if (i, k) == (1, 1):
            raise KeyError((i, k))
        if (i, k) == (2, 1):
            raise IndexError((i, k))
        return (remaining & -remaining).bit_length() - 1


def test_deviation_checks_fail_every_rank_with_one_exception():
    # Parity n = 3 asks ranks 1, 2, 3 at layers 0, 1, 2, so the reach meets
    # (1, 1) before (2, 1), and the enumeration's first vector, 000, meets
    # (1, 1) first, in the continuation with rank 1's reply flipped. The
    # reference raises that KeyError, and the reach fails every rank with it,
    # though rank 3's own games would first meet the IndexError.
    inst = make_instance("1/2", ["1/10"] * 3, parity(3).ones_to_one)
    with pytest.raises(KeyError):
        brute_deviation_profiles(inst, _FailingPolicy())
    for rank in inst.ranks:
        with pytest.raises(KeyError):
            deviation_profile(inst, _FailingPolicy(), rank)
    # One failing policy object fails every rank too: a reach that raises is
    # not kept, and the memo still holds the last policy that succeeded.
    kept = FixedOrderPolicy(inst)
    deviation_profile(inst, kept, 1)
    sums = inst._deviation_memo[1]
    failing = _FailingPolicy()
    for rank in inst.ranks:
        with pytest.raises(KeyError):
            deviation_profile(inst, failing, rank)
    assert inst._deviation_memo[0] is kept and inst._deviation_memo[1] is sums


def test_audit_visits_each_state_once_under_a_fixed_order():
    # Under a fixed order the remaining ranks follow from the depth, so the
    # audit meets each of the n(n+1)/2 undetermined parity states once; the
    # full reply tree would call the policy 2^n - 1 times.
    n = AUDIT_CAP
    inst = make_instance("1/2", ["0"] * n, parity(n).ones_to_one)
    policy = CountingPolicy(FixedOrderPolicy(inst))
    report = audit_full_tree(inst, policy)
    assert report.passed
    assert len(report.records) == n * (n + 1) // 2
    assert policy.calls <= n * (n + 1) // 2
    # The deviation reach runs on below the deviating agent's approach and
    # still meets each of those pairs exactly once, under either policy.
    n = DEVIATION_CAP
    inst = make_instance("1/2", ["0"] * n, parity(n).ones_to_one)
    for policy_class in (FixedOrderPolicy, HcfPolicy):
        for rank in inst.ranks:
            policy = CountingPolicy(policy_class(inst))
            deviation_profile(inst, policy, rank)
            assert policy.calls == n * (n + 1) // 2
        # One policy object: every rank reads the sums of a single reach.
        policy = CountingPolicy(policy_class(inst))
        for rank in inst.ranks:
            deviation_profile(inst, policy, rank)
        assert policy.calls == n * (n + 1) // 2


def test_built_in_policies_are_values():
    x, y = example2_instance(), example2_instance()
    assert x == y and x is not y
    assert HcfPolicy(x) == HcfPolicy(x) and hash(HcfPolicy(x)) == hash(HcfPolicy(x))
    assert FixedOrderPolicy(x) == FixedOrderPolicy(x) and not FixedOrderPolicy(x) != FixedOrderPolicy(x)
    assert HcfPolicy(x) != FixedOrderPolicy(x) and FixedOrderPolicy(x) != HcfPolicy(x)
    assert HcfPolicy(x) != HcfPolicy(y)
    assert HcfPolicy(x) != type("Subclass", (HcfPolicy,), {})(x)
    assert len({HcfPolicy(x), HcfPolicy(x), FixedOrderPolicy(x), HcfPolicy(y)}) == 3
    # An equal policy reads the sums that the first one left.
    first = HcfPolicy(x)
    profile = deviation_profile(x, first, 4)
    assert deviation_profile(x, HcfPolicy(x), 4) == profile
    assert x._deviation_memo[0] is first


def test_deviation_memo_answers_for_the_policy_asked():
    # Calls on one instance alternate between three policies, with a fresh
    # built-in policy object each time; each must answer for its own policy,
    # whatever the memo held before.
    rng = random.Random(9500)
    for n in (3, 5, 7, 8):
        inst = random_instance(rng, n, max_cost_k=16)
        hashed = _HashedPolicy(n)
        policies = (lambda: HcfPolicy(inst), lambda: FixedOrderPolicy(inst), lambda: hashed)
        brute = [_outcome(brute_deviation_profiles, inst, make()) for make in policies]
        for rank in inst.ranks:
            for make, profiles in zip(policies, brute):
                profile = _outcome(deviation_profile, inst, make(), rank)
                assert profile == (profiles if isinstance(profiles, type) else profiles[rank])


class _MeddlingHcf(HcfPolicy):
    """Decides as HCF, but its first equality test profiles fixed order on
    the same instance, which refills the deviation memo mid-comparison."""

    meddled = False

    def __eq__(self, other):
        if not self.meddled:
            self.meddled = True
            deviation_profile(self.instance, FixedOrderPolicy(self.instance), 1)
        return super().__eq__(other)

    __hash__ = HcfPolicy.__hash__


def test_deviation_memo_is_read_in_one_step():
    # The memo's policy and sums must come from one read: an `__eq__` that
    # runs code between the comparison and the read of the sums must not
    # hand this policy the sums of another.
    inst = example2_instance()
    expected = brute_deviation_profiles(inst, HcfPolicy(inst))
    assert expected[1] != brute_deviation_profiles(inst, FixedOrderPolicy(inst))[1]
    policy = _MeddlingHcf(inst)
    # The first call fills the memo; the second, at the same rank, meddles.
    assert deviation_profile(inst, policy, 1) == expected[1]
    for rank in inst.ranks:
        assert deviation_profile(inst, policy, rank) == expected[rank]
    assert policy.meddled


def test_deviation_profile_at_the_cap_matches_the_enumeration():
    n = DEVIATION_CAP
    inst = make_instance("1/2", ["1/8"] * n, parity(n).ones_to_one)
    brute = brute_deviation_profiles(inst, HcfPolicy(inst))
    for rank in (1, n):
        profile = deviation_profile(inst, HcfPolicy(inst), rank)
        assert profile == brute[rank]
        assert profile[TRUTHFUL_COMPUTE] == Fraction(7, 8)


def test_a_low_prior_thresholds_the_unlikelier_bit():
    # At q = 1/3 an agent who does not compute replies 0 and is wrong with
    # probability 1/3, so no agent pays 1/8 to be pivotal with probability
    # 1/3 at the root: the threshold there is 1/9. A threshold of (1-q) P
    # = 2/9 would let HCF approach rank 2, whose guess-0 (8/9) beats
    # truthful (7/8).
    x = ProblemInstance.create(Fraction(1, 3), [Fraction(1, 8)] * 2, majority(2))
    assert threshold(InfoState(0, 0), x) == Fraction(1, 9)
    verdict = exists_appropriate(x)
    assert not verdict.exists
    assert (verdict.reason, verdict.undefined_at) == (REASON_C_UNDEFINED, InfoState(0, 0))
    report = audit_full_tree(x, HcfPolicy(x))
    assert not report.passed
    assert report.failure == (InfoState(0, 0), "no_eligible_agent")
    assert ingest(emit(x)) == x


_BIT_SWAP = {
    GUESS_ZERO: GUESS_ONE,
    GUESS_ONE: GUESS_ZERO,
    COMPUTE_REPORT_ZERO: COMPUTE_REPORT_ONE,
    COMPUTE_REPORT_ONE: COMPUTE_REPORT_ZERO,
}


def _low_prior_corpus():
    """Priors on both sides of 1/2, n = 1..8: two random tables plus parity,
    majority and consensus each, with costs up to min(q, 1-q), the largest
    threshold, so that audits pass and fail."""
    rng = random.Random(1600)
    for q in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(3, 5)):
        top = min(q, 1 - q)
        for n in range(1, 9):
            tables = [AnonymousFunctionSpec(n, tuple(rng.random() < 0.5 for _ in range(n + 1))) for _ in range(2)]
            for fn in (*tables, parity(n), majority(n), consensus(n)):
                costs = [top * Fraction(rng.randrange(9), 8) ** 2 for _ in range(n)]
                yield ProblemInstance.create(q, costs, fn)


def _mirrored(state):
    return InfoState(state.approached, state.approached - state.ones)


def test_every_prior_agrees_with_its_mirror():
    # Relabeling every secret 0 <-> 1 (`oracle.mirror`) is the same game, so
    # the native answers at q must equal the mirror's at 1-q state by state.
    passed = set()
    for x in _low_prior_corpus():
        m, n = mirror(x), x.n
        assert exists_appropriate(x).exists == exists_appropriate(m).exists
        assert exists_appropriate(x).reason == exists_appropriate(m).reason
        for i in range(n):
            for k in range(i + 1):
                here, there = InfoState(i, k), _mirrored(InfoState(i, k))
                assert pivotal_prob(here, x) == pivotal_prob(there, m)
                assert threshold(here, x) == threshold(there, m)
                assert c_of(here, x) == c_of(there, m)
        for policy_type in (HcfPolicy, FixedOrderPolicy):
            report, twin = audit_full_tree(x, policy_type(x)), audit_full_tree(m, policy_type(m))
            assert report.passed == twin.passed
            if report.passed:
                passed.add(policy_type)
                assert {rec._replace(state=_mirrored(rec.state)) for rec in report.records} == set(twin.records)
        for secrets in itertools.product((0, 1), repeat=n):
            ran = _outcome(run, x, HcfPolicy(x), secrets)
            flipped = _outcome(run, m, HcfPolicy(m), [1 - s for s in secrets])
            if isinstance(ran, type):
                assert ran is flipped
                continue
            assert ran.transcript.entries == tuple((r, 1 - b) for r, b in flipped.transcript.entries)
            assert flipped.halted_at == _mirrored(ran.halted_at)
            assert (ran.output, ran.total_cost_incurred) == (flipped.output, flipped.total_cost_incurred)
        if n <= 7:
            for rank in x.ranks:
                profile = _outcome(deviation_profile, x, HcfPolicy(x), rank)
                twin = _outcome(deviation_profile, m, HcfPolicy(m), rank)
                if isinstance(profile, type):
                    assert profile is twin
                else:
                    assert profile == {_BIT_SWAP.get(a, a): u for a, u in twin.items()}
    assert passed == {HcfPolicy, FixedOrderPolicy}


def test_truthful_is_a_best_response_wherever_the_hcf_audit_passes():
    # The enumeration plays every secret vector and never reads a threshold,
    # so it checks the thresholds independently: every rank a passing HCF
    # audit approaches must do no better by any other action.
    checked = 0
    for x in _low_prior_corpus():
        policy = HcfPolicy(x)
        report = audit_full_tree(x, policy)
        if not report.passed:
            continue
        profiles = brute_deviation_profiles(x, policy)
        for rank in {rec.rank for rec in report.records}:
            profile = profiles[rank]
            assert all(profile[action] <= profile[TRUTHFUL_COMPUTE] for action in ALL_ACTIONS)
            checked += 1
    assert checked


def test_truthful_is_every_approached_ranks_best_response_at_n_32_to_64(monkeypatch):
    # The paper's incentive claim past both caps: on seeded draws at n = 32-64
    # where an appropriate mechanism exists, the HCF audit passes and every
    # rank it approaches does no better by any of the six actions. The caps
    # are raised for these sizes (the reach stays polynomial on passing
    # instances); no check is loosened.
    monkeypatch.setattr("seqelicit.mechanism.AUDIT_CAP", 64)
    monkeypatch.setattr("seqelicit.mechanism.DEVIATION_CAP", 64)
    rng = random.Random(9600)
    passing = checked = 0
    for _ in range(60):
        n = rng.randint(32, 64)
        family = rng.choice((majority, parity, consensus, None))
        fn = family(n) if family else AnonymousFunctionSpec(n, tuple(rng.random() < 0.5 for _ in range(n + 1)))
        inst = threshold_cost_instance(fn, rng.randrange(n + 1), rng)
        if not exists_appropriate(inst).exists:
            continue
        passing += 1
        policy = HcfPolicy(inst)
        report = audit_full_tree(inst, policy)
        assert report.passed
        for rank in sorted({rec.rank for rec in report.records}):
            profile = deviation_profile(inst, policy, rank)
            assert profile[TRUTHFUL_COMPUTE] == 1 - inst.costs[rank - 1]
            assert all(profile[action] <= profile[TRUTHFUL_COMPUTE] for action in ALL_ACTIONS)
            checked += 1
    assert (passing, checked) == (40, 1829)
