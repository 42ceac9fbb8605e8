"""Policies, game execution, the full-tree audit, and deviation utilities."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from conftest import (
    example1_instance,
    example2_instance,
    example3_instance,
    make_instance,
)
from seqelicit.errors import CapExceeded, PolicyFailed
from seqelicit.mechanism import (
    AUDIT_CAP,
    DEVIATION_CAP,
    FixedOrderPolicy,
    HcfPolicy,
    audit_full_tree,
    deviation_profile,
    draw_secrets,
    run,
)
from seqelicit.model import (
    ALL_ACTIONS,
    GUESS_ONE,
    GUESS_ZERO,
    InfoState,
    TRUTHFUL_COMPUTE,
    parity,
)
from seqelicit.pivotal import determine


def test_hcf_next_prefers_highest_rank_among_ties():
    inst = example2_instance()
    rank = HcfPolicy(inst).next(InfoState(0, 0), frozenset({1, 2, 3, 4}))
    assert rank == 3


def test_hcf_next_last_agent():
    inst = example2_instance()
    assert HcfPolicy(inst).next(InfoState(3, 0), frozenset({4})) == 4


def test_hcf_next_fails_when_nobody_willing():
    inst = example1_instance()
    with pytest.raises(PolicyFailed) as excinfo:
        HcfPolicy(inst).next(InfoState(0, 0), frozenset(range(1, 12)))
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
    assert HcfPolicy(inst).next(InfoState(1, 0), frozenset({1, 2, 4})) in (1, 2, 4)


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
            assert truthful == 1 - inst.cost_of_rank(rank)
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


def test_run_stays_on_one_path():
    # A single run consults the policy once per step along the realized path,
    # never expanding the reply tree.
    inst = example3_instance()

    class CountingPolicy:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def next(self, state, remaining):
            self.calls += 1
            return self.inner.next(state, remaining)

    policy = CountingPolicy(HcfPolicy(inst))
    run(inst, policy, (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1))
    assert policy.calls <= inst.n


def test_fixed_order_policy_validates_order():
    inst = example2_instance()
    with pytest.raises(ValueError):
        FixedOrderPolicy(inst, order=(1, 2, 3))
    custom = FixedOrderPolicy(inst, order=(4, 3, 2, 1))
    assert custom.next(InfoState(0, 0), frozenset(inst.ranks)) == 4


class _RepeatingPolicy:
    """Names the same rank at every state, whether or not it is still remaining."""

    def __init__(self, rank):
        self.rank = rank

    def next(self, state, remaining):
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
