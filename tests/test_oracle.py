"""Brute-force baselines: spec-level behavior and self-consistency."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import example1_instance, example2_instance, example3_instance, make_instance
from seqelicit import oracle
from seqelicit.errors import CapExceeded
from seqelicit.mechanism import AUDIT_CAP, DEVIATION_CAP, FixedOrderPolicy, deviation_profile
from seqelicit.model import InfoState, consensus, majority, parity, unanimity
from seqelicit.oracle import (
    BRUTE_PIVOTAL_CAP,
    brute_audit,
    brute_deviation_profiles,
    brute_pivotal,
    determine,
    exhaustive_existence,
    hcf_tree_existence,
)
from seqelicit.pivotal import c_of
from seqelicit.verify import exists_appropriate


def assert_certificate_appropriate(inst, tree):
    """Replay a decision tree over every reply path: the subtree is None exactly
    where the value is forced, and elsewhere the chosen rank is not yet used
    and is willing to compute at the reached state."""

    def walk(node, state, used):
        if determine(state, inst.fn_spec) is not None:
            assert node is None
            return
        assert node is not None
        assert node.rank in inst.ranks and node.rank not in used
        assert node.rank <= (c_of(state, inst) or 0)
        used = used | {node.rank}
        walk(node.on_zero, InfoState(state.approached + 1, state.ones), used)
        walk(node.on_one, InfoState(state.approached + 1, state.ones + 1), used)

    walk(tree, InfoState(0, 0), frozenset())


def test_brute_pivotal_majority_root():
    assert brute_pivotal(InfoState(0, 0), example1_instance()) == Fraction(63, 256)


def test_brute_pivotal_consensus_last():
    assert brute_pivotal(InfoState(3, 0), example2_instance()) == 1


def test_brute_pivotal_constant_zero():
    inst = make_instance("3/5", ["0", "0", "0"], [True] * 4)
    for i in range(3):
        for k in range(i + 1):
            assert brute_pivotal(InfoState(i, k), inst) == 0


def test_brute_pivotal_cap():
    # At the root every agent but the approached one is free.
    n = BRUTE_PIVOTAL_CAP + 2
    inst = make_instance("1/2", ["0"] * n, consensus(n).ones_to_one)
    with pytest.raises(CapExceeded):
        brute_pivotal(InfoState(0, 0), inst)


def test_exhaustive_consensus_example():
    verdict = exhaustive_existence(example2_instance())
    assert verdict.exists
    assert verdict.certificate is not None
    assert_certificate_appropriate(example2_instance(), verdict.certificate)


def test_exhaustive_counts_everything_when_none_pass():
    inst = make_instance("1/2", ["2/5"] * 4, consensus(4).ones_to_one)
    verdict = exhaustive_existence(inst)
    assert not verdict.exists
    assert verdict.certificate is None
    again = exhaustive_existence(inst)
    assert again.mechanisms_checked == verdict.mechanisms_checked > 0


def test_exhaustive_single_agent():
    inst = make_instance("1/2", ["1/4"], [False, True])
    verdict = exhaustive_existence(inst)
    assert verdict.exists
    assert verdict.certificate.rank == 1
    assert verdict.certificate.on_zero is None and verdict.certificate.on_one is None


def test_exhaustive_constant_function():
    inst = make_instance("1/2", ["1/10", "1/10"], [False, False, False])
    verdict = exhaustive_existence(inst)
    assert verdict.exists
    assert verdict.certificate is None
    assert verdict.mechanisms_checked == 1


def test_exhaustive_cap():
    inst = make_instance("1/2", ["0"] * 5, [True] + [False] * 5)
    with pytest.raises(CapExceeded):
        exhaustive_existence(inst)


class RecordingPolicy:
    def __init__(self):
        self.calls = []

    def next(self, i, k, remaining):
        self.calls.append((i, k, remaining))
        return (remaining & -remaining).bit_length() - 1


@pytest.mark.parametrize("reference, cap", [(brute_audit, AUDIT_CAP), (brute_deviation_profiles, DEVIATION_CAP)])
def test_brute_references_refuse_past_their_cap_before_playing(reference, cap):
    n = cap + 1
    inst = make_instance("1/2", ["0"] * n, consensus(n).ones_to_one)
    policy = RecordingPolicy()
    with pytest.raises(CapExceeded):
        reference(inst, policy)
    assert policy.calls == []


def test_the_deviation_reference_plays_its_own_games_without_the_lattice():
    # The reference asks the policy at every step and stops where
    # `determine`'s window scan finds the output forced, so it shares no code
    # with the executors it checks and never builds the lattice they stop on.
    inst = make_instance("1/2", ["1/16"] * 6, majority(6).ones_to_one)
    profiles = brute_deviation_profiles(inst, FixedOrderPolicy(inst))
    assert "lattice" not in vars(inst)
    assert profiles == {rank: deviation_profile(inst, FixedOrderPolicy(inst), rank) for rank in inst.ranks}


def test_hcf_tree_examples():
    assert not hcf_tree_existence(example1_instance()).exists
    assert hcf_tree_existence(example3_instance()).exists
    assert hcf_tree_existence(example2_instance()).exists


def test_certificates_pass_audit_on_small_corpus(corpus_small):
    checked = 0
    for inst in corpus_small:
        verdict = exhaustive_existence(inst)
        if verdict.certificate is None:
            continue
        assert_certificate_appropriate(inst, verdict.certificate)
        checked += 1
    assert checked >= 10


def test_exhaustive_existence_scans_each_state_once(monkeypatch, corpus_small):
    # The enumeration reads one table of forced states, so a call scans each
    # of the (n+1)(n+2)/2 states once, however many mechanisms it lists.
    calls = []
    scan = oracle.determine

    def counted(state, fn):
        calls.append(state)
        return scan(state, fn)

    monkeypatch.setattr(oracle, "determine", counted)
    # The costs of instances/overpacked_path.json and no_mechanism.json.
    costs = (["0", "3/8", "2/5", "2/5"], ["2/5"] * 4)
    shortcuts = [make_instance("1/2", c, f(4).ones_to_one) for f in (majority, consensus, parity, unanimity) for c in costs]
    for inst in (*shortcuts, *corpus_small):
        calls.clear()
        exhaustive_existence(inst)
        assert len(calls) <= (inst.n + 1) * (inst.n + 2) // 2


def test_all_three_routes_agree_on_examples():
    for inst in (example2_instance(),):
        assert (
            exists_appropriate(inst).exists
            == exhaustive_existence(inst).exists
            == hcf_tree_existence(inst).exists
        )
