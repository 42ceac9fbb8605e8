"""Determination windows, the pivotality formula, thresholds, and willing ranks."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Q_CHOICES,
    example1_instance,
    example2_instance,
    make_instance,
    random_instance,
)
from seqelicit.errors import StateExhausted
from seqelicit.model import InfoState, consensus, majority, parity
from seqelicit.oracle import brute_pivotal
from seqelicit.graph import nodes
from seqelicit.pivotal import c_of, determine, pivotal_prob, threshold


def test_determine_consensus_mixed_replies():
    assert determine(InfoState(2, 1), consensus(4)) == 0


def test_determine_constant():
    fn = make_instance("1/2", ["0", "0"], [True, True, True]).fn_spec
    for i in range(3):
        for k in range(i + 1):
            assert determine(InfoState(i, k), fn) == 1


def test_determine_majority_straddle():
    assert determine(InfoState(10, 5), majority(11)) is None
    assert determine(InfoState(10, 6), majority(11)) == 1
    assert determine(InfoState(10, 4), majority(11)) == 0


def test_pivotal_majority_root():
    assert pivotal_prob(InfoState(0, 0), example1_instance()) == Fraction(63, 256)


def test_pivotal_parity_always_one():
    inst = make_instance("1/2", ["2/5"] * 5, [bool(w % 2) for w in range(6)])
    for i in range(5):
        for k in range(i + 1):
            assert pivotal_prob(InfoState(i, k), inst) == 1


def test_pivotal_consensus_last_agent():
    assert pivotal_prob(InfoState(3, 0), example2_instance()) == 1


def test_pivotal_consensus_root():
    inst = example2_instance()
    # Independent oracle first: enumerate the 2^3 completions directly.
    expected = brute_pivotal(InfoState(0, 0), inst)
    assert expected == Fraction(1, 4)
    assert pivotal_prob(InfoState(0, 0), inst) == expected


def test_pivotal_requires_agent_left():
    with pytest.raises(StateExhausted):
        pivotal_prob(InfoState(4, 2), example2_instance())


def test_threshold_majority_root_ineligible():
    inst = example1_instance()
    tau = threshold(InfoState(0, 0), inst)
    assert tau == Fraction(63, 512)
    assert Fraction(2, 5) > tau


def test_threshold_consensus_three_identical_eligible():
    tau = threshold(InfoState(3, 0), example2_instance())
    assert tau == Fraction(1, 2)
    assert Fraction(2, 5) <= tau


def test_threshold_zero_at_determined_state():
    inst = make_instance("1/2", ["0", "1/8", "1/4"], [False, True, True, True])
    state = InfoState(2, 2)  # window {2,3} both true
    assert determine(state, inst.fn_spec) == 1
    assert pivotal_prob(state, inst) == 0
    assert threshold(state, inst) == 0
    assert c_of(state, inst) == 1  # only the zero-cost agent clears a zero threshold


def test_c_of_examples():
    assert c_of(InfoState(0, 0), example1_instance()) is None
    inst2 = example2_instance()
    assert c_of(InfoState(0, 0), inst2) == 3
    assert c_of(InfoState(3, 0), inst2) == 4


def test_node_label_consistency():
    inst = example2_instance()
    root = InfoState(0, 0)
    assert root in nodes(inst)
    assert determine(root, inst.fn_spec) is None
    assert pivotal_prob(root, inst) == Fraction(1, 4)
    assert threshold(root, inst) == Fraction(1, 8)
    assert c_of(root, inst) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_pivotal_matches_brute_force(n, rng):
    inst = random_instance(rng, n)
    for i in range(n):
        for k in range(i + 1):
            state = InfoState(i, k)
            assert pivotal_prob(state, inst) == brute_pivotal(state, inst)


@pytest.mark.parametrize("q", Q_CHOICES)
def test_binomial_weights_sum_to_one(q):
    # Parity flips at every ones-count, so its pivotality is the full
    # binomial mass, which must be exactly 1 at every state and prior.
    inst = make_instance(q, ["0"] * 6, [bool(w % 2) for w in range(7)])
    for i in range(6):
        for k in range(i + 1):
            assert pivotal_prob(InfoState(i, k), inst) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_determine_monotone_along_edges(n, rng):
    inst = random_instance(rng, n)
    fn = inst.fn_spec
    for i in range(n):
        for k in range(i + 1):
            forced = determine(InfoState(i, k), fn)
            if forced is not None:
                assert determine(InfoState(i + 1, k), fn) == forced
                assert determine(InfoState(i + 1, k + 1), fn) == forced


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_pivotal_last_layer_is_zero_or_one(n, rng):
    inst = random_instance(rng, n)
    for k in range(n):
        assert pivotal_prob(InfoState(n - 1, k), inst) in (Fraction(0), Fraction(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_c_of_monotone_in_threshold(n, rng):
    inst = random_instance(rng, n)
    states = [InfoState(i, k) for i in range(n) for k in range(i + 1)]
    by_tau = sorted(states, key=lambda s: threshold(s, inst))
    ranks = [(c_of(s, inst) or 0) for s in by_tau]
    assert ranks == sorted(ranks)
