"""Brute-force baselines: spec-level behavior and self-consistency."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import example1_instance, example2_instance, example3_instance, make_instance
from seqelicit.errors import CapExceeded
from seqelicit.model import InfoState, consensus
from seqelicit.oracle import (
    BRUTE_PIVOTAL_CAP,
    brute_pivotal,
    exhaustive_existence,
    hcf_tree_existence,
)
from seqelicit.pivotal import c_of, determine
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


def test_all_three_routes_agree_on_examples():
    for inst in (example2_instance(),):
        assert (
            exists_appropriate(inst).exists
            == exhaustive_existence(inst).exists
            == hcf_tree_existence(inst).exists
        )
