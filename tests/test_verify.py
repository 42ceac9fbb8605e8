"""The existence decision: worked examples, witnesses, and corpus properties."""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import (
    example1_instance,
    example2_instance,
    example3_instance,
    make_instance,
)
from seqelicit.graph import nodes
from seqelicit.model import InfoState, ProblemInstance, consensus
from seqelicit.pivotal import c_of
from seqelicit.verify import (
    REASON_C_UNDEFINED,
    REASON_PIGEONHOLE,
    REASON_TRIVIAL,
    exists_appropriate,
)


def test_majority_example_no_mechanism():
    verdict = exists_appropriate(example1_instance())
    assert not verdict.exists
    assert verdict.reason == REASON_C_UNDEFINED
    assert verdict.undefined_at == InfoState(0, 0)
    assert verdict.witness is None


def test_consensus_example_exists():
    verdict = exists_appropriate(example2_instance())
    assert verdict.exists
    assert verdict.reason is None


def test_parity_example_exists():
    assert exists_appropriate(example3_instance()).exists


def test_consensus_all_costly_no_mechanism():
    inst = make_instance("1/2", ["2/5"] * 4, consensus(4).ones_to_one)
    verdict = exists_appropriate(inst)
    assert not verdict.exists
    assert verdict.reason == REASON_C_UNDEFINED
    assert verdict.undefined_at == InfoState(0, 0)


def test_constant_function_trivially_appropriate():
    inst = make_instance("1/2", ["1/10", "1/10"], [False, False, False])
    verdict = exists_appropriate(inst)
    assert verdict.exists
    assert verdict.reason == REASON_TRIVIAL


def test_pigeonhole_witness_well_formed():
    inst = make_instance("1/2", ["0", "3/8", "2/5", "2/5"], consensus(4).ones_to_one)
    verdict = exists_appropriate(inst)
    assert not verdict.exists
    assert verdict.reason == REASON_PIGEONHOLE
    w = verdict.witness
    assert w is not None
    assert w.count > w.violating_rank
    states = nodes(inst)
    assert set(w.path) <= set(states)
    labelled = [c_of(s, inst) for s in w.path]
    counted = sum(1 for c in labelled if c is not None and c <= w.violating_rank)
    assert counted == w.count
    assert w.path[0] == InfoState(0, 0)
    assert w.path[-1] in [s for s in states if s.approached == inst.n - 1]
    # Deterministic scan order: first end node by ones, then lowest rank bound.
    assert w.path == (InfoState(0, 0), InfoState(1, 0), InfoState(2, 0), InfoState(3, 0))
    assert w.violating_rank == 1
    assert w.count == 3


def test_verdict_reason_partition(corpus_main):
    for inst in corpus_main[:60]:
        verdict = exists_appropriate(inst)
        if verdict.exists:
            assert verdict.reason in (None, REASON_TRIVIAL)
            assert verdict.witness is None and verdict.undefined_at is None
        else:
            assert verdict.reason in (REASON_C_UNDEFINED, REASON_PIGEONHOLE)
            if verdict.reason == REASON_C_UNDEFINED:
                assert verdict.undefined_at in nodes(inst)
                assert c_of(verdict.undefined_at, inst) is None
            else:
                assert verdict.witness.count > verdict.witness.violating_rank


def test_lowering_a_cost_never_destroys_existence(corpus_main, corpus_br):
    rng = random.Random(99)
    checked = 0
    for inst in corpus_main + corpus_br:
        if checked >= 40:
            break
        if not exists_appropriate(inst).exists:
            continue
        user = list(inst.user_costs())
        nonzero = [pos for pos, c in enumerate(user) if c > 0]
        if not nonzero:
            continue
        pos = rng.choice(nonzero)
        user[pos] = user[pos] / 2 if rng.random() < 0.5 else Fraction(0)
        lowered = ProblemInstance.create(inst.q, user, inst.fn_spec)
        assert exists_appropriate(lowered).exists
        checked += 1
    assert checked >= 30
