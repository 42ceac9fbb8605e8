"""The existence decision: worked examples, witnesses, and corpus properties."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    adversarial_majority,
    check_witness,
    example1_instance,
    example2_instance,
    example3_instance,
    make_instance,
    random_instance,
    threshold_cost_instance,
)
from seqelicit import mechanism, verify
from seqelicit.mechanism import AUDIT_CAP, HcfPolicy, audit_full_tree
from seqelicit.model import AnonymousFunctionSpec, InfoState, ProblemInstance, consensus, majority, parity
from seqelicit.oracle import determine, per_bound_verdict
from seqelicit.pivotal import c_of, nodes
from seqelicit.verify import (
    REASON_C_UNDEFINED,
    REASON_PIGEONHOLE,
    REASON_TRIVIAL,
    Verdict,
    Witness,
    _lanes,
    exists_appropriate,
)


@pytest.fixture
def packed(monkeypatch):
    """The lattices `exists_appropriate` packs into lanes, one per `_lanes` call."""
    lattices = []
    monkeypatch.setattr(verify, "_lanes", lambda lattice: lattices.append(lattice) or _lanes(lattice))
    return lattices


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


def test_threshold_costs_of_a_constant_function_are_trivially_appropriate():
    # No state is undetermined, so there is no threshold to draw costs from.
    rng = random.Random(0)
    for fn, zeros in ((consensus(1), 0), (AnonymousFunctionSpec(5, (True,) * 6), 2)):
        inst = threshold_cost_instance(fn, zeros, rng)
        assert exists_appropriate(inst) == Verdict(True, REASON_TRIVIAL)


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
                check_witness(inst, verdict)


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


def test_lanes_match_the_per_bound_dp_on_the_corpora(corpus_main, corpus_br):
    kinds = set()
    for inst in corpus_main + corpus_br:
        verdict = exists_appropriate(inst)
        assert verdict == per_bound_verdict(inst)
        check_witness(inst, verdict)
        kinds.add(verdict.reason)
    assert kinds == {None, REASON_TRIVIAL, REASON_C_UNDEFINED, REASON_PIGEONHOLE}


@pytest.mark.parametrize("n", [125, 126, 200])
def test_lanes_match_the_per_bound_dp_across_lane_widths(n):
    # n = 125 is the largest n with 8-bit lanes and n = 126 the smallest with
    # 16-bit ones; with every cost 0 the end lanes reach n + 1, next to the top
    # bit. The live lanes are the undetermined states, and the candidate
    # bounds the willing ranks there.
    rng = random.Random(9100 + n)
    kinds = set()
    for zeros in (n, n - 2, 0, rng.randrange(1, n)):
        fn = AnonymousFunctionSpec(n, tuple(rng.random() < 0.5 for _ in range(n + 1)))
        inst = threshold_cost_instance(fn, zeros, rng)
        verdict = exists_appropriate(inst)
        assert verdict == per_bound_verdict(inst)
        check_witness(inst, verdict)
        kinds.add(verdict.reason)
        width, _, lives = _lanes(inst.lattice)
        assert width == {125: 8, 126: 16, 200: 16}[n]
        full = (1 << width) - 1
        undetermined = set()
        for i, live in enumerate(lives):
            assert live >> ((i + 1) * width) == 0
            for k in range(i + 1):
                open_state = determine(InfoState(i, k), fn) is None
                assert (live >> (k * width)) & full == (full if open_state else 0)
                if open_state:
                    undetermined.add(InfoState(i, k))
        willing = {c for row in inst.lattice.rank for c in row if c >= 0}
        assert willing == {c_of(state, inst) or 0 for state in undetermined}
    assert {None, REASON_C_UNDEFINED, REASON_PIGEONHOLE} <= kinds
    # Every cost below every threshold: the determined states' rank 0 is no bound.
    tiny = ProblemInstance.create(Fraction(1, 2), [Fraction(1, 2 ** (n + 1))] * n, fn)
    assert {c for row in tiny.lattice.rank for c in row if c >= 0} == {n}


def test_skipped_bounds_keep_the_verdict_of_every_bound_passed(packed):
    # z-families, where many willing ranks j have at most j layers with a
    # live rank that cheap, so no path can break them, and a table with
    # costs k/64, where bounds tend to be kept, on both sides of the 8/16-bit
    # lane boundary. The verdict, witness included, must equal the per-bound
    # DP's, which passes every bound, and lanes are packed exactly when some
    # bound j < n has more than j such layers, U(j) > j, read here from
    # `c_of` state by state.
    cases = set()
    for n in (125, 126, 176):
        rng = random.Random(9400 + n)
        table = AnonymousFunctionSpec(n, tuple(rng.random() < 0.5 for _ in range(n + 1)))
        instances = [
            threshold_cost_instance(fn, zeros, rng)
            for fn in (majority(n), consensus(n), parity(n), table)
            for zeros in (0, n // 2, 5 * n // 8, 3 * n // 4, n)
        ]
        for inst in [*instances, random_instance(rng, n, max_cost_k=64)]:
            packed.clear()
            verdict = exists_appropriate(inst)
            assert verdict == per_bound_verdict(inst)
            check_witness(inst, verdict)
            if verdict.reason in (REASON_TRIVIAL, REASON_C_UNDEFINED):
                assert not packed
                continue
            cheapest, bounds = [n] * n, set()
            for state in nodes(inst):
                c = c_of(state, inst)
                cheapest[state.approached] = min(cheapest[state.approached], c)
                if c < n:
                    bounds.add(c)
            kept = {j for j in bounds if sum(c <= j for c in cheapest) > j}
            assert len(packed) == bool(kept)
            cases.add("none packed" if not kept else "some skipped" if kept < bounds else "none skipped")
    assert cases == {"none packed", "some skipped", "none skipped"}


def test_a_bound_some_path_could_break_gets_a_pass_and_may_hold(packed):
    # Three layers have a state of willing rank at most 2, so bound 2 gets a
    # pass, but (1, 0) and (2, 2) lie on no common path and every path counts
    # 2 such states; bound 3 has three layers and is skipped. Lanes are
    # packed and the answer is still yes.
    inst = make_instance("3/5", ["7/64", "7/64", "3/16", "1/4"], [True, True, True, False, False])
    assert inst.lattice.rank == [[2], [2, 3], [-1, 3, 2], [-1, -1, 4, -1]]
    assert exists_appropriate(inst) == Verdict(True, None) == per_bound_verdict(inst)
    assert len(packed) == 1


def test_lanes_match_the_per_bound_dp_on_adversarial_majority():
    inst = adversarial_majority(200)
    verdict = exists_appropriate(inst)
    assert verdict == per_bound_verdict(inst)
    assert verdict.reason == REASON_PIGEONHOLE
    check_witness(inst, verdict)


def test_smallest_end_node_wins_over_smallest_rank_bound():
    # The lowest violating end node is (4, 2) at rank bound 1, (4, 1) at bound 2
    # and (4, 2) again at bound 3; end node (4, 0) never violates. The witness
    # is the smallest end node, at the smallest bound that reaches it.
    inst = make_instance("3/4", ["1/64", "1/16", "1/8", "13/64", "15/64"], [False, True, False, True, True, True])
    path = (InfoState(0, 0), InfoState(1, 1), InfoState(2, 1), InfoState(3, 1), InfoState(4, 1))
    expected = Verdict(False, REASON_PIGEONHOLE, witness=Witness(path, 2, 3))
    assert exists_appropriate(inst) == expected == per_bound_verdict(inst)


def test_verdict_matches_the_hcf_audit_beyond_n_10():
    # The paper's constructive theorem: an appropriate mechanism exists iff
    # the highest-cost-first policy's full-tree audit passes. Random tables
    # with cheap to dear costs, and threshold-cost majority, parity and
    # consensus, at every n from 11 up to the audit's cap.
    rng = random.Random(9300)
    verdicts = []
    for n in range(11, AUDIT_CAP + 1):
        instances = [random_instance(rng, n, max_cost_k=k) for k in (4, 16, 32) for _ in range(2)]
        for fn in (majority(n), parity(n), consensus(n)):
            instances += [threshold_cost_instance(fn, zeros, rng) for zeros in (n - 2, n // 2, rng.randrange(n))]
        for inst in instances:
            verdict = exists_appropriate(inst)
            check_witness(inst, verdict)
            assert verdict.exists == audit_full_tree(inst, HcfPolicy(inst)).passed
            verdicts.append(verdict.exists)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_verdict_matches_the_hcf_audit_at_n_32_to_128(monkeypatch):
    # The same theorem past the audit's cap, where the skip removes bounds:
    # threshold-cost majority, parity, consensus and random tables with a
    # random number of zero costs. The audit stays polynomial on passing
    # draws and stops within tens of keys on failing ones, so the cap is
    # raised for these sizes; no check is loosened.
    monkeypatch.setattr(mechanism, "AUDIT_CAP", 128)
    rng = random.Random(9500)
    verdicts = []
    for _ in range(120):
        n = rng.randint(32, 128)
        family = rng.choice((majority, parity, consensus, None))
        fn = family(n) if family else AnonymousFunctionSpec(n, tuple(rng.random() < 0.5 for _ in range(n + 1)))
        inst = threshold_cost_instance(fn, rng.randrange(n + 1), rng)
        verdict = exists_appropriate(inst)
        check_witness(inst, verdict)
        assert verdict.exists == audit_full_tree(inst, HcfPolicy(inst)).passed
        verdicts.append(verdict.exists)
    assert True in verdicts and False in verdicts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, AUDIT_CAP), st.sampled_from((4, 16, 64, None)), st.randoms(use_true_random=False))
def test_verdict_matches_the_hcf_audit_at_every_n_up_to_the_cap(n, max_cost_k, rng):
    # The same theorem as a property over any n the audit accepts: a random
    # table with costs k/64 below `max_cost_k`, or (None) a threshold-cost
    # majority, parity or consensus with a random number of zero costs.
    if max_cost_k is None:
        fn = rng.choice((majority, parity, consensus))(n)
        inst = threshold_cost_instance(fn, rng.randrange(n + 1), rng)
    else:
        inst = random_instance(rng, n, max_cost_k=max_cost_k)
    verdict = exists_appropriate(inst)
    check_witness(inst, verdict)
    assert verdict.exists == audit_full_tree(inst, HcfPolicy(inst)).passed
