"""The per-instance state lattice against the closed form, its full build and a per-j reference DP."""

from __future__ import annotations

import argparse
import gc
import json
import random
import tracemalloc
import weakref
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest

from conftest import Q_CHOICES, adversarial_majority, check_witness, corpus, random_instance
from seqelicit import pivotal
from seqelicit.cli import _cmd_graph, _cmd_hcf, _label_json, _labels
from seqelicit.errors import CapExceeded, PolicyFailed
from seqelicit.mechanism import FixedOrderPolicy, HcfPolicy, audit_full_tree, deviation_profile, draw_secrets, run
from seqelicit.model import AnonymousFunctionSpec, InfoState, ProblemInstance, majority, parity, rational_text
from seqelicit.oracle import closed_form_pivotal, determine, full_lattice
from seqelicit.pivotal import c_of, edges, nodes, pivotal_prob, threshold
from seqelicit.verify import REASON_PIGEONHOLE, Verdict, Witness, exists_appropriate


def reference_labels(instance):
    """(pivotality, threshold, willing rank) of every undetermined state, from
    the closed-form sum and a bisect over the sorted costs."""
    labels = {}
    for i in range(instance.n):
        for k in range(i + 1):
            state = InfoState(i, k)
            if determine(state, instance.fn_spec) is None:
                prob = closed_form_pivotal(state, instance)
                tau = min(instance.q, 1 - instance.q) * prob
                labels[state] = (prob, tau, bisect_right(instance.costs, tau) or None)
    return labels


def reference_verdict(instance) -> Verdict:
    """The existence decision as one dict-based DP per rank bound j = 1..n,
    scanning end nodes in lexicographic order and then j upward."""
    labels = reference_labels(instance)
    if InfoState(0, 0) not in labels:
        return Verdict(True, "trivial")
    for state, (_, _, c) in labels.items():
        if c is None:
            return Verdict(False, "c_undefined_at", undefined_at=state)
    ends = [s for s in labels if s.approached == instance.n - 1]
    for end in ends:
        for j in range(1, instance.n + 1):
            best, pred = {}, {}
            for state, (_, _, c) in labels.items():
                i, k = state.approached, state.ones
                parents = [
                    u
                    for u in (InfoState(i - 1, k - 1) if k else None, InfoState(i - 1, k) if k < i else None)
                    if u is not None and u in labels
                ]
                chosen = None
                for u in parents:
                    if chosen is None or best[u] > best[chosen]:
                        chosen = u
                best[state] = (1 if c <= j else 0) + (best[chosen] if chosen is not None else 0)
                pred[state] = chosen
            if best[end] > j:
                path = [end]
                while pred[path[-1]] is not None:
                    path.append(pred[path[-1]])
                return Verdict(False, REASON_PIGEONHOLE, witness=Witness(tuple(reversed(path)), j, best[end]))
    return Verdict(True, None)


def _check_against_closed_form(inst) -> dict:
    expected = reference_labels(inst)
    for i in range(inst.n):
        for k in range(i + 1):
            state = InfoState(i, k)
            if state in expected:
                prob, tau, c = expected[state]
            else:
                prob, tau, c = 0, 0, bisect_right(inst.costs, 0) or None
            assert pivotal_prob(state, inst) == prob
            assert threshold(state, inst) == tau
            assert c_of(state, inst) == c
    return expected


@pytest.mark.parametrize("n", [1, 2, 13, 27, 40])
def test_lattice_matches_closed_form(n):
    rng = random.Random(8100 + n)
    tie_rng = random.Random(8150 + n)
    for q in (*Q_CHOICES, Fraction(1, 3), Fraction(997, 1000)):
        inst = random_instance(rng, n, q=q, max_cost_k=12)
        expected = _check_against_closed_form(inst)
        # One threshold of each layer as a cost, so that a cost ties a bound
        # on every layer with an undetermined state; then min(q, 1-q) itself
        # and costs above it, which are willing nowhere, in place of some.
        layers = [[tau for s, (_, tau, _) in expected.items() if s.approached == i] or [0] for i in range(n)]
        tied = [tie_rng.choice(taus) for taus in layers]
        m = min(q, 1 - q)
        above = tied.copy()
        extremes = (m, m + Fraction(1, 2 * q.denominator**n), (1 + m) / 2, Fraction(63, 64))
        for slot, cost in zip(tie_rng.sample(range(n), min(n, 4)), extremes):
            above[slot] = cost
        for costs in (tied, above):
            _check_against_closed_form(ProblemInstance.create(q, costs, inst.fn_spec))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 150])
def test_rolling_rows_match_the_full_build(n):
    # The rows cross the 64-layer floor blocks at n = 64, 65, 128 and 129,
    # which the closed-form test above, at n <= 40, never reaches.
    rng = random.Random(8700 + n)
    varying = tuple(rng.random() < 0.5 for _ in range(n + 1))
    for q in (Fraction(1, 2), Fraction(3, 5), Fraction(1, 3), Fraction(997, 1000)):
        b = q.denominator
        m = min(q, 1 - q)
        tiny = m / b ** (n - 1)  # a floor of exactly 0 at the root, as for tiny / 2
        for table in (varying, (True,) * (n + 1), (False,) * (n + 1)):
            fn = AnonymousFunctionSpec(n, table, None)
            num, _ = full_lattice(ProblemInstance.create(q, (Fraction(0),) * n, fn))
            taus = [m * v / b ** (n - 1 - i) for i, row in enumerate(num) for v in row if v] or [Fraction(0)]
            cost_sets = [
                [Fraction(0)] * n,
                [Fraction(rng.randrange(64), 64) for _ in range(n)],
                [rng.choice(taus) for _ in range(n)],
                [rng.choice((0, tiny, tiny / 2, rng.choice(taus))) for _ in range(n)],
                [rng.choice((rng.choice(taus), m, m + tiny, (1 + m) / 2, Fraction(63, 64))) for _ in range(n)],
            ]
            for costs in cost_sets if table is varying else cost_sets[:2]:
                inst = ProblemInstance.create(q, costs, fn)
                lattice = pivotal.StateLattice(inst)
                assert lattice.rank == full_lattice(inst)[1]
                assert "num" not in vars(lattice)
                assert lattice.num == num


def test_graph_labels_match_closed_form(corpus_pivotal):
    for inst in corpus_pivotal:
        labels = {s: (pivotal_prob(s, inst), threshold(s, inst), c_of(s, inst)) for s in nodes(inst)}
        assert labels == reference_labels(inst)


def test_verdict_matches_per_j_reference(corpus_main, corpus_small, corpus_br):
    kinds = set()
    for inst in corpus_main + corpus_small + corpus_br + corpus(8200, (5, 6), 60, max_cost_k=24):
        verdict = exists_appropriate(inst)
        assert verdict == reference_verdict(inst)
        check_witness(inst, verdict)
        kinds.add(verdict.reason)
    assert kinds == {None, "trivial", "c_undefined_at", REASON_PIGEONHOLE}


def test_lattice_built_once_and_outside_equality():
    rng = random.Random(8300)
    inst = random_instance(rng, 6)
    twin = random_instance(random.Random(8300), 6)
    assert inst.lattice is inst.lattice
    assert inst == twin and hash(inst) == hash(twin)
    assert "lattice" not in repr(inst)


def test_verify_keeps_no_state_on_the_lattice():
    # The packed lanes are built afresh on each call and dropped after it.
    kinds = set()
    for inst in corpus(8350, tuple(range(1, 9)), 24) + corpus(8360, (40, 130), 4, max_cost_k=24):
        lattice = vars(inst.lattice).copy()
        verdict = exists_appropriate(inst)
        assert exists_appropriate(inst) == verdict
        assert vars(inst.lattice) == lattice
        kinds.add(verdict.reason)
    assert len(kinds) >= 3


def _traced_peak(action) -> int:
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_and_run_leave_the_numerators_unbuilt():
    # Parity leaves no state determined: keeping all 180,300 numerators made
    # the build and verify peak at about 20 MB, and two rolling rows take
    # under 3 MB.
    inst = ProblemInstance.create(Fraction(3, 5), [Fraction(0)] * 600, parity(600))
    peak = _traced_peak(lambda: exists_appropriate(inst))
    run(inst, HcfPolicy(inst), draw_secrets(inst, 0))
    assert "num" not in vars(inst.lattice)
    assert peak < 6_000_000
    # 302 distinct costs: a block of 64 layers of floors outweighs the rows
    # (2.0 MB in all), yet stays below the 3.05 MB the whole table took.
    wide = adversarial_majority(350)
    peak = _traced_peak(lambda: exists_appropriate(wide))
    assert "num" not in vars(wide.lattice)
    assert peak < 2_500_000


def test_the_hcf_command_leaves_the_numerators_unbuilt():
    inst = ProblemInstance.create(Fraction(3, 5), [Fraction(0)] * 600, parity(600))
    _, text = _cmd_hcf(argparse.Namespace(json=False, secrets=None, seed=1), inst)
    assert text.count("\n") == 601
    assert "num" not in vars(inst.lattice)


def test_the_lattice_holds_only_its_rows_numerators_and_top_depth():
    # Every reader of the lattice, thresholds included, adds at most `num`
    # and the top depth to it; equality, hashing and the repr ignore both.
    built = 0
    for seed in range(8750, 8790):
        inst, twin = (random_instance(random.Random(seed), seed % 9 + 1, max_cost_k=16) for _ in range(2))
        exists = exists_appropriate(inst).exists
        run(inst, FixedOrderPolicy(inst), draw_secrets(inst, 0))
        if exists:
            run(inst, HcfPolicy(inst), draw_secrets(inst, 1))
        nodes(inst), edges(inst)
        for policy in (HcfPolicy(inst), FixedOrderPolicy(inst)):
            audit_full_tree(inst, policy)
            try:
                deviation_profile(inst, policy, inst.n)
            except PolicyFailed:
                pass
        for label in _labels(inst):
            _label_json(inst, *label)
        inst.lattice.path_thresholds(list(range(inst.n)))
        for _ in range(2):
            for i in range(inst.n):
                for k in range(i + 1):
                    threshold(InfoState(i, k), inst)
        assert set(vars(inst.lattice)) <= {"rank", "_leaves", "_a", "_m", "_b", "num", "top_depth"}
        assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)
        built += exists
    assert built >= 10


def test_the_top_depth_is_built_only_by_hcf_games():
    # The lattice build, `verify`, `nodes`, `edges`, fixed-order games, both
    # audits and the deviation profile leave it unbuilt; an HCF game builds
    # it, failing or not, and a second read gives the same int.
    games = 0
    for seed in range(8800, 8840):
        inst = random_instance(random.Random(seed), seed % 9 + 1, max_cost_k=16)
        inst.lattice
        exists_appropriate(inst), nodes(inst), edges(inst)
        run(inst, FixedOrderPolicy(inst), draw_secrets(inst, 0))
        for policy in (HcfPolicy(inst), FixedOrderPolicy(inst)):
            audit_full_tree(inst, policy)
            try:
                deviation_profile(inst, policy, inst.n)
            except PolicyFailed:
                pass
        assert "top_depth" not in vars(inst.lattice)
        try:
            run(inst, HcfPolicy(inst), draw_secrets(inst, 1))
            games += 1
        except PolicyFailed:
            pass
        depth = vars(inst.lattice)["top_depth"]
        assert type(depth) is int and 0 <= depth <= inst.n
        assert inst.lattice.top_depth is depth
    assert 0 < games < 40


def test_the_lattice_is_freed_with_its_instance_without_the_collector():
    # The lattice and its numerator table make no reference cycle, so
    # dropping the instance frees them at once.
    inst = ProblemInstance.create(Fraction(3, 5), [Fraction(0)] * 8, parity(8))
    assert audit_full_tree(inst, HcfPolicy(inst)).passed
    assert "num" in vars(inst.lattice)
    lattice = weakref.ref(inst.lattice)
    gc.disable()
    try:
        del inst
        assert lattice() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("corpus_name", ["corpus_main", "corpus_pivotal", "corpus_br"])
def test_path_thresholds_are_those_of_threshold(corpus_name, request):
    # Paths from the root of several lengths up to n, read in one pass that
    # leaves the lattice as it was; then the HCF command's printed
    # thresholds, which that pass supplies.
    rng = random.Random(8700)
    printed = 0
    for inst in request.getfixturevalue(corpus_name):
        paths = [
            list(accumulate((rng.randrange(2) for _ in range(length)), initial=0))[:length]
            for length in (0, 1, inst.n, rng.randrange(inst.n + 1))
        ]
        lattice = vars(inst.lattice).copy()
        got = [inst.lattice.path_thresholds(ones) for ones in paths]
        assert vars(inst.lattice) == lattice
        assert got == [[threshold(InfoState(i, k), inst) for i, k in enumerate(ones)] for ones in paths]
        for seed in range(3):
            try:
                _, text = _cmd_hcf(argparse.Namespace(json=True, secrets=None, seed=seed), inst)
            except PolicyFailed:
                continue
            steps = json.loads(text)["transcript"]
            assert [step["threshold"] for step in steps] == [
                rational_text(threshold(InfoState(*step["state"]), inst)) for step in steps
            ]
            printed += len(steps)
    assert printed >= 10


@pytest.mark.parametrize("n", [50, 200, 400])
def test_threshold_cost_instances_match_the_full_table(n):
    # The fixture rolls two rows of numerators; it must draw from the same
    # sorted thresholds as the whole table gives.
    num, _ = full_lattice(ProblemInstance.create(Fraction(1, 2), [Fraction(0)] * n, majority(n)))
    scaled = sorted({v << i for i, row in enumerate(num) for v in row if v})
    rng = random.Random(0)
    costs = [Fraction(0)] * (n // 8) + [Fraction(rng.choice(scaled), 2**n) for _ in range(n - n // 8)]
    assert adversarial_majority(n) == ProblemInstance.create(Fraction(1, 2), costs, majority(n))


def test_no_process_wide_state():
    rng = random.Random(8400)
    refs = []
    for _ in range(50):
        inst = random_instance(rng, rng.randrange(2, 9), max_cost_k=16)
        _cmd_graph(argparse.Namespace(json=False), inst)
        run(inst, FixedOrderPolicy(inst), draw_secrets(inst, 0))
        if exists_appropriate(inst).exists:
            audit_full_tree(inst, HcfPolicy(inst))
            # The deviation memo keeps the policy, which keeps the instance:
            # a cycle that the collector must free.
            deviation_profile(inst, HcfPolicy(inst), 1)
            assert inst._deviation_memo[0].instance is inst
        refs.append(weakref.ref(inst))
        del inst
    gc.collect()
    assert [ref() for ref in refs] == [None] * 50


def _zero_cost_parity(n):
    return ProblemInstance.create(Fraction(1, 2), [Fraction(0)] * n, parity(n))


def test_lattice_budget_turns_an_instance_away_before_building(monkeypatch):
    # At q = 1/2 the numerators of n agents take (n-1) n (n+1) / 3 bits.
    monkeypatch.setattr(pivotal, "LATTICE_BUDGET_BITS", 10 * 11 * 12 // 3)
    assert exists_appropriate(_zero_cost_parity(11)).exists
    big = _zero_cost_parity(12)
    with pytest.raises(CapExceeded, match="numerator bits"):
        exists_appropriate(big)
    # A fixed-order run reads the lattice's forced test as HCF does.
    with pytest.raises(CapExceeded, match="numerator bits"):
        run(big, FixedOrderPolicy(big), (0,) * 12)
    assert "lattice" not in vars(big)
    with pytest.raises(CapExceeded, match="numerator bits"):
        run(big, HcfPolicy(big), (0,) * 12)
    assert "lattice" not in vars(big)


def test_a_20000_agent_instance_is_turned_away_at_once():
    # About 2.7e12 bits; the check reads only n and q, so this takes no time.
    with pytest.raises(CapExceeded):
        exists_appropriate(_zero_cost_parity(20000))
