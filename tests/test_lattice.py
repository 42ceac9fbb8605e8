"""The per-instance state lattice against the closed form and a per-j reference DP."""

from __future__ import annotations

import gc
import random
import weakref
from bisect import bisect_right

import pytest

from conftest import Q_CHOICES, corpus, random_instance
from seqelicit.graph import export_dot, nodes
from seqelicit.mechanism import HcfPolicy, audit_full_tree
from seqelicit.model import InfoState
from seqelicit.oracle import closed_form_pivotal
from seqelicit.pivotal import c_of, determine, pivotal_prob, threshold
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
                tau = (1 - instance.q) * prob
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


@pytest.mark.parametrize("n", [1, 2, 13, 27, 40])
def test_lattice_matches_closed_form(n):
    rng = random.Random(8100 + n)
    for q in Q_CHOICES:
        inst = random_instance(rng, n, q=q, max_cost_k=12)
        expected = reference_labels(inst)
        for i in range(n):
            for k in range(i + 1):
                state = InfoState(i, k)
                if state in expected:
                    prob, tau, c = expected[state]
                else:
                    prob, tau, c = 0, 0, bisect_right(inst.costs, 0) or None
                assert pivotal_prob(state, inst) == prob
                assert threshold(state, inst) == tau
                assert c_of(state, inst) == c


def test_graph_labels_match_closed_form(corpus_pivotal):
    for inst in corpus_pivotal:
        labels = {s: (pivotal_prob(s, inst), threshold(s, inst), c_of(s, inst)) for s in nodes(inst)}
        assert labels == reference_labels(inst)


def test_verdict_matches_per_j_reference(corpus_main, corpus_small, corpus_br):
    kinds = set()
    for inst in corpus_main + corpus_small + corpus_br + corpus(8200, (5, 6), 60, max_cost_k=24):
        verdict = exists_appropriate(inst)
        assert verdict == reference_verdict(inst)
        kinds.add(verdict.reason)
    assert kinds == {None, "trivial", "c_undefined_at", REASON_PIGEONHOLE}


def test_lattice_built_once_and_outside_equality():
    rng = random.Random(8300)
    inst = random_instance(rng, 6)
    twin = random_instance(random.Random(8300), 6)
    assert inst.lattice is inst.lattice
    assert inst == twin and hash(inst) == hash(twin)
    assert "lattice" not in repr(inst)


def test_no_process_wide_state():
    rng = random.Random(8400)
    refs = []
    for _ in range(50):
        inst = random_instance(rng, rng.randrange(2, 9), max_cost_k=16)
        export_dot(inst)
        if exists_appropriate(inst).exists:
            audit_full_tree(inst, HcfPolicy(inst))
        refs.append(weakref.ref(inst))
        del inst
    gc.collect()
    assert [ref() for ref in refs] == [None] * 50
