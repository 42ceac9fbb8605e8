"""Metamorphic laws of the existence decision and the HCF audit: relations
between the answers on two related instances, which hold at any n and need
no oracle."""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import threshold_cost_instance
from seqelicit.mechanism import HcfPolicy, audit_full_tree
from seqelicit.model import ProblemInstance, consensus, emit, ingest, majority, parity
from seqelicit.verify import exists_appropriate

FAMILIES = (parity, majority, consensus)


def _draws(rng, sizes, per_family=3):
    """Seeded instances with willing ranks spread over 0..n: each family at
    each size, with a random number of zero-cost agents."""
    return [
        threshold_cost_instance(family(n), rng.randrange(n // 2 + 1), rng)
        for n in sizes
        for family in FAMILIES
        for _ in range(per_family)
    ]


def test_lowering_a_cost_never_loses_an_appropriate_mechanism():
    # Eligibility is cost <= threshold and the thresholds do not depend on
    # the costs, so lowering one positive cost keeps every agent that was
    # eligible somewhere eligible there: a True verdict stays True.
    rng = random.Random(20261019)
    kept = 0
    for inst in _draws(rng, (32, 64, 100, 140, 200)):
        positive = [rank for rank in inst.ranks if inst.costs[rank - 1] > 0]
        if not exists_appropriate(inst).exists or not positive:
            continue
        costs = list(inst.costs)
        rank = rng.choice(positive)
        costs[rank - 1] *= Fraction(rng.randrange(4), 4)
        lowered = ProblemInstance.create(inst.q, costs, inst.fn_spec)
        assert exists_appropriate(lowered).exists, (inst.n, inst.fn_spec.name, rank)
        kept += 1
    assert kept >= 10


def _relabelled(document, rng):
    """The same agents in a shuffled input order, under shuffled ids."""
    ids = list(document["agent_ids"])
    rng.shuffle(ids)
    agents = list(zip(document["costs"], ids))
    rng.shuffle(agents)
    return {**document, "costs": [cost for cost, _ in agents], "agent_ids": [name for _, name in agents]}


def test_relabelling_the_agents_keeps_the_verdict_and_the_witness():
    # The answers depend on the costs in rank order alone, ties included, so
    # no input order or naming of the agents changes the verdict, its reason,
    # the state where c is undefined or the witness path.
    rng = random.Random(20261020)
    verdicts = set()
    for inst in _draws(rng, (32, 64, 128, 200), per_family=2):
        document = emit(inst)
        relabelled = ingest(_relabelled(document, rng))
        assert relabelled.costs == inst.costs
        verdict = exists_appropriate(inst)
        assert exists_appropriate(relabelled) == verdict
        verdicts.add(verdict.reason)
    assert len(verdicts) >= 2


def test_relabelling_the_agents_keeps_the_hcf_audit():
    # Up to n = 20 the audit runs too: the same pass or failure and the same
    # records, by rank, in the same order.
    rng = random.Random(20261021)
    passed = set()
    for inst in _draws(rng, (4, 9, 14, 20), per_family=2):
        relabelled = ingest(_relabelled(emit(inst), rng))
        report = audit_full_tree(inst, HcfPolicy(inst))
        assert audit_full_tree(relabelled, HcfPolicy(relabelled)) == report
        passed.add(report.passed)
    assert passed == {True, False}
