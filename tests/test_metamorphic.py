"""Metamorphic laws of the existence decision and the HCF audit: relations
between the answers on two related instances, which hold at any n and need
no oracle."""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import threshold_cost_instance
from seqelicit.mechanism import HcfPolicy, audit_full_tree
from seqelicit.model import InfoState, ProblemInstance, consensus, emit, ingest, majority, parity
from seqelicit.oracle import mirror
from seqelicit.pivotal import c_of
from seqelicit.verify import REASON_C_UNDEFINED, REASON_PIGEONHOLE, exists_appropriate

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


def _low_cost_draws(rng, q, sizes):
    """Seeded instances at prior q: each family at each size, with costs
    min(q, 1-q) * j/64 / 2^e for random j < 64 and e < 16, so that willing
    ranks spread over 0..n."""
    low = min(q, 1 - q)
    return [
        ProblemInstance.create(
            q, [low * Fraction(rng.randrange(64), 64 << rng.randrange(16)) for _ in range(n)], family(n)
        )
        for n in sizes
        for family in FAMILIES
    ]


def _flipped(state: InfoState) -> InfoState:
    return InfoState(state.approached, state.approached - state.ones)


def test_mirroring_the_secrets_mirrors_the_lattice_and_keeps_the_verdict():
    # Relabelling every secret 0 <-> 1 (q -> 1-q, table reversed) maps state
    # (i, k) to (i, i-k) with the same threshold and willing rank, so the
    # rank rows reverse and the verdict and its reason stay. Each witness
    # maps onto a path that overpacks the other instance at the same bound,
    # though not onto its witness: the smallest violating end node maps to
    # the largest. A state where c is undefined maps to one where it is too.
    rng = random.Random(20261022)
    sizes = (32, 64, 100, 140, 200)
    draws = _draws(rng, sizes, per_family=1)
    for q in (Fraction(3, 5), Fraction(1, 3), Fraction(3, 4)):
        draws += _low_cost_draws(rng, q, sizes)
    reasons = set()
    for inst in draws:
        mirrored = mirror(inst)
        assert all(row == other[::-1] for row, other in zip(inst.lattice.rank, mirrored.lattice.rank))
        verdict, mirrored_verdict = exists_appropriate(inst), exists_appropriate(mirrored)
        assert (verdict.exists, verdict.reason) == (mirrored_verdict.exists, mirrored_verdict.reason)
        reasons.add(verdict.reason)
        for verdict, other in ((verdict, mirrored), (mirrored_verdict, inst)):
            if verdict.reason == REASON_PIGEONHOLE:
                bound = verdict.witness.violating_rank
                willing = [c_of(_flipped(state), other) for state in verdict.witness.path]
                assert sum(1 for c in willing if c is not None and c <= bound) > bound
            elif verdict.reason == REASON_C_UNDEFINED:
                i, k = _flipped(verdict.undefined_at)
                assert other.lattice.rank[i][k] == 0
    assert {REASON_PIGEONHOLE, REASON_C_UNDEFINED, None} <= reasons
