"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria cover the three worked examples exactly, oracle equivalences over
seeded corpora, the structural graph lemmas, the best-response audit, and
byte-level CLI determinism, each under its stated runtime budget.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from fractions import Fraction

from conftest import INSTANCES_DIR, example1_instance, example2_instance, example3_instance
from seqelicit.mechanism import (
    FixedOrderPolicy,
    HcfPolicy,
    audit_full_tree,
    deviation_profile,
    run,
)
from seqelicit.model import ALL_ACTIONS, GUESS_ONE, InfoState, TRUTHFUL_COMPUTE
from seqelicit.oracle import brute_pivotal, exhaustive_existence, hcf_tree_existence
from seqelicit.pivotal import edges, nodes, pivotal_prob, threshold
from seqelicit.verify import REASON_C_UNDEFINED, exists_appropriate


class budget:
    """Context manager asserting the block stays under `limit` seconds."""

    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit:.0f}s budget"
            )
        return False


def _report(number: int, label: str, timer: budget) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS [{timer.elapsed:.2f}s]")


def test_criterion_1_majority_example():
    with budget(1.0) as timer:
        inst = example1_instance()
        assert pivotal_prob(InfoState(0, 0), inst) == Fraction(63, 256)
        utility = deviation_profile(inst, FixedOrderPolicy(inst), 1)[GUESS_ONE]
        assert utility == Fraction(449, 512)
        assert abs(float(utility) - 0.875) <= 0.005
        verdict = exists_appropriate(inst)
        assert not verdict.exists
        assert verdict.reason == REASON_C_UNDEFINED
        assert verdict.undefined_at == InfoState(0, 0)
    _report(1, "majority n=11", timer)


def test_criterion_2_consensus_example():
    with budget(1.0) as timer:
        inst = example2_instance()
        assert exists_appropriate(inst).exists
        policy = HcfPolicy(inst)
        # The three zero-cost agents always go before the costly fourth one.
        for secrets in itertools.product((0, 1), repeat=4):
            ranks = [r for r, _ in run(inst, policy, secrets).transcript.entries]
            if 4 in ranks:
                assert ranks.index(4) == 3
            assert all(rank in (1, 2, 3) for rank in ranks[:3])
        assert threshold(InfoState(3, 0), inst) == Fraction(1, 2)
        profile = deviation_profile(inst, policy, 4)
        assert profile[GUESS_ONE] == Fraction(1, 2)
        assert profile[TRUTHFUL_COMPUTE] == Fraction(3, 5)
        assert audit_full_tree(inst, policy).passed
    _report(2, "consensus n=4", timer)


def test_criterion_3_parity_example():
    with budget(10.0) as timer:
        inst = example3_instance()
        states = nodes(inst)
        assert states
        assert all(pivotal_prob(state, inst) == 1 for state in states)
        assert exists_appropriate(inst).exists
        assert audit_full_tree(inst, HcfPolicy(inst)).passed
    _report(3, "parity n=11", timer)


def test_criterion_4_verifier_matches_hcf_tree(corpus_main):
    with budget(120.0) as timer:
        assert len(corpus_main) >= 200
        mismatches = [
            inst
            for inst in corpus_main
            if exists_appropriate(inst).exists != hcf_tree_existence(inst).exists
        ]
        assert mismatches == []
    _report(4, f"verify == hcf-tree on {len(corpus_main)} instances", timer)


def test_criterion_5_verifier_matches_exhaustive(corpus_small):
    with budget(60.0) as timer:
        assert len(corpus_small) >= 100
        mismatches = [
            inst
            for inst in corpus_small
            if exists_appropriate(inst).exists != exhaustive_existence(inst).exists
        ]
        assert mismatches == []
    _report(5, f"verify == mechanism enumeration on {len(corpus_small)} instances", timer)


def test_criterion_6_pivotal_formula_matches_enumeration(corpus_pivotal):
    with budget(60.0) as timer:
        states_checked = 0
        for inst in corpus_pivotal:
            for i in range(inst.n):
                for k in range(i + 1):
                    state = InfoState(i, k)
                    assert pivotal_prob(state, inst) == brute_pivotal(state, inst)
                    states_checked += 1
    _report(6, f"pivotality exact on {states_checked} states", timer)


def test_criterion_7_structural_lemmas(corpus_main):
    with budget(60.0) as timer:
        for inst in corpus_main:
            states = set(nodes(inst))
            parents = {a for a, _ in edges(inst)}
            # Every node with no outgoing edge sits at layer n-1.
            for end in states - parents:
                assert end.approached == inst.n - 1
            for state in states:
                i, k = state.approached, state.ones
                if k > 0:
                    assert InfoState(i - 1, k - 1) in states
                if k < i:
                    assert InfoState(i - 1, k) in states
    _report(7, f"structural lemmas on {len(corpus_main)} graphs", timer)


def test_criterion_8_best_response(corpus_br):
    with budget(120.0) as timer:
        audited = 0
        for inst in corpus_br:
            policy = HcfPolicy(inst)
            report = audit_full_tree(inst, policy)
            if not report.passed:
                continue
            audited += 1
            for rank in sorted({rec.rank for rec in report.records}):
                profile = deviation_profile(inst, policy, rank)
                truthful = profile[TRUTHFUL_COMPUTE]
                assert truthful == 1 - inst.costs[rank - 1]
                for action in ALL_ACTIONS:
                    assert profile[action] <= truthful
        assert audited >= 25
    _report(8, f"best response on {audited} passing audits", timer)


def test_criterion_9_cli_determinism():
    with budget(60.0) as timer:
        commands = [
            ["verify", str(INSTANCES_DIR / "example2.json"), "--json"],
            ["verify", str(INSTANCES_DIR / "example1.json"), "--json"],
            ["pivotal", str(INSTANCES_DIR / "example2.json")],
            ["graph", str(INSTANCES_DIR / "example2.json")],
            ["graph", str(INSTANCES_DIR / "example3.json")],
            ["hcf", str(INSTANCES_DIR / "example2.json"), "--seed", "7", "--json"],
            ["audit", str(INSTANCES_DIR / "example1.json"), "--json"],
        ]
        for argv in commands:
            first = subprocess.run(
                [sys.executable, "-m", "seqelicit", *argv], capture_output=True, check=False
            )
            second = subprocess.run(
                [sys.executable, "-m", "seqelicit", *argv], capture_output=True, check=False
            )
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode
    _report(9, "byte-identical CLI output", timer)
