"""Shared fixtures: the worked example instances and seeded random corpora.
The builders that scripts outside the suite also use live in `builders`."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from builders import adversarial_majority, threshold_cost_instance  # noqa: F401  (re-exported)
from seqelicit.model import (
    AnonymousFunctionSpec,
    InfoState,
    ProblemInstance,
    consensus,
    majority,
    parity,
)
from seqelicit.pivotal import c_of
from seqelicit.verify import REASON_PIGEONHOLE

INSTANCES_DIR = Path(__file__).resolve().parent.parent / "instances"

Q_CHOICES = (Fraction(1, 2), Fraction(3, 5), Fraction(3, 4))


def make_instance(q, costs, table, name=None, agent_ids=None) -> ProblemInstance:
    fn = AnonymousFunctionSpec(len(costs), tuple(bool(b) for b in table), name)
    return ProblemInstance.create(
        Fraction(q), tuple(Fraction(c) for c in costs), fn, agent_ids
    )


def example1_instance() -> ProblemInstance:
    return ProblemInstance.create(Fraction(1, 2), (Fraction(2, 5),) * 11, majority(11))


def example2_instance() -> ProblemInstance:
    return ProblemInstance.create(
        Fraction(1, 2), (Fraction(0), Fraction(0), Fraction(0), Fraction(2, 5)), consensus(4)
    )


def example3_instance() -> ProblemInstance:
    return ProblemInstance.create(Fraction(1, 2), (Fraction(2, 5),) * 11, parity(11))


def random_instance(
    rng: random.Random, n: int, q: Fraction | None = None, max_cost_k: int = 64
) -> ProblemInstance:
    """One corpus draw: a fair coin per ones-count (constants kept), costs k/64."""
    if q is None:
        q = rng.choice(Q_CHOICES)
    table = tuple(rng.random() < 0.5 for _ in range(n + 1))
    costs = tuple(Fraction(rng.randrange(max_cost_k), 64) for _ in range(n))
    return ProblemInstance.create(q, costs, AnonymousFunctionSpec(n, table, None))


def check_witness(instance: ProblemInstance, verdict) -> None:
    """Recount a pigeonhole verdict's witness from `c_of` along its path: one
    state per layer from the root, each step adding 0 or 1 to the ones, a
    willing agent at every state, and more than `violating_rank` states
    willing at that bound. Any other verdict passes."""
    if verdict.reason != REASON_PIGEONHOLE:
        return
    path, bound, count = verdict.witness
    assert path[0] == InfoState(0, 0)
    assert [state.approached for state in path] == list(range(instance.n))
    assert all(b.ones - a.ones in (0, 1) for a, b in zip(path, path[1:]))
    willing = [c_of(state, instance) for state in path]
    # A state with no willing agent is reported as c_undefined_at first.
    assert None not in willing
    assert count == sum(1 for c in willing if c <= bound)
    assert count > bound


def corpus(
    seed: int, sizes: tuple[int, ...], count: int, max_cost_k: int = 64
) -> tuple[ProblemInstance, ...]:
    rng = random.Random(seed)
    return tuple(
        random_instance(rng, sizes[idx % len(sizes)], max_cost_k=max_cost_k)
        for idx in range(count)
    )


@pytest.fixture(scope="session")
def corpus_main():
    """200 instances, n in 2..10, for the verifier-vs-policy-tree equivalence."""
    return corpus(20240601, tuple(range(2, 11)), 200)


@pytest.fixture(scope="session")
def corpus_small():
    """100 instances, n in 1..4, small enough for full mechanism enumeration."""
    return corpus(20240602, (1, 2, 3, 4), 100)


@pytest.fixture(scope="session")
def corpus_pivotal():
    """33 instances, n in 2..12, for pivotality formula vs enumeration."""
    return corpus(20240603, tuple(range(2, 13)), 33)


@pytest.fixture(scope="session")
def corpus_br():
    """60 instances, n in 2..8, feeding the best-response suite.

    Costs are drawn below 1/4 so that a healthy share of audits pass; the
    uniform-cost corpora almost never clear the incentive thresholds, which
    would leave the best-response check with nothing to exercise.
    """
    return corpus(20240605, tuple(range(2, 9)), 60, max_cost_k=16)


@pytest.fixture
def example1():
    return example1_instance()


@pytest.fixture
def example2():
    return example2_instance()


@pytest.fixture
def example3():
    return example3_instance()
