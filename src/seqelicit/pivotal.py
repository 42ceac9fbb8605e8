"""Determination status, pivotality, and incentive thresholds at information states.

For an anonymous function, the pair (agents approached, ones reported) is a
sufficient statistic for everything the remaining agents can infer, so all
quantities here are functions of that pair. Each instance owns one
`StateLattice`, built on first use, that holds the pivotality numerator and
the willing rank of every state; the lookups below read it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .errors import StateExhausted
from .model import AnonymousFunctionSpec, InfoState, ProblemInstance


class StateLattice:
    """Integer pivotality numerators and willing ranks of every state (i, k), i < n.

    With q = a/b, P(i, k) = num[i][k] / b^(n-1-i). Conditioning on one of the
    other unapproached agents gives P(i,k) = q P(i+1,k+1) + (1-q) P(i+1,k), so
    num[i][k] = a num[i+1][k+1] + (b-a) num[i+1][k], starting from
    num[n-1][k] = [t(k) != t(k+1)]. Every binomial weight is positive, so
    num[i][k] is 0 exactly at the determined states.

    The threshold is (b-a) num / b^(n-i), so the agent at rank r is willing iff
    num >= ceil(cost_r.num b^(n-i) / (cost_r.den (b-a))); rank[i][k] counts
    those ranks (0 when nobody is willing).
    """

    def __init__(self, instance: ProblemInstance):
        n, a, b = instance.n, instance.q.numerator, instance.q.denominator
        table = instance.fn_spec.ones_to_one
        row = [int(table[k] != table[k + 1]) for k in range(n)]
        num = [row]
        for width in range(n - 1, 0, -1):
            row = [a * row[k + 1] + (b - a) * row[k] for k in range(width)]
            num.append(row)
        num.reverse()
        costs = [(c.numerator, c.denominator * (b - a)) for c in instance.costs]
        self.rank = []
        for i, row in enumerate(num):
            scale = b ** (n - i)
            bounds = [-(-top * scale // bottom) for top, bottom in costs]
            self.rank.append([bisect_right(bounds, v) for v in row])
        self.num = num
        self.n, self.a, self.b = n, a, b


def _check_state(state: InfoState, n: int) -> None:
    if state.approached > n:
        raise ValueError(f"state {state} out of range for n={n}")


def determine(state: InfoState, fn: AnonymousFunctionSpec) -> int | None:
    """The output forced at `state`, or None while both outcomes are reachable.

    The reachable ones-counts from (i, k) are k..k+(n-i); the output is forced
    exactly when the table is constant on that window.
    """
    _check_state(state, fn.n)
    window = fn.ones_to_one[state.ones : state.ones + (fn.n - state.approached) + 1]
    if all(window):
        return 1
    if not any(window):
        return 0
    return None


def _check_approachable(state: InfoState, n: int) -> None:
    _check_state(state, n)
    if state.approached == n:
        raise StateExhausted(f"no agent left to approach at {state}")


def _lattice(state: InfoState, instance: ProblemInstance) -> StateLattice:
    _check_approachable(state, instance.n)
    return instance.lattice


def pivotal_prob(state: InfoState, instance: ProblemInstance) -> Fraction:
    """Probability that the next reply flips the output, under truthful play.

    Zero at a determined state; at layer n-1 it is 0 or 1.
    """
    lattice = _lattice(state, instance)
    i, k = state.approached, state.ones
    return Fraction(lattice.num[i][k], lattice.b ** (lattice.n - 1 - i))


def threshold(state: InfoState, instance: ProblemInstance) -> Fraction:
    """Largest cost an agent will pay to compute at `state`: (1-q) * P(pivotal).

    An agent is eligible at the state iff its cost is at most this value
    (weak inequality).
    """
    lattice = _lattice(state, instance)
    i, k = state.approached, state.ones
    return Fraction((lattice.b - lattice.a) * lattice.num[i][k], lattice.b ** (lattice.n - i))


def c_of(state: InfoState, instance: ProblemInstance) -> int | None:
    """Largest 1-based cost rank still willing to compute at `state`.

    None when even the cheapest agent's cost exceeds the threshold.
    """
    return _lattice(state, instance).rank[state.approached][state.ones] or None
