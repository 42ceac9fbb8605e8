"""Instance builders that need no pytest, so scripts outside the suite, such as
`perf_smoke.py`, can import them as well as `conftest`, which re-exports them."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from seqelicit.model import AnonymousFunctionSpec, ProblemInstance, majority


def threshold_cost_instance(fn: AnonymousFunctionSpec, zeros: int, rng: random.Random) -> ProblemInstance:
    """The function at q = 1/2 with `zeros` agents at cost 0 and the others at
    costs drawn by `rng.choice` from the sorted distinct thresholds of the
    all-zero-cost instance, so that willing ranks spread over 0..n.

    At q = 1/2 the threshold at (i, k) is num[i][k] / 2^(n-i), so the
    thresholds sort as the integers num[i][k] * 2^i over 2^n. The numerators
    roll up from the leaves as num[i][k] = num[i+1][k] + num[i+1][k+1], two
    rows at a time, so the O(n^3)-bit table is never held. A constant
    function has no undetermined state and so no threshold; its costs are 0.
    """
    n = fn.n
    table = fn.ones_to_one
    row = [int(table[k] != table[k + 1]) for k in range(n)]
    scaled = set()
    for i in reversed(range(n)):
        scaled.update(num << i for num in row if num)
        row = list(map(add, row, row[1:]))
    scaled = sorted(scaled) or [0]
    costs = [Fraction(0)] * zeros + [Fraction(rng.choice(scaled), 2**n) for _ in range(n - zeros)]
    return ProblemInstance.create(Fraction(1, 2), costs, fn)


def adversarial_majority(n: int) -> ProblemInstance:
    """Strict majority with n // 8 zero costs and thresholds drawn by
    random.Random(0): nearly every willing rank is distinct, the worst case
    for one path DP per rank bound."""
    return threshold_cost_instance(majority(n), n // 8, random.Random(0))
