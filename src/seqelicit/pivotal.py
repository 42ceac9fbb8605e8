"""Pivotality, incentive thresholds and willing ranks at information states.

For an anonymous function, the pair (agents approached, ones reported) is a
sufficient statistic for everything the remaining agents can infer, so all
quantities here are functions of that pair. Each instance owns one
`StateLattice`, built on first use, that holds the willing rank, or determined
mark, of every state; the lookups read it. The pivotality numerators are
rolled up from the leaves through two rows while the ranks are read off them,
unless no kept cost is positive: then every live state has the same willing
rank, and the rows come from the function table's constant runs alone.
The full numerator table is built only on first read, for `pivotal_prob`
and `threshold`, which turn one numerator into its rational, and the incentive
checks. The audits keep the thresholds they make in a table of one slot per
state, beside it. The thresholds along one path come from a second pass
through two rows. The reduced graph of undetermined states, on which `verify`
decides existence, is the lattice itself: `nodes` and `edges` read it off the
willing ranks.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import floordiv

from .errors import CapExceeded, StateExhausted
from .model import InfoState, ProblemInstance

# Most numerator bits the recurrence may produce, checked from n and q = a/b
# before any row is built. A numerator at layer i is at most b^(n-1-i), about
# beta (n-1-i) bits for beta = (b-1).bit_length(), so the n-i states of each
# layer sum to beta (n-1) n (n+1) / 3 bits in all. The build keeps only two
# rows of them, so the count bounds its work, and the memory of the full
# table that `StateLattice.num` builds for the callers of P. 2^34 bits
# admits parity at q=1/2 and n=3000 (about 9.0e9 bits) and turns n=20000
# (about 2.7e12) away at once.
LATTICE_BUDGET_BITS = 2**34

# Layers per block of floors: each block's top layer comes from the closed
# form, the rest step down by `// b`; a closed form on every layer would pay a
# multiplication by b^(n-s) per distinct cost per layer (3.8x slower on an adversarial n = 800 majority).
_BLOCK = 64


class StateLattice:
    """Willing ranks of every state (i, k), i < n, and, on first read, the
    integer pivotality numerators, which `pivotal_prob` and `threshold` turn
    into one state's rationals.

    With q = a/b, P(i, k) = num[i][k] / b^(n-1-i). Conditioning on one of the
    other unapproached agents gives P(i,k) = q P(i+1,k+1) + (1-q) P(i+1,k), so
    num[i][k] = a num[i+1][k+1] + (b-a) num[i+1][k], starting from
    num[n-1][k] = [t(k) != t(k+1)]. Every binomial weight is positive, so
    num[i][k] is 0 exactly at the determined states. The build rolls this up
    from the leaves, one row from the last, and keeps only the rank row read
    off each; `num`, the whole table, is built on its first read and kept,
    and `path_thresholds` rolls the rows up again to read one path.

    An agent who does not compute replies with the likelier bit, wrong with
    probability min(q, 1-q) = m/b for m = min(a, b-a), so the threshold is
    m num / b^(n-i), and the agent at rank r is willing iff num > F_i(r), the
    floor ceil(cost_r.num b^(n-i) / (cost_r.den m)) - 1; rank[i][k] counts
    those ranks (0 when nobody is willing). Equal costs share one floor. The
    rows come up from the leaves a block of 64 layers at a time: the floors
    of a block's top layer s come from the closed form,
    (cost_r.num b^(n-s) - 1) // (cost_r.den m), and the block's other layers
    step down as F_(i+1) = F_i // b, exact since floor(floor(x)/b) =
    floor(x/b). A cost above m/b, cost_r.num b > cost_r.den m, is dropped
    before any floor: P <= 1 keeps num[i][k] <= b^(n-1-i) <= F_i, so that
    rank is willing nowhere.

    A determined state, with threshold 0, has the z zero-cost agents willing
    and holds ~z = -z-1, so `rank[i][k] < 0` is the forced test and
    max(r, ~r) the willing count at any state.

    When no kept cost is positive (every cost is 0 or above m/b), every floor
    is -1, so each live state has all the kept ranks willing and only the
    determined mark varies. Then the build rolls no numerator: state (i, k)
    is determined iff the function table is constant on [k, k + n - i], so
    each row is one willing rank with ~z written over the determined stretch
    of each constant run longer than n - i, a few list operations per layer.
    `num` and `path_thresholds` roll the recurrence on first read as ever.
    """

    def __init__(self, instance: ProblemInstance):
        n, a, b = instance.n, instance.q.numerator, instance.q.denominator
        bits = (b - 1).bit_length() * (n - 1) * n * (n + 1) // 3
        if bits > LATTICE_BUDGET_BITS:
            raise CapExceeded(f"state lattice capped at {LATTICE_BUDGET_BITS} numerator bits, n={n} may need {bits}")
        table = instance.fn_spec.ones_to_one
        self._leaves = [int(table[k] != table[k + 1]) for k in range(n)]
        # Floors only for the distinct costs, ascending since the costs are
        # sorted; `below[d]` counts the ranks among the d cheapest of them.
        counts: dict[tuple[int, int], int] = {}
        for pair in instance._cost_pairs:
            counts[pair] = counts.get(pair, 0) + 1
        below = [0, *accumulate(counts.values())]
        m = min(a, b - a)
        self._a, self._m, self._b = a, m, b
        # A cost above m/b is willing nowhere (P <= 1); the rest are a prefix.
        costs = [(top, den * m) for top, den in counts if top * b <= den * m]
        determined = ~counts.get((0, 1), 0)  # the number of zero-cost agents, the only ones willing at threshold 0
        rank = []
        if costs and costs[-1][0]:  # the dearest kept cost is positive
            rows = self._rows()
            for start in reversed(range(0, n, _BLOCK)):
                scale = b ** (n - start)
                block = [[(top * scale - 1) // dm for top, dm in costs]]
                for _ in range(start + 1, min(start + _BLOCK, n)):
                    block.append(list(map(floordiv, block[-1], repeat(b))))
                for floors in reversed(block):
                    rank.append([below[bisect_left(floors, v)] if v else determined for v in next(rows)])
        else:
            # No floor is positive, so every live state has one willing rank,
            # and (i, k) is determined iff the table is constant on
            # [k, k + d] for d = n - i: each constant run [s, e) of the table
            # longer than d marks k in [s, e - d). Longest runs first, so a
            # layer stops at the first run too short for it.
            willing = below[len(costs)]
            cuts = [k + 1 for k, flip in enumerate(self._leaves) if flip]
            runs = sorted(zip([0, *cuts], [*cuts, n + 1]), key=lambda run: run[0] - run[1])
            for d in range(1, n + 1):
                row = [willing] * (n + 1 - d)
                for s, e in runs:
                    if e - s <= d:
                        break
                    row[s : e - d] = [determined] * (e - d - s)
                rank.append(row)
        self.rank = rank[::-1]

    def _rows(self):
        """The numerator rows from the leaves up, layer n-1 first, each
        rolled from the last: the one copy of the recurrence, which the
        build (when some kept cost is positive), `num` and `path_thresholds`
        read."""
        a, b_a = self._a, self._b - self._a
        row = self._leaves
        yield row
        for _ in range(len(row) - 1):
            row = [a * y + b_a * x for x, y in zip(row, row[1:])]
            yield row

    @cached_property
    def num(self) -> list[list[int]]:
        """Every numerator, root row first: O(n^3) bits, built on first read
        by the recurrence the ranks were read from."""
        return list(self._rows())[::-1]

    @cached_property
    def thresholds(self) -> list[list[Fraction | None]]:
        """One slot per state, root row first, each None until an audit
        writes the state's threshold there, so both audits of an instance
        share one `Fraction` per distinct threshold. Only `audit_full_tree`
        builds and fills it; `threshold` and `path_thresholds` make theirs
        afresh."""
        return [[None] * (i + 1) for i in range(len(self.rank))]

    @cached_property
    def top_depth(self) -> int:
        """The first layer d with a state (i, k) of `rank[i][k] < n - i`,
        determined included, else n: above d every state is undetermined and
        willing to rank n - i. Found on first read, by the HCF games of
        `run`, from a scan of the rows down to layer d."""
        n = len(self.rank)
        return next((i for i, row in enumerate(self.rank) if min(row) < n - i), n)

    def threshold(self, i: int, num: int) -> Fraction:
        """m num / b^(n-i), the threshold at layer i of the state whose numerator is `num`."""
        return Fraction(self._m * num, self._b ** (len(self.rank) - i))

    def path_thresholds(self, ones: list[int]) -> list[Fraction]:
        """`threshold` at (i, ones[i]) for each i < len(ones) <= n, from one pass
        up from the leaves that keeps two rows: `num` is not built."""
        if not ones:
            return []
        n = len(self.rank)
        picked = [row[ones[i]] for i, row in zip(range(n - 1, -1, -1), self._rows()) if i < len(ones)]
        return list(map(self.threshold, range(n), reversed(picked)))


def _check_approachable(state: InfoState, n: int) -> None:
    if state.approached > n:
        raise ValueError(f"state {state} out of range for n={n}")
    if state.approached == n:
        raise StateExhausted(f"no agent left to approach at {state}")


def _lattice(state: InfoState, instance: ProblemInstance) -> StateLattice:
    _check_approachable(state, instance.n)
    return instance.lattice


def pivotal_prob(state: InfoState, instance: ProblemInstance) -> Fraction:
    """Probability that the next reply flips the output, under truthful play.

    Zero at a determined state; at layer n-1 it is 0 or 1.
    """
    i, k = state.approached, state.ones
    return Fraction(_lattice(state, instance).num[i][k], instance.q.denominator ** (instance.n - 1 - i))


def threshold(state: InfoState, instance: ProblemInstance) -> Fraction:
    """Largest cost an agent will pay to compute at `state`:
    min(q, 1-q) * P(pivotal), as not computing means replying with the
    likelier bit. An agent is eligible at the state iff its cost is at most
    this value (weak inequality).
    """
    lattice = _lattice(state, instance)
    return lattice.threshold(state.approached, lattice.num[state.approached][state.ones])


def nodes(instance: ProblemInstance) -> list[InfoState]:
    """The undetermined states, those with a nonnegative willing rank, in
    lexicographic (i, k) order; empty for a constant function.

    A predecessor of an undetermined state is undetermined too, so the
    nodes hang off (0, 0) whenever there are any.
    """
    return [InfoState(i, k) for i, row in enumerate(instance.lattice.rank) for k, r in enumerate(row) if r >= 0]


def edges(instance: ProblemInstance) -> list[tuple[InfoState, InfoState]]:
    """The (state, child) pairs among the nodes, one extra reply apart (a 0
    keeps k, a 1 increments it), parents in node order and the 0-reply child
    first. Every node with no undetermined child sits at layer n-1.
    """
    rank = instance.lattice.rank
    return [
        (state, InfoState(state.approached + 1, k))
        for state in nodes(instance)
        if state.approached + 1 < instance.n
        for k in (state.ones, state.ones + 1)
        if rank[state.approached + 1][k] >= 0
    ]


def c_of(state: InfoState, instance: ProblemInstance) -> int | None:
    """Largest 1-based cost rank still willing to compute at `state`.

    None when even the cheapest agent's cost exceeds the threshold. At a
    determined state, threshold 0, it counts the zero-cost agents (or None).
    """
    willing = _lattice(state, instance).rank[state.approached][state.ones]
    return (willing if willing >= 0 else ~willing) or None
