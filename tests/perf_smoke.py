"""Performance smoke check: build the state lattice and verify large instances.

The adversarial majority instance at n = 800 has nearly every willing rank
distinct (695 distinct costs), so a decision that runs one O(n^2) per-state
DP per rank bound needs about a minute there; the packed-lane DP needs about
0.3 s, lattice included, since the lattice steps one floor per distinct cost
down the layers instead of dividing afresh on each (about 0.8 s before).
Two threshold-cost instances at the same n, majority with 500 zero costs and
consensus with 600, drawn by random.Random(1), then time the decision alone,
on a prebuilt lattice: most of their willing ranks are bounds that no path
can break, which the decision skips (about 1 s each when every distinct
willing rank below n took a pass, a few tens of ms with the skip).
Parity at q = 3/5 with n = 1000 has about half a million undetermined
states. With one agent at cost 1/10, a positive floor, it times the numerator
recurrence itself: 0.1-0.3 s for lattice and verify together. With every
cost 0 no floor is positive, so its lattice is the build that needs no
numerators, its rows read off the function table's constant runs: about
0.01 s (about 0.3 s when it rolled the numerators too). Two HCF games on
that zero-cost instance then approach all 1000 agents each, since parity is
forced only at the last; they read the lattice the verify built. Every agent stays willing and no state
above the last layer is determined, so the lattice's top depth is 1000: each
game takes the top remaining rank at every step, wholly in `run`'s
top-rank prefix and with no rank row read. The first game also pays the
O(n^2) scan of the rows that finds that depth (about 1.1 ms for the game
before the depth was kept, about 7.5 ms with the scan); the second, on other
secrets, shows the walk warm: about 0.08 ms (about 0.12 ms when each entry
was appended in a loop). Both draw their secrets before the clock starts;
the draw, about 0.45 ms, was once timed with them (0.65 ms in all, draw
included, with a row read per step). A print-only HCF game on majority at
n = 1000 with every cost 0, whose top depth is 500, takes half its steps
with no row read and the rest in the row walk, the scan down to layer 500
included. A last HCF game, on majority at n = 1000 with its three dearest
agents at the root's threshold, top depth 1, leaves that prefix after its
first step and calls `HcfPolicy.next` through `run`'s checked loop on each
of its other 987 steps, so it times that loop at large n: about 1.6 ms,
against about 1.5 ms when `next` masked only where the dearest remaining
rank was above the willing one. The total cost of each parity
game and of the last game must equal the sum of its approached ranks'
costs, the check of `run`'s total over the prefix and past it. Last, the
incentive checks at their caps, on parity at q = 3/5 with every cost 0: an
HCF audit at `AUDIT_CAP`, which records every one of its n(n+1)/2 states,
then a fixed-order audit of the same instance, which records the same
states and reads every threshold from the table the HCF audit filled,
and a deviation profile of every rank at `DEVIATION_CAP`, which share one
reach. These lines are printed only, to show the checks' cost on each run.
So are the two `ingest` lines before them, which time reading two n = 1000
documents: one with 1000 distinct cost strings, each parsed, and one with a
single cost string repeated, parsed once. Neither is gated. So is the
decision on majority at n = 80 with every cost 0 and the prior
q = 1/10^3999, whose numerators run to about 316,000 digits at the root: with
no positive floor it rolls none of them (about 2.9 s when it did).
Run it under a time limit, from any directory, on any interpreter: it puts the
checkout's `src` first on the path and imports no pytest, so it needs no
install:

    timeout 60 python tests/perf_smoke.py

It is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from builders import adversarial_majority, threshold_cost_instance  # noqa: E402  (needs src on the path)
from seqelicit.mechanism import (  # noqa: E402
    AUDIT_CAP,
    DEVIATION_CAP,
    FixedOrderPolicy,
    HcfPolicy,
    audit_full_tree,
    deviation_profile,
    draw_secrets,
    run,
)
from seqelicit.model import InfoState, ProblemInstance, consensus, ingest, majority, parity  # noqa: E402
from seqelicit.pivotal import threshold  # noqa: E402
from seqelicit.verify import REASON_PIGEONHOLE, exists_appropriate  # noqa: E402

N = 800
PARITY_N = 1000


def _check_total(instance: ProblemInstance, result) -> None:
    """A game's total cost is the sum of its approached ranks' costs."""
    total = sum((instance.costs[rank - 1] for rank, _ in result.transcript.entries), Fraction(0))
    assert result.total_cost_incurred == total, (result.total_cost_incurred, total)


def _timed(label: str, instance: ProblemInstance, reason: str | None) -> None:
    start = time.perf_counter()
    verdict = exists_appropriate(instance)
    elapsed = time.perf_counter() - start
    assert verdict.reason == reason, verdict.reason
    print(f"{label}: {verdict.reason} in {elapsed:.2f} s")


def main() -> None:
    _timed(f"adversarial majority n={N}", adversarial_majority(N), REASON_PIGEONHOLE)
    for fn, zeros in ((majority(N), 500), (consensus(N), 600)):
        instance = threshold_cost_instance(fn, zeros, random.Random(1))
        instance.lattice.rank  # built before the clock starts, to time the decision alone
        start = time.perf_counter()
        verdict = exists_appropriate(instance)
        elapsed = time.perf_counter() - start
        print(f"{fn.name} n={N}, {zeros} zero costs, lattice prebuilt: {verdict.reason} in {elapsed * 1000:.2f} ms")
    costs = [Fraction(0)] * (PARITY_N - 1) + [Fraction(1, 10)]
    one_cost = ProblemInstance.create(Fraction(3, 5), costs, parity(PARITY_N))
    _timed(f"parity q=3/5 n={PARITY_N}, one cost 1/10, numerators rolled", one_cost, None)
    del one_cost
    zero_costs = ProblemInstance.create(Fraction(3, 5), [Fraction(0)] * PARITY_N, parity(PARITY_N))
    _timed(f"parity q=3/5 n={PARITY_N}, zero costs, no numerators needed", zero_costs, None)
    for label, seed in (("hcf run", 1), ("warm hcf run", 2)):
        secrets = draw_secrets(zero_costs, seed)
        start = time.perf_counter()
        result = run(zero_costs, HcfPolicy(zero_costs), secrets)
        elapsed = time.perf_counter() - start
        assert result.approached_count == PARITY_N and result.total_cost_incurred == 0, result.halted_at
        _check_total(zero_costs, result)
        print(f"{label} on parity q=3/5 n={PARITY_N}: {result.approached_count} approaches in {elapsed * 1000:.2f} ms")
    assert zero_costs.lattice.top_depth == PARITY_N
    # Majority with every cost 0 has its first determined state at layer
    # n/2, so an HCF game takes the layers above it with no row read and
    # walks the rows from there.
    fn = majority(PARITY_N)
    zero_majority = ProblemInstance.create(Fraction(1, 2), [Fraction(0)] * PARITY_N, fn)
    root = threshold(InfoState(0, 0), zero_majority)  # builds the lattice before the clock starts
    start = time.perf_counter()
    result = run(zero_majority, HcfPolicy(zero_majority), draw_secrets(zero_majority, 3))
    elapsed = time.perf_counter() - start
    assert zero_majority.lattice.top_depth == PARITY_N // 2 < result.approached_count, result.halted_at
    print(f"hcf run on majority n={PARITY_N}, zero costs: {result.approached_count} approaches in {elapsed * 1000:.2f} ms")
    del zero_majority  # its numerator table, built for `root`, would slow the next game's first steps
    # The three dearest agents are willing at the root but not once the first
    # reply is 0, as it is on these secrets, so HCF takes the top rank first
    # and then ranks below the other two.
    dear_top = ProblemInstance.create(Fraction(1, 2), [Fraction(0)] * (PARITY_N - 3) + [root] * 3, fn)
    secrets = draw_secrets(dear_top, 2)
    dear_top.lattice.rank  # built before the clock starts, to time the steps alone
    start = time.perf_counter()
    result = run(dear_top, HcfPolicy(dear_top), secrets)
    elapsed = time.perf_counter() - start
    ranks = [rank for rank, _ in result.transcript.entries]
    assert dear_top.lattice.top_depth == 1
    assert ranks[0] == PARITY_N and ranks[1] < PARITY_N - 2, ranks[:2]
    assert result.output == fn.value_at(sum(secrets)), result.halted_at
    _check_total(dear_top, result)
    print(f"hcf run past the prefix on majority n={PARITY_N}: {result.approached_count} approaches in {elapsed * 1000:.2f} ms")
    for label, costs in (
        (f"{PARITY_N} distinct cost strings", [f"{k}/{PARITY_N + 9}" for k in range(PARITY_N)]),
        ("one cost string repeated", ["1/3"] * PARITY_N),
    ):
        text = json.dumps({"n": PARITY_N, "q": "3/5", "costs": costs, "function": "majority"})
        start = time.perf_counter()
        ingested = ingest(text)
        elapsed = time.perf_counter() - start
        assert ingested.n == PARITY_N and len(set(ingested.costs)) == len(set(costs)), label
        print(f"ingest n={PARITY_N}, {label}: {elapsed * 1000:.2f} ms")
    big_prior = ProblemInstance.create(Fraction(1, 10**3999), [Fraction(0)] * 80, majority(80))
    start = time.perf_counter()
    verdict = exists_appropriate(big_prior)
    elapsed = time.perf_counter() - start
    print(f"majority q=1/10^3999 n=80, zero costs, no numerators needed: {verdict.reason} in {elapsed * 1000:.2f} ms")
    audited = ProblemInstance.create(Fraction(3, 5), [Fraction(0)] * AUDIT_CAP, parity(AUDIT_CAP))
    start = time.perf_counter()
    report = audit_full_tree(audited, HcfPolicy(audited))
    elapsed = time.perf_counter() - start
    assert report.passed and len(report.records) == AUDIT_CAP * (AUDIT_CAP + 1) // 2, report.failure
    print(f"hcf audit on parity q=3/5 n={AUDIT_CAP}: {len(report.records)} records in {elapsed * 1000:.2f} ms")
    start = time.perf_counter()
    report = audit_full_tree(audited, FixedOrderPolicy(audited))
    elapsed = time.perf_counter() - start
    print(f"fixed-order audit on the same instance: {len(report.records)} records in {elapsed * 1000:.2f} ms")
    profiled = ProblemInstance.create(Fraction(3, 5), [Fraction(0)] * DEVIATION_CAP, parity(DEVIATION_CAP))
    start = time.perf_counter()
    profiles = [deviation_profile(profiled, HcfPolicy(profiled), rank) for rank in profiled.ranks]
    elapsed = time.perf_counter() - start
    print(f"deviation profiles on parity q=3/5 n={DEVIATION_CAP}: {len(profiles)} ranks in {elapsed * 1000:.2f} ms")


if __name__ == "__main__":
    main()
