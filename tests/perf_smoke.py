"""Performance smoke check: verify the adversarial majority instance at n = 800.

Nearly every willing rank of this instance is distinct, so a decision that
runs one O(n^2) per-state DP per rank bound needs about a minute here; the
packed-lane DP needs about a second, lattice included. Run it under a time
limit, from the repository root, with the package installed or on the path:

    PYTHONPATH=src timeout 60 python tests/perf_smoke.py

It is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import time

from conftest import adversarial_majority
from seqelicit.verify import REASON_PIGEONHOLE, exists_appropriate

N = 800


def main() -> None:
    start = time.perf_counter()
    verdict = exists_appropriate(adversarial_majority(N))
    elapsed = time.perf_counter() - start
    assert verdict.reason == REASON_PIGEONHOLE, verdict.reason
    print(f"adversarial majority n={N}: {verdict.reason} in {elapsed:.2f} s")


if __name__ == "__main__":
    main()
