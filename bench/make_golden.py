"""Write golden/<pool>.json: the exact answer of every pool item under the
program in this checkout. Run from the checkout root, on the commit whose
answers are the reference:

    python3 bench/make_golden.py            # both pools
    python3 bench/make_golden.py --pool dev

Each relabelled item is answered under two different relabellings, and each
CLI call both as a process and in-process; the two must agree before the
answer is written. The hcf-online instances must admit a mechanism.
"""

from __future__ import annotations

import argparse
import itertools
import json

from worker import BENCH, CliRunner  # sets up the import path

import workloads
from seqelicit import model, verify


def answers(wl, pool: str) -> dict[str, dict]:
    rounds = wl.rounds(pool)
    runner = CliRunner(pool) if wl.name == "cli-mixed" else None
    if wl.name == "hcf-online":
        wl.load(pool)
        for name, doc in wl.specs(pool).items():
            if not verify.exists_appropriate(model.ingest(json.dumps(doc))).exists:
                raise SystemExit(f"hcf-online instance {name} admits no mechanism")
    entries = {}
    try:
        for item in itertools.chain.from_iterable(rounds):
            if runner is not None:
                raws = [runner.process(item["argv"]), runner.in_process(item["argv"])]
            else:
                raws = [wl.execute(wl.prepare(item, seed, op)) for seed, op in ((0, 0), (1, 1))]
            outs = {workloads.digest(wl.canon(item, raw)) for raw in raws}
            if len(outs) != 1:
                raise SystemExit(f"{wl.name} item {item['key']}: answers differ between relabellings")
            entries[item["key"]] = {"input": workloads.digest(item), "output": outs.pop()}
    finally:
        if runner is not None:
            runner.close()
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=sorted(workloads.POOLS))
    args = parser.parse_args()
    for pool in [args.pool] if args.pool else sorted(workloads.POOLS):
        golden = {"pool": pool, "workloads": {}}
        for wl in workloads.WORKLOADS.values():
            golden["workloads"][wl.name] = answers(wl, pool)
            print(f"{pool} {wl.name}: {len(golden['workloads'][wl.name])} answers", flush=True)
        path = BENCH / "golden" / f"{pool}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
