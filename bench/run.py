"""seqelicit benchmark: four closed-loop workloads with exact-output checks.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-lattice --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                # every workload in turn
    python3 bench/run.py --workload hcf-online --trace 1   # per-layer numbers

Each workload runs in fresh worker processes (bench/worker.py): a few that
only set up, to time set-up, then one that runs the timed loop. With
--trace 1 a traced worker runs the loop with spans around every layer and
writes them to .bench_out/, and an untraced reference worker repeats the same
operations to price the tracing. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics. The exit code is 0 only
when every output matched the golden answers and the brute-force oracles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 2  # set-up is timed this many times per run; the median is reported
# Workload and metric names come from the manifest next to this directory, so
# what runs and prints is always exactly what it declares.
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, pool: str, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--pool", pool, "--mode", mode, *extra, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, pool: str, seconds: int) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics, in reference-speed time. Each
    operation's latency is scaled by the speed probe run just before it on the
    same vCPU; each set-up time by the median of the probes run right after
    it."""
    setups = [spawn(workload, seed, pool, "setup") for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(workload, seed, pool, "timed", "--seconds", str(seconds))
    setups.append(res)
    # Scaled to the host speed at which the probe takes probe_ref_s, so that
    # the host's slow and fast phases cancel out; see README.md, "Noise".
    ref = res["probe_ref_s"]
    lat = [x * ref / p for x, p in zip(res["latencies_s"], res["probes_s"])]
    metrics = {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        # The 90th percentile; a run must leave ten samples above it.
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] * ref / statistics.median(s["setup_probes_s"]) for s in setups),
    }
    raw = res["latencies_s"]
    res["unscaled"] = {
        "probe_ms_p50": statistics.median(res["probes_s"]) * 1000,
        "throughput_ops_s": len(raw) / sum(raw),
        "latency_p50_ms": statistics.median(raw) * 1000,
        "latency_p90_ms": statistics.quantiles(raw, n=10)[8] * 1000,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    return metrics, res


def trace(workload: str, seed: int, pool: str, seconds: int) -> tuple[dict, dict]:
    """Traced run plus an untraced reference on the same first cycle of
    operations: the per-layer metrics and the tracing overhead."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"trace-{workload}-{pool}-s{seed}.json"
    res = spawn(workload, seed, pool, "traced", "--seconds", str(seconds), "--trace-out", str(trace_out))
    ops = min(res["attempted"], res["cycle_ops"])  # the first cycle is enough to price the tracer
    ref = spawn(workload, seed, pool, "reference", "--ops", str(ops))
    metrics = {name: res["layers"].get(name, 0) for name in PER_LAYER_UNITS}
    # Each latency over its speed probe, as in measure(), so that the two
    # workers' host phases do not read as tracer cost.
    traced, untraced = ([x / p for x, p in zip(r["latencies_s"][:ops], r["probes_s"])] for r in (res, ref))
    metrics["trace.overhead_pct"] = 100 * (sum(traced) / sum(untraced) - 1)
    res["attempted"] += ref["attempted"]
    res["failed"] += ref["failed"]
    res["oracle_mismatches"] += ref["oracle_mismatches"]
    res["trace_file"] = str(trace_out.relative_to(ROOT))
    return metrics, res


def report(workload: str, metrics: dict, units: dict, res: dict) -> None:
    for name, value in metrics.items():
        print(f"{workload:16s} {name:32s} {value:14.6g} {units[name]}")
    attempted, failed = res["attempted"], res["failed"]
    lat = res["latencies_s"]
    beyond = sum(1 for x in lat if x > statistics.quantiles(lat, n=10)[8])
    print(f"{workload:16s} {'error_rate':32s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    print(f"{workload:16s} {'latency_samples':32s} {len(lat):14d} count ({beyond} above p90)")
    print(f"{workload:16s} {'oracle_checked':32s} {res['oracle_checked']:14d} count")
    print(f"{workload:16s} composition {json.dumps(res['composition'], sort_keys=True)}")
    if "unscaled" in res:
        print(f"{workload:16s} unscaled {json.dumps(res['unscaled'], sort_keys=True)}")
    if "trace_file" in res:
        print(f"{workload:16s} spans written to {res['trace_file']}")
    for line in res["errors"] + res["oracle_mismatches"]:
        print(f"{workload:16s} MISMATCH {line}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description="seqelicit benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    pools = sorted(path.stem for path in (BENCH / "golden").glob("*.json"))
    parser.add_argument("--pool", choices=pools, default="dev", help="heldout: instances kept for re-checking claims")
    args = parser.parse_args()
    if not (ROOT / "src" / "seqelicit" / "__init__.py").is_file():
        print("error: run from the root of a seqelicit checkout (src/seqelicit not found)", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            values, res = (trace if args.trace else measure)(name, args.seed, args.pool, args.seconds)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, values, units, res)
        correct = correct and res["failed"] == 0 and not res["oracle_mismatches"]
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
