"""Run one workload in a fresh process: set up, run the closed loop, check.

Started by run.py from the root of a checkout; prints one JSON object as its
last line of standard output. Modes:

  setup      import, build the pool, load the golden answers, warm up, stop
  timed      the measured loop, untraced: round(--seconds / CYCLE_S) cycles
  traced     the same loop with the tracer installed; writes --trace-out
  reference  the traced op shape without the tracer, for exactly --ops ops,
             so run.py can price the tracer on the same operations
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_out"
SETUP_PROBES = 15  # probes run right after set-up, to rate the vCPU speed set-up saw
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the checkout's src on the path)
from tracer import Tracer  # noqa: E402


class CliRunner:
    """Starts ``python -m seqelicit`` on files written into a scratch dir."""

    def __init__(self, pool: str):
        self.tracer: Tracer | None = None  # set for the traced loop only
        self.dir = WORK / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, doc in workloads.WORKLOADS["cli-mixed"].files(pool).items():
            (self.dir / f"{name}.json").write_text(json.dumps(doc, indent=2))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def process(self, argv) -> tuple[int, bytes]:
        cmd = [sys.executable, "-m", "seqelicit", *argv]
        if self.tracer is None:
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True, timeout=60)
            return proc.returncode, proc.stdout
        self.tracer.begin("cli.process")
        try:
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True, timeout=60)
        finally:
            self.tracer.end()
        self.tracer.count("cli.stdout_bytes", len(proc.stdout))
        return proc.returncode, proc.stdout

    def in_process(self, argv) -> tuple[int, bytes]:
        from seqelicit import cli

        buf = io.StringIO()
        with contextlib.chdir(self.dir), contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode()

    def paired(self, argv):
        return self.process(argv), self.in_process(argv)

    def close(self) -> None:
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()


def _median_spawn_s(code: str, env: dict, count: int = 5) -> float:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Times a fixed piece of pure-Python work that calls nothing in the
    program, so its time tracks how fast the host runs at that moment: the
    best of three passes of Fraction sums over growing integers, dict stores
    and a sort, plus one pass of scattered reads over a table far larger than
    a core's cache, so that a neighbour who crowds the shared cache and the
    memory bus slows the probe as it slows the program. With ``spawn`` it also
    starts a bare interpreter (``python -S -c pass``), which slows as process
    start-up on the host slows. The collector is off while it runs, so that
    collecting the garbage the previous operation left does not count as a
    slow host."""

    READS = 5000

    def __init__(self, table_mb: int, spawn: bool):
        self.spawn = [sys.executable, "-S", "-c", "pass"] if spawn else None
        rng = random.Random("speed-probe")
        # Written in full here, so resident for the rest of the process: its
        # size is taken off the process's peak RSS.
        self.table = rng.randbytes(1 << 20) * table_mb
        self.table_mb = table_mb
        span = max(0, len(self.table) - (1 << 20))
        self.reads = [rng.randrange(span) for _ in range(self.READS)] if table_mb else []
        self.calls = 0

    def __call__(self) -> float:
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                acc, table = Fraction(0), {}
                for i in range(1, 160):
                    acc += Fraction(i, i * i + 1)
                    table[i, i % 7] = acc.denominator % 1009
                sorted(table.values())
                best = min(best, time.perf_counter() - start)
            # A new offset each call, so the lines read are never the ones
            # the last call left in the cache.
            self.calls += 1
            shift = self.calls * 4099 * 64 % (1 << 20)
            start = time.perf_counter()
            total = 0
            for i in self.reads:
                total += self.table[i + shift]
            if self.spawn is not None:
                subprocess.run(self.spawn, check=True, timeout=60)
            return best + time.perf_counter() - start
        finally:
            gc.enable()


def load_golden(pool: str, rounds) -> dict[str, str]:
    """Expected output digest per item key; refuses a pool the golden file
    was not generated from."""
    golden = json.loads((BENCH / "golden" / f"{pool}.json").read_text())
    table = {}
    for entries in golden["workloads"].values():
        table.update(entries)
    expected = {}
    for item in itertools.chain.from_iterable(rounds):
        entry = table.get(item["key"])
        if entry is None or entry["input"] != workloads.digest(item):
            raise SystemExit(f"golden/{pool}.json does not match pool item {item['key']}; regenerate it")
        expected[item["key"]] = entry["output"]
    return expected


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pool", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced", "reference"))
    parser.add_argument("--seconds", type=float, default=0.0, help="run length, as whole pool cycles")
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops instead")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned us")
    parser.add_argument("--trace-out")
    return parser.parse_args()


def timed_loop(wl, stream, seed: int, op, tracer, probe):
    # Each vCPU of a shared host speeds up and slows down on its own, over
    # seconds to minutes; moving between the CPUs we may use, op by op, makes
    # one run sample all of them instead of whichever it happened to land on.
    cpus = sorted(os.sched_getaffinity(0))
    latencies, results, probes = [], [], []
    for index, item in enumerate(stream):
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        payload = wl.prepare(item, seed, index)
        # Probed on the same vCPU, just before the op, outside its timing.
        probes.append(probe())
        if tracer is not None:
            tracer.op = index
            tracer.begin("op")
        t0 = time.perf_counter()
        try:
            raw = op(payload)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            raw = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        latencies.append(t1 - t0)
        results.append((item, raw))
    os.sched_setaffinity(0, cpus)
    return latencies, results, probes


def check(wl, results, expected, pool: str, paired: bool):
    """Golden comparison of every op (both outputs of a paired CLI op), the
    run's composition, and the oracle cross-check of its distinct instances."""
    failed, errors, composition, seen = 0, [], {}, {}
    for item, raw in results:
        seen[item["key"]] = item
        if isinstance(raw, Exception):
            failed += 1
            errors.append(f"{item['key']}: {raw!r}")
            continue
        outs = [wl.canon(item, r) for r in raw] if paired else [wl.canon(item, raw)]
        if any(workloads.digest(out) != expected[item["key"]] for out in outs):
            failed += 1
            errors.append(f"{item['key']}: output differs from golden/{pool}.json")
        wl.compose(composition, item, outs[0])
    composition["operations"] = len(results)
    checked, mismatches = workloads.oracle_check(wl.instances(list(seen.values())))
    return {
        "failed": failed,
        "errors": errors[:10],
        "oracle_checked": checked,
        "oracle_mismatches": mismatches,
        "composition": composition,
    }


def main() -> int:
    args = parse_args()
    wl = workloads.WORKLOADS[args.workload]
    rounds = wl.rounds(args.pool)
    expected = load_golden(args.pool, rounds)
    cycles = None if args.ops else wl.cycles(args.seconds)
    stream = itertools.islice(workloads.schedule(rounds, args.seed, cycles), args.ops or None)
    tracer = Tracer() if args.mode == "traced" else None
    # The traced and reference shapes add an in-process main(argv) to each CLI
    # op: the subprocess is opaque to the tracer, the in-process call is not.
    paired = wl.name == "cli-mixed" and args.mode in ("traced", "reference")
    cli = CliRunner(args.pool) if wl.name == "cli-mixed" else None
    try:
        if cli is not None:
            op = cli.paired if paired else cli.process
            op(["verify", "example2.json", "--json"])
        else:
            if wl.name == "hcf-online":
                wl.load(args.pool)
            op = wl.execute
            wl.warm_up(args.seed)
        setup_s = time.monotonic() - args.t0
        probe = SpeedProbe(wl.PROBE_TABLE_MB, wl.PROBE_SPAWN)
        setup_probes = [probe() for _ in range(SETUP_PROBES)]
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_probes_s": setup_probes}))
            return 0

        if tracer is not None:
            tracer.install()
            if cli is not None:
                cli.tracer = tracer
        latencies, results, probes = timed_loop(wl, stream, args.seed, op, tracer, probe)
        who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024 - probe.table_mb
        layers = {}
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.layer_metrics()
            if cli is not None:
                layers["cli.interpreter_s"] = _median_spawn_s("pass", cli.env)
                layers["cli.import_s"] = _median_spawn_s("import seqelicit.cli", cli.env) - layers["cli.interpreter_s"]
        result = check(wl, results, expected, args.pool, paired)
    finally:
        if cli is not None:
            cli.close()

    if tracer is not None and args.trace_out:
        trace = {
            "workload": wl.name,
            "seed": args.seed,
            "pool": args.pool,
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": tracer.spans,
            "layers": {k: dict(zip(("calls", "total_s", "self_s"), v)) for k, v in tracer.stats.items()},
            "counters": tracer.counters,
            "composition": result["composition"],
        }
        Path(args.trace_out).write_text(json.dumps(trace))
    result.update(
        setup_s=setup_s,
        setup_probes_s=setup_probes,
        probes_s=probes,
        probe_ref_s=wl.PROBE_REF_S,
        latencies_s=latencies,
        attempted=len(results),
        cycle_ops=sum(len(r) for r in rounds),
        peak_rss_mb=peak_rss_mb,
        layers=layers,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
