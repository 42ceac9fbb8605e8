"""Input pools, operations and canonical outputs of the four workloads.

Every workload draws its operations from a fixed pool of inputs, so that the
golden answers in ``golden/<pool>.json`` cover every seed. A pool is a list of
rounds; each round holds one input of every class the workload mixes, so any
prefix of a run sees the classes in their fixed proportions. The seed only
orders the rounds and the inputs within them and relabels the instances, which
changes the program's inputs (agent ids, input order, cache keys) but not the
exact answers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from seqelicit import mechanism, model, oracle, verify

POOLS = {"dev": "dev-2026", "heldout": "heldout-2026"}
Q_CHOICES = (Fraction(1, 2), Fraction(3, 5), Fraction(3, 4))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _state(state) -> list[int]:
    return [state.approached, state.ones]


def _doc(n: int, q: Fraction, costs, function) -> dict:
    return {"n": n, "q": str(q), "costs": [str(c) for c in costs], "function": function}


def _function(rng: random.Random, family: str, n: int):
    if family == "random":
        return {"ones_counts": [w for w in range(n + 1) if rng.random() < 0.5]}
    return family


def _costs(rng: random.Random, profile: str, n: int) -> list[Fraction]:
    if profile == "zero":
        return [Fraction(0)] * n
    top = {"low": 16, "uniform": 64}[profile]
    return [Fraction(rng.randrange(top), 64) for _ in range(n)]


def relabel(doc: dict, seed: int, op: int) -> str:
    """Fresh agent ids and a shuffled input order: a new ProblemInstance, and so
    new cache keys, with the same sorted costs and therefore the same answers."""
    rng = _rng("relabel", seed, op)
    order = list(range(doc["n"]))
    rng.shuffle(order)
    out = dict(doc)
    out["costs"] = [doc["costs"][p] for p in order]
    out["agent_ids"] = [f"x{op}.{p}" for p in order]
    return json.dumps(out)


def schedule(rounds: list[list], seed: int, cycles: int | None = None):
    """Op order: each cycle visits every round once, rounds and the items
    inside them shuffled by the seed. Endless when ``cycles`` is None."""
    for cycle in itertools.count() if cycles is None else range(cycles):
        rng = _rng("schedule", seed, cycle)
        order = list(range(len(rounds)))
        rng.shuffle(order)
        for r in order:
            items = list(rounds[r])
            rng.shuffle(items)
            yield from items


def _n_bucket(n: int) -> str:
    lo = n // 10 * 10
    return f"{lo:03d}-{lo + 9:03d}"


def _count(table: dict, key) -> None:
    table[key] = table.get(key, 0) + 1


def _verdict_json(verdict) -> dict:
    out = {"exists": verdict.exists, "reason": verdict.reason}
    if verdict.undefined_at is not None:
        out["undefined_at"] = _state(verdict.undefined_at)
    if verdict.witness is not None:
        w = verdict.witness
        out["witness"] = {
            "path": [_state(s) for s in w.path],
            "violating_rank": w.violating_rank,
            "count": w.count,
        }
    return out


def verdict_kind(verdict_json: dict) -> str:
    if verdict_json["exists"]:
        return "positive" if verdict_json["reason"] is None else verdict_json["reason"]
    return verdict_json["reason"]


def _audit_json(report) -> dict:
    return {
        "passed": report.passed,
        "records": [
            [_state(r.state), r.rank, str(r.cost), str(r.threshold), r.eligible]
            for r in report.records
        ],
        "failure": None if report.failure is None else [_state(report.failure[0]), report.failure[1]],
    }


class Workload:
    """One closed-loop workload: a pool of items and the operation run on each."""

    name = ""
    # Seconds one cycle through the pool takes on the seed code (shared
    # 2-vCPU virtual machine). A run does round(--seconds / CYCLE_S) whole
    # cycles: the same work on every commit, so memory and cache warmth
    # compare like for like.
    CYCLE_S = 1.0
    # Size of the speed probe's table (worker.SpeedProbe), whether it starts
    # a bare interpreter, and the probe's time on the reference host: every
    # time metric is scaled to that speed.
    PROBE_TABLE_MB = 32
    PROBE_SPAWN = False
    PROBE_REF_S = 0.003

    def rounds(self, pool: str) -> list[list[dict]]:
        raise NotImplementedError

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.CYCLE_S))

    def prepare(self, item: dict, seed: int, op: int):
        """Input of one operation, built outside the timed region."""
        raise NotImplementedError

    def execute(self, payload):
        """The timed operation."""
        raise NotImplementedError

    def canon(self, item: dict, raw) -> dict:
        """Exact, JSON-ready form of an operation's output."""
        raise NotImplementedError

    def compose(self, comp: dict, item: dict, out: dict) -> None:
        """Fold one operation into the composition record."""
        raise NotImplementedError

    def warm_up(self, seed: int) -> None:
        raise NotImplementedError

    def instances(self, items: list[dict]):
        """Distinct base instances for the brute-force oracle cross-check."""
        return [model.ingest(json.dumps(it["doc"])) for it in items if "doc" in it]


class VerifyLattice(Workload):
    """ingest(json_text) then exists_appropriate, on a fresh instance each time."""

    name = "verify-lattice"
    CYCLE_S = 22.0
    # Many distinct instances, each run once per run, keep the latency
    # distribution dense, so its quantiles do not jump between neighbours.
    ROUNDS = 22
    # Family -> n range. Parity and random tables label every state with an
    # O(n) Fraction sum, so they stop near 34; majority and consensus have
    # fewer undetermined states and reach n = 80 at a similar cost. Each comes
    # with every cost profile; the tiny random tables feed the exhaustive oracle.
    SIZES = {"parity": (6, 34), "random": (6, 34), "majority": (12, 56), "consensus": (24, 80)}
    CLASSES = [(f, f, size, p) for f, size in SIZES.items() for p in ("zero", "low", "uniform")]
    CLASSES.append(("tiny", "random", (2, 4), "low"))

    def rounds(self, pool):
        out = []
        for r in range(self.ROUNDS):
            items = []
            for c, (family, fam, size, profile) in enumerate(self.CLASSES):
                rng = _rng(POOLS[pool], self.name, r, c)
                n = rng.randint(*size)
                q = rng.choice(Q_CHOICES)
                doc = _doc(n, q, _costs(rng, profile, n), _function(rng, fam, n))
                items.append(
                    {
                        "key": f"v{r:02d}.{c:02d}",
                        "family": family,
                        "profile": profile,
                        "n": n,
                        "q": str(q),
                        "doc": doc,
                    }
                )
            out.append(items)
        return out

    def prepare(self, item, seed, op):
        return relabel(item["doc"], seed, op)

    def execute(self, payload):
        return verify.exists_appropriate(model.ingest(payload))

    def canon(self, item, raw):
        return _verdict_json(raw)

    def compose(self, comp, item, out):
        _count(comp.setdefault("n", {}), _n_bucket(item["n"]))
        _count(comp.setdefault("family_q", {}), f"{item['family']}@{item['q']}")
        _count(comp.setdefault("profile", {}), item["profile"])
        _count(comp.setdefault("verdict", {}), verdict_kind(out))

    def warm_up(self, seed):
        for n, fam in ((10, "parity"), (16, "majority"), (8, "random")):
            rng = _rng("warm-up", self.name, n)
            doc = _doc(n, Fraction(3, 5), _costs(rng, "low", n), _function(rng, fam, n))
            self.execute(relabel(doc, seed, -n))


class HcfOnline(Workload):
    """One run of HcfPolicy per operation on a few fixed, large instances."""

    name = "hcf-online"
    CYCLE_S = 4.5  # a warm cycle with its probes; four cycles at --seconds 20
    ROUNDS = 24
    # Weights put the median among the parity-100 and majority-120 runs (their
    # warm latencies overlap) and the 90th percentile inside the parity-150
    # runs, away from the jumps between instances, so neither quantile flips
    # between modes from run to run.
    ROUND_SLOTS = ("consensus-200", "majority-120", "parity-100", "parity-100", "parity-150")

    def specs(self, pool):
        rng = _rng(POOLS[pool], self.name, "instances")
        majority_costs = [Fraction(0)] * 102 + [Fraction(rng.randrange(1, 8), 1024) for _ in range(18)]
        rng.shuffle(majority_costs)
        return {
            "consensus-200": _doc(200, Fraction(3, 4), [Fraction(0)] * 200, "consensus"),
            "majority-120": _doc(120, Fraction(1, 2), majority_costs, "majority"),
            "parity-100": _doc(100, Fraction(1, 2), [Fraction(rng.randrange(32), 64) for _ in range(100)], "parity"),
            "parity-150": _doc(150, Fraction(3, 5), [Fraction(rng.randrange(26), 64) for _ in range(150)], "parity"),
        }

    def rounds(self, pool):
        specs = self.specs(pool)
        out = []
        for r in range(self.ROUNDS):
            items = []
            for s, name in enumerate(self.ROUND_SLOTS):
                doc = specs[name]
                q = Fraction(doc["q"])
                rng = _rng(POOLS[pool], self.name, r, s)
                secrets = [1 if rng.randrange(q.denominator) < q.numerator else 0 for _ in range(doc["n"])]
                items.append({"key": f"h{r:02d}.{s}", "instance": name, "n": doc["n"], "secrets": secrets})
            out.append(items)
        return out

    def load(self, pool):
        self._instances = {name: model.ingest(json.dumps(doc)) for name, doc in self.specs(pool).items()}
        self._pool = [item for items in self.rounds(pool) for item in items]

    def prepare(self, item, seed, op):
        inst = self._instances[item["instance"]]
        return inst, item["secrets"]

    def execute(self, payload):
        inst, secrets = payload
        return mechanism.run(inst, mechanism.HcfPolicy(inst), secrets)

    def canon(self, item, raw):
        return {
            "transcript": [list(e) for e in raw.transcript.entries],
            "output": raw.output,
            "halted_at": _state(raw.halted_at),
            "approached": raw.approached_count,
            "total_cost": str(raw.total_cost_incurred),
        }

    def compose(self, comp, item, out):
        _count(comp.setdefault("instance", {}), item["instance"])
        _count(comp.setdefault("n", {}), _n_bucket(item["n"]))
        comp["approached_total"] = comp.get("approached_total", 0) + out["approached"]

    def warm_up(self, seed):
        # One pass over the whole pool, so that every state a timed run visits
        # is already cached: the timed cycles measure the warm reruns a centre
        # sees, and filling the caches is paid, and shows, in setup_s. Left
        # cold, the first cycle's misses made up most of the slowest tenth of
        # the ops, and which ops they fell on changed with the seed.
        for item in self._pool:
            self.execute(self.prepare(item, seed, -1))

    def instances(self, items):
        return []


class IncentiveAudit(Workload):
    """Certify one fresh instance: both full-tree audits, then, when HCF passes
    on a small instance, the deviation profile of every approached rank."""

    name = "incentive-audit"
    CYCLE_S = 23.0
    ROUNDS = 30
    # The deviation enumeration costs 2^n policy walks per rank, about 0.06 s
    # per rank at n = 7 on the seed, so it runs on the small sizes only.
    SIZES = {"audit": (8, 12), "deviation": (4, 7), "median": (5, 5)}
    DEVIATION_MAX_N = 7
    # Majority and consensus fail the HCF audit at the first state once n
    # passes 7 (no agent is that cheap), so only their small size is kept.
    # Latencies spread evenly on a log scale from 0.3 ms to 0.6 s, with a gap
    # between the fast failures and the passing ops, so a median drawn from
    # them alone jumps between sparse neighbours from run to run. The two
    # parity n = 5 deviation classes form a tight cluster (within about 1.5x)
    # of a quarter of the ops that the median falls inside: about 30 % of
    # the ops are faster and 45 % slower.
    CLASSES = (
        ("parity", "audit"), ("parity", "deviation"), ("random", "audit"),
        ("random", "deviation"), ("majority", "deviation"), ("consensus", "deviation"),
        ("parity", "median"), ("parity", "median"),
    )

    def rounds(self, pool):
        out = []
        for r in range(self.ROUNDS):
            items = []
            for c, (family, size) in enumerate(self.CLASSES):
                rng = _rng(POOLS[pool], self.name, r, c)
                n = rng.randint(*self.SIZES[size])
                q = rng.choice(Q_CHOICES)
                doc = _doc(n, q, _costs(rng, "low", n), _function(rng, family, n))
                items.append(
                    {"key": f"a{r:02d}.{c:02d}", "family": family, "size": size, "n": n, "q": str(q), "doc": doc}
                )
            out.append(items)
        return out

    def prepare(self, item, seed, op):
        return relabel(item["doc"], seed, op)

    def execute(self, payload):
        inst = model.ingest(payload)
        hcf = mechanism.audit_full_tree(inst, mechanism.HcfPolicy(inst))
        fixed = mechanism.audit_full_tree(inst, mechanism.FixedOrderPolicy(inst))
        profiles = {}
        if hcf.passed and inst.n <= self.DEVIATION_MAX_N:
            for rank in sorted({rec.rank for rec in hcf.records}):
                profiles[rank] = mechanism.deviation_profile(inst, mechanism.HcfPolicy(inst), rank)
        return hcf, fixed, profiles

    def canon(self, item, raw):
        hcf, fixed, profiles = raw
        names = {action: name for name, action in model.ACTION_NAMES.items()}
        return {
            "hcf": _audit_json(hcf),
            "fixed": _audit_json(fixed),
            "deviation": {
                str(rank): {names[a]: str(u) for a, u in profile.items()} for rank, profile in profiles.items()
            },
        }

    def compose(self, comp, item, out):
        _count(comp.setdefault("n", {}), _n_bucket(item["n"]))
        _count(comp.setdefault("family_q", {}), f"{item['family']}@{item['q']}")
        _count(comp.setdefault("hcf_passed", {}), str(out["hcf"]["passed"]))
        _count(comp.setdefault("fixed_passed", {}), str(out["fixed"]["passed"]))
        comp["deviation_ranks"] = comp.get("deviation_ranks", 0) + len(out["deviation"])

    def warm_up(self, seed):
        for n, fam in ((5, "parity"), (9, "majority")):
            rng = _rng("warm-up", self.name, n)
            doc = _doc(n, Fraction(1, 2), _costs(rng, "low", n), _function(rng, fam, n))
            self.execute(relabel(doc, seed, -n))


EXAMPLES = {
    "example1": _doc(11, Fraction(1, 2), [Fraction(2, 5)] * 11, "majority"),
    "example2": _doc(4, Fraction(1, 2), [Fraction(0)] * 3 + [Fraction(2, 5)], "consensus"),
    "example3": _doc(11, Fraction(1, 2), [Fraction(2, 5)] * 11, "parity"),
    "no_mechanism": _doc(4, Fraction(1, 2), [Fraction(2, 5)] * 4, "consensus"),
    "overpacked_path": _doc(4, Fraction(1, 2), [Fraction(0), Fraction(3, 8), Fraction(2, 5), Fraction(2, 5)], "consensus"),
}

# Subcommand and flags per file; every call exits 0 (success) or 3 (negative
# verdict), never 2, and stays under about 0.2 s of work past start-up.
CLI_CALLS = (
    ("verify", "example1"), ("verify", "example2"), ("verify", "example3"),
    ("verify", "no_mechanism"), ("verify", "overpacked_path"), ("verify", "gen_random6"),
    ("verify", "gen_majority7"), ("verify", "gen_parity8"),
    ("pivotal", "example2"), ("pivotal", "gen_random6"), ("pivotal", "example3"),
    ("graph", "example1"), ("graph", "gen_parity8"),
    ("hcf", "example3", "--seed", "7"), ("hcf", "gen_parity8", "--seed", "11"),
    ("hcf", "example2", "--secrets", "1110"),
    ("audit", "gen_random6"), ("audit", "no_mechanism"), ("audit", "gen_parity8"),
    ("audit", "example2", "--policy", "fixed"), ("audit", "gen_majority7", "--policy", "fixed"),
    ("deviate", "example2", "--agent", "4", "--action", "truthful"),
    ("deviate", "example2", "--agent", "1", "--action", "lie"),
    ("deviate", "gen_random6", "--agent", "a3", "--action", "guess-0", "--policy", "fixed"),
    ("oracle", "example1", "--mode", "pivotal"), ("oracle", "gen_random6", "--mode", "pivotal"),
    ("oracle", "example2", "--mode", "mechanisms"), ("oracle", "overpacked_path", "--mode", "mechanisms"),
    ("oracle", "gen_parity8", "--mode", "hcf-tree"), ("oracle", "gen_majority7", "--mode", "hcf-tree"),
)


class CliMixed(Workload):
    """Sequential ``python -m seqelicit <subcommand> --json`` processes, started
    by worker.CliRunner on the files of ``files()``."""

    name = "cli-mixed"
    CYCLE_S = 5.0
    # No table: the CLI children run small, fresh heaps, and a child started
    # by vfork inherits the worker's peak RSS, which the table would swell.
    # Each operation starts a process, so the probe starts one too.
    PROBE_TABLE_MB = 0
    PROBE_SPAWN = True
    PROBE_REF_S = 0.033

    def files(self, pool):
        rng = _rng(POOLS[pool], self.name, "files")
        files = dict(EXAMPLES)
        doc = _doc(6, Fraction(3, 5), _costs(rng, "low", 6), _function(rng, "random", 6))
        doc["agent_ids"] = [f"a{p}" for p in range(1, 7)]
        files["gen_random6"] = doc
        doc = _doc(7, Fraction(1, 2), [Fraction(rng.randrange(4), 64) for _ in range(7)], "majority")
        doc["values"] = [str(Fraction(rng.randrange(1, 4), 2)) for _ in range(7)]
        files["gen_majority7"] = doc
        files["gen_parity8"] = _doc(8, Fraction(3, 5), _costs(rng, "low", 8), "parity")
        return files

    def rounds(self, pool):
        files = self.files(pool)
        return [
            [
                {
                    "key": f"c{idx:02d}",
                    "subcommand": call[0],
                    "file": call[1],
                    "argv": [call[0], call[1] + ".json", *call[2:], "--json"],
                    "doc": files[call[1]],
                }
                for idx, call in enumerate(CLI_CALLS)
            ]
        ]

    def prepare(self, item, seed, op):
        return item["argv"]

    def compose(self, comp, item, out):
        _count(comp.setdefault("subcommand", {}), item["subcommand"])
        _count(comp.setdefault("exit", {}), str(out["exit"]))

    def canon(self, item, raw):
        code, stdout = raw
        return {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest(), "stdout_bytes": len(stdout)}

    def instances(self, items):
        docs = {it["file"]: it["doc"] for it in items}
        return [model.ingest(json.dumps(doc)) for _, doc in sorted(docs.items())]


WORKLOADS = {w.name: w for w in (VerifyLattice(), HcfOnline(), IncentiveAudit(), CliMixed())}


def oracle_check(instances) -> tuple[int, list[str]]:
    """Compare the verifier with the brute-force routes: the HCF full-tree audit
    for n <= 10 and full mechanism enumeration for n <= 4. Returns the number
    of instances checked and a line per disagreement."""
    checked, out = 0, []
    for inst in instances:
        if inst.n > 10:
            continue
        checked += 1
        exists = verify.exists_appropriate(inst).exists
        if oracle.hcf_tree_existence(inst).exists != exists:
            out.append(f"hcf_tree_existence disagrees with verify on {model.emit(inst)}")
        if inst.n <= 4 and oracle.exhaustive_existence(inst).exists != exists:
            out.append(f"exhaustive_existence disagrees with verify on {model.emit(inst)}")
    return checked, out
