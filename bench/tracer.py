"""Spans around calls into seqelicit's public functions, taken from outside.

The tracer replaces each traced function at every import site inside the
``seqelicit`` package (and each traced method on its class), so calls between
modules pass through it without any change to the package. For every traced
name it counts calls, total time and self time (span minus the time covered by
its direct child spans). Spans of the coarse, per-operation layers are also
kept in memory with their parent and operation ids and written out at the end;
the hot, fine-grained layers (pivotal lookups, policy steps, transcript
extension) are only aggregated, since they run hundreds of thousands of times.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name); "Class.method" attributes patch the class.
TARGETS = (
    ("model", "ingest", "model.ingest"),
    ("model", "Transcript.extended", "model.transcript_extend"),
    ("pivotal", "node_label", "pivotal.node_label"),
    ("pivotal", "pivotal_prob", "pivotal.pivotal_prob"),
    ("pivotal", "threshold", "pivotal.threshold"),
    ("pivotal", "determine", "pivotal.determine"),
    ("graph", "build", "graph.build"),
    ("verify", "exists_appropriate", "verify.exists_appropriate"),
    ("mechanism", "run", "mechanism.run"),
    ("mechanism", "HcfPolicy.next", "mechanism.policy_next"),
    ("mechanism", "FixedOrderPolicy.next", "mechanism.policy_next"),
    ("mechanism", "audit_full_tree", "mechanism.audit"),
    ("mechanism", "deviation_profile", "mechanism.deviation"),
    ("cli", "main", "cli.main"),
)
COARSE = {
    "op",
    "model.ingest",
    "graph.build",
    "verify.exists_appropriate",
    "mechanism.run",
    "mechanism.audit",
    "mechanism.deviation",
    "cli.main",
    "cli.process",
}
CACHED = ("determine", "pivotal_prob")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self._stack: list[list] = []  # [name, start, child_s, span id]
        self._patches: list[tuple] = []
        self._cached: list = []
        self.op = -1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) if name in COARSE else None])
        if name in COARSE:
            self.spans.append(None)

    def end(self) -> None:
        stop = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        duration = stop - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans[span_id] = (span_id, parent, self.op, name, start, stop)

    def _wrap(self, name: str, fn, observe):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name that exists; a name the package no longer
        has is skipped and its metrics read 0."""
        package = {k: m for k, m in sys.modules.items() if k == "seqelicit" or k.startswith("seqelicit.")}
        for module_name, attr, span in TARGETS:
            module = package.get(f"seqelicit.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in vars(owner):
                    continue
                self._patch(owner, method, self._wrap(span, vars(owner)[method], OBSERVERS.get(span)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            if attr in CACHED and hasattr(original, "cache_info"):
                self._cached.append(original)
            wrapped = self._wrap(span, original, OBSERVERS.get(span))
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def cache_entries(self) -> int:
        return sum(fn.cache_info().currsize for fn in self._cached)

    def layer_metrics(self) -> dict[str, float]:
        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        c = self.counters.get
        return {
            "model.ingest_s": total("model.ingest"),
            "model.ingest_calls": calls("model.ingest"),
            "model.transcript_extend_calls": calls("model.transcript_extend"),
            "model.transcript_extend_s": total("model.transcript_extend"),
            "pivotal.node_label_calls": calls("pivotal.node_label"),
            "pivotal.node_label_s": total("pivotal.node_label"),
            "pivotal.pivotal_prob_calls": calls("pivotal.pivotal_prob"),
            "pivotal.pivotal_prob_s": total("pivotal.pivotal_prob"),
            "pivotal.threshold_calls": calls("pivotal.threshold"),
            "pivotal.threshold_s": total("pivotal.threshold"),
            "pivotal.determine_calls": calls("pivotal.determine"),
            "pivotal.determine_s": total("pivotal.determine"),
            "pivotal.cache_entries": self.cache_entries(),
            "graph.build_s": total("graph.build"),
            "graph.build_self_s": own("graph.build"),
            "graph.states": c("graph.states", 0),
            "graph.edges": c("graph.edges", 0),
            "verify.self_s": own("verify.exists_appropriate"),
            "verify.verdict_positive": c("verify.verdict_positive", 0),
            "verify.verdict_pigeonhole": c("verify.verdict_pigeonhole", 0),
            "verify.verdict_c_undefined": c("verify.verdict_c_undefined", 0),
            "mechanism.run_s": total("mechanism.run"),
            "mechanism.run_self_s": own("mechanism.run"),
            "mechanism.policy_next_calls": calls("mechanism.policy_next"),
            "mechanism.policy_next_s": total("mechanism.policy_next"),
            "mechanism.audit_s": total("mechanism.audit"),
            "mechanism.audit_records": c("mechanism.audit_records", 0),
            "mechanism.audit_passed": c("mechanism.audit_passed", 0),
            "mechanism.deviation_s": total("mechanism.deviation"),
            "mechanism.deviation_vectors": c("mechanism.deviation_vectors", 0),
            "cli.main_s": total("cli.main"),
            "cli.process_s": total("cli.process"),
            "cli.stdout_bytes": c("cli.stdout_bytes", 0),
        }


def _observe_build(tracer, args, graph):
    tracer.count("graph.states", len(getattr(graph, "labels", ())))
    tracer.count("graph.edges", len(getattr(graph, "edges", ())))


_VERDICT_COUNTERS = {
    None: "verify.verdict_positive",
    "pigeonhole_path": "verify.verdict_pigeonhole",
    "c_undefined_at": "verify.verdict_c_undefined",
}


def _observe_verdict(tracer, args, verdict):
    key = _VERDICT_COUNTERS.get(verdict.reason)
    if key is not None:
        tracer.count(key)


def _observe_audit(tracer, args, report):
    tracer.count("mechanism.audit_records", len(report.records))
    tracer.count("mechanism.audit_passed", int(report.passed))


def _observe_deviation(tracer, args, profile):
    tracer.count("mechanism.deviation_vectors", 2 ** args[0].n)


OBSERVERS = {
    "graph.build": _observe_build,
    "verify.exists_appropriate": _observe_verdict,
    "mechanism.audit": _observe_audit,
    "mechanism.deviation": _observe_deviation,
}
