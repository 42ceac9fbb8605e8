"""Command-line interface: verify, hcf, audit, pivotal, graph, deviate, oracle.

Each command is a function `_cmd_*(args, instance) -> (ok, text)`: it
returns its whole standard output as one string, JSON or text, and writes
nothing. `main` alone loads the instance, writes the text (to `-o` for
`graph`, else to stdout) and picks the exit code: 0 when `ok` (success or a
positive verdict), 3 when not (a negative verdict, a failed audit or an
oracle mismatch) or when a policy fails, 2 on a usage error or any other
`ElicitError` (input format, caps), 1 on an internal error. All machine
output renders rationals as "num/den" strings, never decimals. The
per-node outputs (`pivotal`, `graph` as JSON or DOT, `oracle --mode
pivotal`) read one labelling pass over the reduced graph, `_labels`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import accumulate

from .errors import ElicitError, PolicyFailed
from .mechanism import FixedOrderPolicy, HcfPolicy, audit_full_tree, deviation_profile, draw_secrets, run
from .model import ACTION_NAMES, InfoState, ProblemInstance, ingest, rational_text
from .pivotal import c_of, edges, nodes, pivotal_prob, threshold
from .verify import REASON_C_UNDEFINED, REASON_TRIVIAL, exists_appropriate

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3


def _labels(instance: ProblemInstance) -> list[tuple[InfoState, Fraction, int | None]]:
    """(state, pivotal probability, willing rank or None) of every node, in
    node order; each command formats only what it prints."""
    return [(state, pivotal_prob(state, instance), c_of(state, instance)) for state in nodes(instance)]


def _label_json(instance: ProblemInstance, state: InfoState, p: Fraction, c: int | None) -> dict:
    return {
        "state": list(state),
        "pivotal": rational_text(p),
        "threshold": rational_text(threshold(state, instance)),
        "c": c,
    }


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _load_instance(path: str) -> ProblemInstance:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ElicitError(f"cannot read {path}: {exc}") from exc
    return ingest(data)


_POLICIES = {"hcf": HcfPolicy, "fixed": FixedOrderPolicy}


def _cmd_verify(args, instance: ProblemInstance) -> tuple[bool, str]:
    verdict = exists_appropriate(instance)
    if args.json:
        payload: dict = {"exists": verdict.exists}
        if verdict.reason == REASON_C_UNDEFINED:
            payload["reason"] = {REASON_C_UNDEFINED: list(verdict.undefined_at)}
        else:
            payload["reason"] = verdict.reason
        if verdict.witness is not None:
            payload["witness"] = {
                "path": [list(s) for s in verdict.witness.path],
                "violating_rank": verdict.witness.violating_rank,
                "count": verdict.witness.count,
            }
        return verdict.exists, _json(payload)
    if verdict.exists:
        lines = ["appropriate mechanism EXISTS"]
        if verdict.reason == REASON_TRIVIAL:
            lines.append("(constant function: the empty mechanism already outputs the value)")
        return True, _text(lines)
    lines = ["NO appropriate mechanism exists"]
    if verdict.reason == REASON_C_UNDEFINED:
        lines.append(f"reason: no agent is willing to compute at state {verdict.undefined_at}")
    else:
        w = verdict.witness
        lines.append(
            f"reason: a path to end node {w.path[-1]} carries {w.count} states "
            f"with willing rank <= {w.violating_rank}, but only "
            f"{w.violating_rank} such agents exist"
        )
        if args.witness:
            lines.append(f"witness path (rank bound {w.violating_rank}):")
            for state in w.path:
                c = c_of(state, instance)
                mark = " *" if c <= w.violating_rank else ""
                lines.append(f"  {state} c={c}{mark}")
    return False, _text(lines)


def _cmd_pivotal(args, instance: ProblemInstance) -> tuple[bool, str]:
    labels = _labels(instance)
    name = instance.fn_spec.name or "anonymous"
    if args.json:
        return True, _json({"instance": name, "nodes": [_label_json(instance, *label) for label in labels]})
    if not labels:
        return True, _text(["(empty state graph: the function is constant)"])
    rows = [("state", "pivotal", "threshold", "c")]
    rows += [
        (str(s), rational_text(p), rational_text(threshold(s, instance)), "-" if c is None else str(c))
        for s, p, c in labels
    ]
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    return True, _text(
        ["  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip() for row in rows]
    )


def _cmd_graph(args, instance: ProblemInstance) -> tuple[bool, str]:
    """The reduced graph as JSON, or as DOT with byte-stable, lexicographic
    ordering: node s_i_k carries P and the willing rank (or the undefined
    mark ⊥), and end nodes (layer n-1) get a doubled periphery."""
    labels = _labels(instance)
    name = instance.fn_spec.name or "anonymous"
    end = instance.n - 1
    if args.json:
        return True, _json(
            {
                "instance": name,
                "root": list(labels[0][0]) if labels else None,
                "nodes": [{**_label_json(instance, *label), "end": label[0].approached == end} for label in labels],
                "edges": [[list(a), list(b)] for a, b in edges(instance)],
            }
        )
    if not labels:
        return True, _text([f"// instance: {name}", "digraph G { }"])
    lines = [f"// instance: {name}", "digraph G {"]
    for (i, k), p, c in labels:
        c_text = "⊥" if c is None else c
        periphery = ", peripheries=2" if i == end else ""
        lines.append(f'  s_{i}_{k} [label="({i},{k})\\nP={rational_text(p)}\\nc={c_text}"{periphery}];')
    lines += [f"  s_{a.approached}_{a.ones} -> s_{b.approached}_{b.ones};" for a, b in edges(instance)]
    lines.append("}")
    return True, _text(lines)


def _cmd_hcf(args, instance: ProblemInstance) -> tuple[bool, str]:
    if args.secrets is not None:
        bits = args.secrets
        if len(bits) != instance.n or any(b not in "01" for b in bits):
            raise ElicitError(f"--secrets must be {instance.n} characters of 0/1")
        # Input bits follow the instance file's agent order.
        by_rank = tuple(int(bits[pos - 1]) for pos in instance.original_index)
    else:
        by_rank = draw_secrets(instance, args.seed)
        bits = "".join(str(bit) for _, bit in sorted(zip(instance.original_index, by_rank)))
    result = run(instance, HcfPolicy(instance), by_rank)

    entries = result.transcript.entries
    # The ones reported before each step. The thresholds along that path come
    # from one pass that keeps two numerator rows, not the O(n^3)-bit table.
    ones = list(accumulate((reply for _, reply in entries), initial=0))[:-1]
    taus = instance.lattice.path_thresholds(ones)
    steps = [
        (InfoState(i, k), rank, rational_text(tau), reply)
        for i, (k, (rank, reply), tau) in enumerate(zip(ones, entries, taus))
    ]
    total_cost = rational_text(result.total_cost_incurred)

    if args.json:
        return True, _json(
            {
                "secrets": bits,
                "transcript": [
                    {
                        "agent": instance.agent_id_of_rank(rank),
                        "rank": rank,
                        "state": list(st),
                        "threshold": tau,
                        "reply": reply,
                    }
                    for st, rank, tau, reply in steps
                ],
                "output": result.output,
                "halted_at": list(result.halted_at),
                "approached": result.approached_count,
                "total_cost": total_cost,
            }
        )
    lines = [
        f"approach agent {instance.agent_id_of_rank(rank)} (rank {rank}) at state {st}: "
        f"threshold {tau}, reply {reply}"
        for st, rank, tau, reply in steps
    ]
    lines.append(
        f"output: {result.output} (halted at {result.halted_at}; approached "
        f"{result.approached_count} of {instance.n} agents; total cost "
        f"{total_cost})"
    )
    return True, _text(lines)


def _cmd_audit(args, instance: ProblemInstance) -> tuple[bool, str]:
    report = audit_full_tree(instance, _POLICIES[args.policy](instance))
    if args.json:
        return report.passed, _json(
            {
                "policy": args.policy,
                "passed": report.passed,
                "records": [
                    {
                        "state": list(rec.state),
                        "rank": rec.rank,
                        "agent": instance.agent_id_of_rank(rec.rank),
                        "cost": rational_text(rec.cost),
                        "threshold": rational_text(rec.threshold),
                        "eligible": rec.eligible,
                    }
                    for rec in report.records
                ],
                "failure": None
                if report.failure is None
                else {"state": list(report.failure[0]), "reason": report.failure[1]},
            }
        )
    if report.passed:
        lines = [f"audit PASSED: {len(report.records)} decision points, every chosen agent willing"]
    else:
        state, reason = report.failure
        lines = [f"audit FAILED at state {state}: {reason}"]
    for rec in report.records:
        verdict = "eligible" if rec.eligible else "INELIGIBLE"
        lines.append(
            f"  state {rec.state}: rank {rec.rank} "
            f"(agent {instance.agent_id_of_rank(rec.rank)}), cost {rational_text(rec.cost)}, "
            f"threshold {rational_text(rec.threshold)}, {verdict}"
        )
    return report.passed, _text(lines)


def _cmd_deviate(args, instance: ProblemInstance) -> tuple[bool, str]:
    try:
        rank = instance.rank_of_agent_id(args.agent)
    except KeyError:
        raise ElicitError(f"unknown agent id {args.agent!r}") from None
    policy = _POLICIES[args.policy](instance)
    utility = rational_text(deviation_profile(instance, policy, rank)[ACTION_NAMES[args.action]])
    if args.json:
        return True, _json(
            {
                "agent": args.agent,
                "rank": rank,
                "action": args.action,
                "policy": args.policy,
                "utility": utility,
            }
        )
    return True, _text(
        [
            f"agent {args.agent} (rank {rank}), action {args.action} under {args.policy}: "
            f"expected utility {utility} (conditional on being approached)"
        ]
    )


def _cmd_oracle(args, instance: ProblemInstance) -> tuple[bool, str]:
    # The references are imported here, so that no other command compiles them.
    from .oracle import brute_pivotal, exhaustive_existence, hcf_tree_existence

    if args.mode == "pivotal":
        labels = _labels(instance)
        mismatches = []
        for state, analytic, _ in labels:
            brute = brute_pivotal(state, instance)
            if analytic != brute:
                mismatches.append((state, rational_text(analytic), rational_text(brute)))
        agree = not mismatches
        if args.json:
            return agree, _json(
                {
                    "mode": "pivotal",
                    "checked": len(labels),
                    "agree": agree,
                    "mismatches": [
                        {"state": list(s), "analytic": a, "brute": b}
                        for s, a, b in mismatches
                    ],
                }
            )
        status = "OK" if agree else "MISMATCH"
        lines = [f"pivotal cross-check: {len(labels)} states compared: {status}"]
        lines += [f"  state {s}: analytic {a} vs brute-force {b}" for s, a, b in mismatches]
        return agree, _text(lines)

    verdict = exists_appropriate(instance)
    if args.mode == "mechanisms":
        oracle_verdict = exhaustive_existence(instance)
    else:
        oracle_verdict = hcf_tree_existence(instance)
    agree = verdict.exists == oracle_verdict.exists
    if args.json:
        return agree, _json(
            {
                "mode": args.mode,
                "verify_exists": verdict.exists,
                "oracle_exists": oracle_verdict.exists,
                "mechanisms_checked": oracle_verdict.mechanisms_checked,
                "agree": agree,
            }
        )
    word = {True: "EXISTS", False: "NOT-EXISTS"}
    status = "OK" if agree else "MISMATCH"
    return agree, _text(
        [
            f"{args.mode} cross-check: verify={word[verdict.exists]}, "
            f"oracle={word[oracle_verdict.exists]} "
            f"({oracle_verdict.mechanisms_checked} mechanisms checked): {status}"
        ]
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqelicit",
        description=(
            "Decide whether a sequential information-elicitation mechanism exists "
            "for an anonymous-function computation game, run the highest-cost-first "
            "mechanism, and audit its equilibrium."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p) -> None:
        p.add_argument("instance", help="path to an instance JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="decide whether an appropriate mechanism exists")
    common(p)
    p.add_argument("--witness", action="store_true", help="pretty-print the violating path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("pivotal", help="print pivotality, threshold, and willing rank per state")
    common(p)
    p.set_defaults(handler=_cmd_pivotal)

    p = sub.add_parser("graph", help="export the reduced state graph as DOT")
    common(p)
    p.add_argument("-o", "--output", help="write to a file instead of standard output")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("hcf", help="run the highest-cost-first mechanism on one secret vector")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--secrets", help="bit string in the instance file's agent order")
    group.add_argument("--seed", type=int, help="draw secrets from the prior with this seed")
    p.set_defaults(handler=_cmd_hcf)

    p = sub.add_parser("audit", help="check the computing-equilibrium condition on every reply path")
    common(p)
    p.add_argument("--policy", choices=_POLICIES, default="hcf")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("deviate", help="expected utility of a unilateral deviation")
    common(p)
    p.add_argument("--agent", required=True, help="agent id as given in the instance file")
    p.add_argument("--action", required=True, choices=sorted(ACTION_NAMES))
    p.add_argument("--policy", choices=_POLICIES, default="hcf")
    p.set_defaults(handler=_cmd_deviate)

    p = sub.add_parser("oracle", help="cross-check the analytic engine against brute force")
    common(p)
    p.add_argument("--mode", required=True, choices=("pivotal", "mechanisms", "hcf-tree"))
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        ok, text = args.handler(args, _load_instance(args.instance))
        output = getattr(args, "output", None)
        if output:
            try:
                with open(output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ElicitError(f"cannot write {output}: {exc}") from exc
        elif hasattr(sys.stdout, "buffer"):
            # UTF-8 whatever the locale, as `-o` is; a text-only stream takes the text.
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    except ElicitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE if isinstance(exc, PolicyFailed) else EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - last-resort barrier for exit code 1
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if ok else EXIT_NEGATIVE


if __name__ == "__main__":
    raise SystemExit(main())
