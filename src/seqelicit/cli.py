"""Command-line interface: verify, hcf, audit, pivotal, graph, deviate, oracle.

All machine output renders rationals as "num/den" strings, never decimals.
Exit codes: 0 success or positive verdict, 3 negative verdict or oracle
mismatch, 2 usage or input-format error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BadFunctionTable,
    CapExceeded,
    CostOutOfRange,
    ElicitError,
    MalformedDocument,
    PolicyFailed,
    QOutOfRange,
)
from .graph import edges, export_dot, nodes
from .mechanism import (
    FixedOrderPolicy,
    HcfPolicy,
    audit_full_tree,
    deviation_profile,
    draw_secrets,
    run,
)
from .model import ACTION_NAMES, InfoState, ProblemInstance, ingest
from .oracle import brute_pivotal, exhaustive_existence, hcf_tree_existence
from .pivotal import c_of, pivotal_prob, threshold
from .verify import REASON_C_UNDEFINED, REASON_PIGEONHOLE, REASON_TRIVIAL, exists_appropriate

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3


# A mirrored instance flips every bit, so the actions that name a bit swap.
_MIRRORED_ACTIONS = {
    "guess-0": "guess-1",
    "guess-1": "guess-0",
    "compute-0": "compute-1",
    "compute-1": "compute-0",
}


class _UsageError(Exception):
    pass


def _state_json(state: InfoState) -> list[int]:
    return [state.approached, state.ones]


def _label_json(state: InfoState, instance: ProblemInstance) -> dict:
    return {
        "state": _state_json(state),
        "pivotal": str(pivotal_prob(state, instance)),
        "threshold": str(threshold(state, instance)),
        "c": c_of(state, instance),
    }


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _load_instance(args) -> ProblemInstance:
    try:
        with open(args.instance, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.instance}: {exc}") from exc
    instance = ingest(text, normalize=args.normalize)
    # With --normalize, ingest mirrors a file whose q is below 1/2 (every bit
    # flipped). Commands that read or print bits translate them to the file's
    # terms; states and thresholds stay those of the mirrored game.
    args.mirrored = instance.mirrored
    return instance


def _policy_for(name: str, instance: ProblemInstance):
    if name == "fixed":
        return FixedOrderPolicy(instance)
    return HcfPolicy(instance)


def _cmd_verify(args) -> int:
    instance = _load_instance(args)
    verdict = exists_appropriate(instance)
    if args.json:
        payload: dict = {"exists": verdict.exists}
        if verdict.reason == REASON_C_UNDEFINED:
            payload["reason"] = {REASON_C_UNDEFINED: _state_json(verdict.undefined_at)}
        else:
            payload["reason"] = verdict.reason
        if verdict.witness is not None:
            payload["witness"] = {
                "path": [_state_json(s) for s in verdict.witness.path],
                "violating_rank": verdict.witness.violating_rank,
                "count": verdict.witness.count,
            }
        _print_json(payload)
        return EXIT_OK if verdict.exists else EXIT_NEGATIVE
    if verdict.exists:
        print("appropriate mechanism EXISTS")
        if verdict.reason == REASON_TRIVIAL:
            print("(constant function: the empty mechanism already outputs the value)")
        return EXIT_OK
    print("NO appropriate mechanism exists")
    if verdict.reason == REASON_C_UNDEFINED:
        print(f"reason: no agent is willing to compute at state {verdict.undefined_at}")
    else:
        w = verdict.witness
        print(
            f"reason: a path to end node {w.path[-1]} carries {w.count} states "
            f"with willing rank <= {w.violating_rank}, but only "
            f"{w.violating_rank} such agents exist"
        )
        if args.witness:
            print(f"witness path (rank bound {w.violating_rank}):")
            for state in w.path:
                c = c_of(state, instance)
                c_text = "undefined" if c is None else str(c)
                mark = " *" if c is not None and c <= w.violating_rank else ""
                print(f"  {state} c={c_text}{mark}")
    return EXIT_NEGATIVE


def _cmd_pivotal(args) -> int:
    instance = _load_instance(args)
    states = nodes(instance)
    name = instance.fn_spec.name or "anonymous"
    if args.json:
        _print_json({"instance": name, "nodes": [_label_json(s, instance) for s in states]})
        return EXIT_OK
    if not states:
        print("(empty state graph: the function is constant)")
        return EXIT_OK
    rows = [("state", "pivotal", "threshold", "c")]
    for state in states:
        c = c_of(state, instance)
        rows.append(
            (
                str(state),
                str(pivotal_prob(state, instance)),
                str(threshold(state, instance)),
                "-" if c is None else str(c),
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip())
    return EXIT_OK


def _cmd_graph(args) -> int:
    instance = _load_instance(args)
    if args.json:
        states = nodes(instance)
        text = (
            json.dumps(
                {
                    "instance": instance.fn_spec.name or "anonymous",
                    "root": _state_json(states[0]) if states else None,
                    "nodes": [
                        {**_label_json(s, instance), "end": s.approached == instance.n - 1} for s in states
                    ],
                    "edges": [[_state_json(a), _state_json(b)] for a, b in edges(instance)],
                },
                indent=2,
            )
            + "\n"
        )
    else:
        text = export_dot(instance)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_hcf(args) -> int:
    instance = _load_instance(args)
    flip = int(args.mirrored)
    if args.secrets is not None:
        bits = args.secrets
        if len(bits) != instance.n or any(b not in "01" for b in bits):
            raise _UsageError(f"--secrets must be {instance.n} characters of 0/1")
        # Input bits follow the instance file's agent order.
        by_rank = tuple(int(bits[instance.original_index[r - 1] - 1]) ^ flip for r in instance.ranks)
    else:
        by_rank = draw_secrets(instance, args.seed)
    result = run(instance, HcfPolicy(instance), by_rank)

    user_bits = ["?"] * instance.n
    for rank in instance.ranks:
        user_bits[instance.original_index[rank - 1] - 1] = str(by_rank[rank - 1] ^ flip)
    steps = []
    state = InfoState(0, 0)
    for rank, reply in result.transcript.entries:
        steps.append((state, rank, threshold(state, instance), reply ^ flip))
        state = InfoState(state.approached + 1, state.ones + reply)

    if args.json:
        _print_json(
            {
                "secrets": "".join(user_bits),
                "transcript": [
                    {
                        "agent": instance.agent_id_of_rank(rank),
                        "rank": rank,
                        "state": _state_json(st),
                        "threshold": str(tau),
                        "reply": reply,
                    }
                    for st, rank, tau, reply in steps
                ],
                "output": result.output,
                "halted_at": _state_json(result.halted_at),
                "approached": result.approached_count,
                "total_cost": str(result.total_cost_incurred),
            }
        )
        return EXIT_OK
    for st, rank, tau, reply in steps:
        agent = instance.agent_id_of_rank(rank)
        print(f"approach agent {agent} (rank {rank}) at state {st}: threshold {tau}, reply {reply}")
    print(
        f"output: {result.output} (halted at {result.halted_at}; approached "
        f"{result.approached_count} of {instance.n} agents; total cost "
        f"{result.total_cost_incurred})"
    )
    return EXIT_OK


def _cmd_audit(args) -> int:
    instance = _load_instance(args)
    policy = _policy_for(args.policy, instance)
    report = audit_full_tree(instance, policy)
    if args.json:
        _print_json(
            {
                "policy": args.policy,
                "passed": report.passed,
                "records": [
                    {
                        "state": _state_json(rec.state),
                        "rank": rec.rank,
                        "agent": instance.agent_id_of_rank(rec.rank),
                        "cost": str(rec.cost),
                        "threshold": str(rec.threshold),
                        "eligible": rec.eligible,
                    }
                    for rec in report.records
                ],
                "failure": None
                if report.failure is None
                else {"state": _state_json(report.failure[0]), "reason": report.failure[1]},
            }
        )
        return EXIT_OK if report.passed else EXIT_NEGATIVE
    if report.passed:
        print(f"audit PASSED: {len(report.records)} decision points, every chosen agent willing")
    else:
        state, reason = report.failure
        print(f"audit FAILED at state {state}: {reason}")
    for rec in report.records:
        verdict = "eligible" if rec.eligible else "INELIGIBLE"
        print(
            f"  state {rec.state}: rank {rec.rank} "
            f"(agent {instance.agent_id_of_rank(rec.rank)}), cost {rec.cost}, "
            f"threshold {rec.threshold}, {verdict}"
        )
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_deviate(args) -> int:
    instance = _load_instance(args)
    try:
        rank = instance.rank_of_agent_id(args.agent)
    except KeyError:
        raise _UsageError(f"unknown agent id {args.agent!r}") from None
    name = _MIRRORED_ACTIONS.get(args.action, args.action) if args.mirrored else args.action
    policy = _policy_for(args.policy, instance)
    utility = deviation_profile(instance, policy, rank)[ACTION_NAMES[name]]
    if args.json:
        _print_json(
            {
                "agent": args.agent,
                "rank": rank,
                "action": args.action,
                "policy": args.policy,
                "utility": str(utility),
            }
        )
        return EXIT_OK
    print(
        f"agent {args.agent} (rank {rank}), action {args.action} under {args.policy}: "
        f"expected utility {utility} (conditional on being approached)"
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = _load_instance(args)
    if args.mode == "pivotal":
        states = nodes(instance)
        mismatches = []
        for state in states:
            analytic = pivotal_prob(state, instance)
            brute = brute_pivotal(state, instance)
            if analytic != brute:
                mismatches.append((state, analytic, brute))
        agree = not mismatches
        if args.json:
            _print_json(
                {
                    "mode": "pivotal",
                    "checked": len(states),
                    "agree": agree,
                    "mismatches": [
                        {"state": _state_json(s), "analytic": str(a), "brute": str(b)}
                        for s, a, b in mismatches
                    ],
                }
            )
        else:
            status = "OK" if agree else "MISMATCH"
            print(f"pivotal cross-check: {len(states)} states compared: {status}")
            for s, a, b in mismatches:
                print(f"  state {s}: analytic {a} vs brute-force {b}")
        return EXIT_OK if agree else EXIT_NEGATIVE

    verdict = exists_appropriate(instance)
    if args.mode == "mechanisms":
        oracle_verdict = exhaustive_existence(instance)
    else:
        oracle_verdict = hcf_tree_existence(instance)
    agree = verdict.exists == oracle_verdict.exists
    if args.json:
        _print_json(
            {
                "mode": args.mode,
                "verify_exists": verdict.exists,
                "oracle_exists": oracle_verdict.exists,
                "mechanisms_checked": oracle_verdict.mechanisms_checked,
                "agree": agree,
            }
        )
    else:
        def word(flag: bool) -> str:
            return "EXISTS" if flag else "NOT-EXISTS"

        status = "OK" if agree else "MISMATCH"
        print(
            f"{args.mode} cross-check: verify={word(verdict.exists)}, "
            f"oracle={word(oracle_verdict.exists)} "
            f"({oracle_verdict.mechanisms_checked} mechanisms checked): {status}"
        )
    return EXIT_OK if agree else EXIT_NEGATIVE


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
        p.add_argument(
            "--normalize",
            action="store_true",
            help="accept q < 1/2 by mirroring the instance onto 1-q",
        )
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
    p.add_argument("--policy", choices=("hcf", "fixed"), default="hcf")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("deviate", help="expected utility of a unilateral deviation")
    common(p)
    p.add_argument("--agent", required=True, help="agent id as given in the instance file")
    p.add_argument("--action", required=True, choices=sorted(ACTION_NAMES))
    p.add_argument("--policy", choices=("hcf", "fixed"), default="hcf")
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
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (
        MalformedDocument,
        QOutOfRange,
        CostOutOfRange,
        BadFunctionTable,
        CapExceeded,
        _UsageError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PolicyFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ElicitError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort barrier for exit code 1
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
