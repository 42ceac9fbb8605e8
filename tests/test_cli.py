"""Command-line behavior: text and JSON modes, exit codes, error mapping."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import INSTANCES_DIR
from seqelicit import pivotal
from seqelicit.cli import main
from seqelicit.mechanism import HcfPolicy, deviation_profile
from seqelicit.errors import CapExceeded, MalformedDocument
from seqelicit.model import ACTION_NAMES, ingest, majority, rational_text, unanimity
from seqelicit.oracle import BRUTE_PIVOTAL_CAP, exhaustive_existence, mirror

EX1 = str(INSTANCES_DIR / "example1.json")
EX2 = str(INSTANCES_DIR / "example2.json")
EX3 = str(INSTANCES_DIR / "example3.json")
OVERPACKED = str(INSTANCES_DIR / "overpacked_path.json")
LOW_Q = INSTANCES_DIR / "low_q.json"  # unanimity of 3 at q = 1/4


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_exists_text(capsys):
    code, out, _ = invoke(capsys, "verify", EX2)
    assert code == 0
    assert out == "appropriate mechanism EXISTS\n"


def test_verify_negative_json(capsys):
    code, out, _ = invoke(capsys, "verify", EX1, "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload == {"exists": False, "reason": {"c_undefined_at": [0, 0]}}


def test_verify_pigeonhole_json_round_trips(capsys):
    code, out, _ = invoke(capsys, "verify", OVERPACKED, "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["reason"] == "pigeonhole_path"
    witness = payload["witness"]
    assert witness["count"] > witness["violating_rank"]
    assert witness["path"][0] == [0, 0]


def test_verify_witness_pretty_print(capsys):
    code, out, _ = invoke(capsys, "verify", OVERPACKED, "--witness")
    assert code == 3
    assert "witness path (rank bound 1):" in out
    assert "(0,0) c=1 *" in out


def test_verify_constant_function_text(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text('{"n": 3, "q": "1/2", "costs": ["0", "1/4", "1/2"], "function": {"ones_counts": []}}')
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 0
    assert out == (
        "appropriate mechanism EXISTS\n"
        "(constant function: the empty mechanism already outputs the value)\n"
    )
    assert err == ""


def test_internal_error_exits_1(capsys, monkeypatch):
    def boom(instance):
        raise RuntimeError("boom")

    monkeypatch.setattr("seqelicit.cli.exists_appropriate", boom)
    code, out, err = invoke(capsys, "verify", EX2)
    assert code == 1
    assert out == ""
    assert err == "error: internal: boom\n"


def test_hcf_secrets_transcript(capsys):
    code, out, _ = invoke(capsys, "hcf", EX2, "--secrets", "0001")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2] == "approach agent 4 (rank 4) at state (3,0): threshold 1/2, reply 1"
    assert lines[-1].startswith("output: 0 (halted at (4,1)")


def test_hcf_json_schema(capsys):
    code, out, _ = invoke(capsys, "hcf", EX2, "--secrets", "0001", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"] == 0
    assert payload["secrets"] == "0001"
    assert payload["total_cost"] == "2/5"
    assert [step["rank"] for step in payload["transcript"]] == [3, 2, 1, 4]
    assert payload["transcript"][-1]["threshold"] == "1/2"


def test_hcf_seed_runs(capsys):
    code, out, _ = invoke(capsys, "hcf", EX3, "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["output"] in (0, 1)
    assert len(payload["secrets"]) == 11


def test_hcf_failure_exit_code(capsys):
    code, out, err = invoke(capsys, "hcf", EX1, "--secrets", "0" * 11)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_hcf_bad_secrets(capsys):
    code, out, err = invoke(capsys, "hcf", EX2, "--secrets", "01")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_audit_json(capsys):
    code, out, _ = invoke(capsys, "audit", EX2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {rec["state"][0] for rec in payload["records"]} == {0, 1, 2, 3}


def test_audit_failure_exit(capsys):
    code, out, _ = invoke(capsys, "audit", EX1)
    assert code == 3
    assert "audit FAILED at state (0,0): no_eligible_agent" in out


def test_pivotal_table(capsys):
    code, out, _ = invoke(capsys, "pivotal", EX1)
    assert code == 0
    assert "63/256" in out and "63/512" in out
    header = out.splitlines()[0].split()
    assert header == ["state", "pivotal", "threshold", "c"]


def test_pivotal_constant_instance(capsys, tmp_path):
    path = tmp_path / "const.json"
    path.write_text(
        '{"n": 2, "q": "1/2", "costs": ["0", "0"],'
        ' "function": {"ones_counts": [0, 1, 2]}}'
    )
    code, out, _ = invoke(capsys, "pivotal", str(path))
    assert code == 0
    assert "constant" in out
    code, out, _ = invoke(capsys, "pivotal", str(path), "--json")
    assert code == 0
    assert json.loads(out)["nodes"] == []


def test_pivotal_json(capsys):
    code, out, _ = invoke(capsys, "pivotal", EX2, "--json")
    assert code == 0
    payload = json.loads(out)
    root = payload["nodes"][0]
    assert root == {"state": [0, 0], "pivotal": "1/4", "threshold": "1/8", "c": 3}


def test_graph_dot_and_file_output(capsys, tmp_path):
    code, out, _ = invoke(capsys, "graph", EX2)
    assert code == 0
    assert out.startswith("// instance: consensus\ndigraph G {\n")
    target = tmp_path / "g.dot"
    code, out2, _ = invoke(capsys, "graph", EX2, "-o", str(target))
    assert code == 0
    assert out2 == ""
    assert target.read_text() == out


def test_graph_output_to_a_missing_directory_is_usage_error(capsys, tmp_path):
    code, out, err = invoke(capsys, "graph", EX2, "-o", str(tmp_path / "missing" / "g.dot"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    # The DOT's undefined mark and a non-ASCII agent id, through a real
    # stdout: the bytes are the UTF-8 run's under an ASCII or Latin-1 locale.
    accented = tmp_path / "accented.json"
    accented.write_text(
        json.dumps({"n": 2, "q": "1/2", "costs": ["0", "0"], "function": "parity", "agent_ids": ["é", "b"]})
    )
    src = str(Path(pivotal.__file__).resolve().parents[1])
    for argv, marker in ((["graph", EX1], "c=⊥"), (["hcf", str(accented), "--secrets", "10"], "agent é")):
        outputs = []
        for encoding in ("utf-8", "ascii", "latin-1"):
            env = dict(os.environ, PYTHONIOENCODING=encoding, PYTHONPATH=src)
            child = subprocess.run(
                [sys.executable, "-m", "seqelicit", *argv], env=env, capture_output=True, check=False, timeout=60
            )
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
        assert marker.encode("utf-8") in outputs[0]
        assert outputs[1:] == [outputs[0]] * 2


def test_graph_json(capsys):
    code, out, _ = invoke(capsys, "graph", EX2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["root"] == [0, 0]
    assert len(payload["nodes"]) == 7
    assert len(payload["edges"]) == 6
    assert sum(node["end"] for node in payload["nodes"]) == 2


def test_deviate_text_and_json(capsys):
    code, out, _ = invoke(
        capsys, "deviate", EX1, "--agent", "1", "--action", "guess-1", "--policy", "fixed"
    )
    assert code == 0
    assert "expected utility 449/512" in out
    code, out, _ = invoke(
        capsys,
        "deviate",
        EX2,
        "--agent",
        "4",
        "--action",
        "truthful",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["utility"] == "3/5"


def test_deviate_unknown_agent(capsys):
    code, out, err = invoke(capsys, "deviate", EX2, "--agent", "nope", "--action", "guess-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_oracle_modes(capsys):
    code, out, _ = invoke(capsys, "oracle", EX2, "--mode", "pivotal")
    assert code == 0 and "OK" in out
    code, out, _ = invoke(capsys, "oracle", EX2, "--mode", "mechanisms", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True and payload["verify_exists"] is True
    code, out, _ = invoke(capsys, "oracle", EX1, "--mode", "hcf-tree", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verify_exists"] is False and payload["oracle_exists"] is False


def test_oracle_pivotal_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("seqelicit.oracle.brute_pivotal", lambda state, instance: Fraction(0))
    code, out, _ = invoke(capsys, "oracle", EX2, "--mode", "pivotal")
    assert code == 3
    lines = out.splitlines()
    assert lines[:2] == [
        "pivotal cross-check: 7 states compared: MISMATCH",
        "  state (0,0): analytic 1/4 vs brute-force 0",
    ]
    assert len(lines) == 8
    code, out, _ = invoke(capsys, "oracle", EX2, "--mode", "pivotal", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["agree"] is False and payload["checked"] == 7
    assert [entry["state"] for entry in payload["mismatches"]] == [
        [0, 0], [1, 0], [1, 1], [2, 0], [2, 2], [3, 0], [3, 3]
    ]
    assert all(entry["brute"] == "0" for entry in payload["mismatches"])


def test_oracle_mechanisms_mismatch_exits_3(capsys, monkeypatch):
    def flipped(instance):
        verdict = exhaustive_existence(instance)
        return verdict._replace(exists=not verdict.exists)

    monkeypatch.setattr("seqelicit.oracle.exhaustive_existence", flipped)
    code, out, _ = invoke(capsys, "oracle", EX2, "--mode", "mechanisms", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["agree"] is False
    assert (payload["verify_exists"], payload["oracle_exists"]) == (True, False)


def test_oracle_mechanisms_cap_is_usage_error(capsys):
    code, out, err = invoke(capsys, "oracle", EX1, "--mode", "mechanisms")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_oracle_pivotal_cap_is_usage_error(capsys, tmp_path):
    # One past the largest accepted file: its root has CAP + 1 free agents,
    # so the command refuses at once instead of enumerating 2^(CAP + 1)
    # completions per node.
    n = BRUTE_PIVOTAL_CAP + 2
    big = tmp_path / "parity.json"
    big.write_text(json.dumps({"n": n, "q": "1/2", "costs": ["0"] * n, "function": "parity"}))
    code, out, err = invoke(capsys, "oracle", str(big), "--mode", "pivotal")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_flag_is_usage_error(capsys):
    code = main(["verify", EX2, "--bogus"])
    capsys.readouterr()
    assert code == 2
    # argparse's other exit: `--help` prints the usage and succeeds.
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: seqelicit")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("pivotal",),
        ("graph",),
        ("hcf", "--seed", "1"),
        ("audit",),
        ("deviate", "--agent", "1", "--action", "truthful"),
        ("oracle", "--mode", "pivotal"),
    ],
    ids=lambda argv: argv[0],
)
def test_missing_file_is_usage_error(capsys, argv):
    code, out, err = invoke(capsys, argv[0], "does-not-exist.json", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read")


def test_malformed_instance_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "q": "2", "costs": ["0", "0"], "function": "parity"}')
    code, _, err = invoke(capsys, "verify", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_instance_file_not_in_utf8_is_usage_error(capsys, tmp_path):
    # The byte 0xff inside an agent id: the file cannot be decoded, an
    # input-format error like any other, with a short message.
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"n": 1, "q": "1/2", "costs": ["0"], "function": "parity", "agent_ids": ["\xff"]}')
    code, out, err = invoke(capsys, "verify", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: not valid UTF-8: invalid start byte at byte offset 74\n"


@pytest.mark.parametrize(
    "encoding, message",
    [
        ("utf-16", "not valid UTF-8: invalid start byte at byte offset 0"),
        ("utf-32", "not valid UTF-8: invalid start byte at byte offset 0"),
        ("utf-8-sig", "not valid JSON: Unexpected UTF-8 BOM"),
    ],
)
def test_ingest_and_the_cli_refuse_the_same_bytes(capsys, tmp_path, encoding, message):
    # One valid document in three encodings that JSON's own byte detection
    # would accept: both paths decode strictly as UTF-8, and a BOM stays a
    # JSON error.
    data = LOW_Q.read_text(encoding="utf-8").encode(encoding)
    with pytest.raises(MalformedDocument, match=f"^{message}") as refused:
        ingest(data)
    path = tmp_path / f"{encoding}.json"
    path.write_bytes(data)
    assert invoke(capsys, "verify", str(path)) == (2, "", f"error: {refused.value}\n")
    assert ingest(LOW_Q.read_bytes()) == ingest(LOW_Q.read_text(encoding="utf-8"))


def test_exponent_cost_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "exp.json"
    bad.write_text('{"n": 2, "q": "1/2", "costs": ["0", "1e-10000000"], "function": "parity"}')
    code, out, err = invoke(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: costs[1]: exponent notation")


def test_oversized_integer_literal_is_usage_error(capsys, tmp_path):
    # 5000 digits exceed the interpreter's int-string conversion limit.
    bad = tmp_path / "digits.json"
    bad.write_text('{"n": ' + "9" * 5000 + ', "q": "1/2", "costs": [], "function": "parity"}')
    code, out, err = invoke(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "internal" not in err


_DIGITS = "9" * 4000


@pytest.mark.parametrize(
    "fields",
    [
        # Past the interpreter's int-string limit: echoed by _as_rational.
        {"costs": ["0", "1" * 5000]},
        # Parses, but lies outside [0, 1): echoed by CostOutOfRange.
        {"costs": ["0", _DIGITS + "/1"]},
        # cost / value has 8000-digit terms, too long for str() on 3.11.
        {"costs": ["0", _DIGITS + "/1"], "values": ["1", "1/" + _DIGITS]},
        {"q": _DIGITS + "/1"},
        {"function": "x" * 5000},
    ],
    ids=["cost-digits", "cost-over-one", "cost-over-value", "q", "function-name"],
)
def test_hostile_value_is_usage_error_with_a_short_message(capsys, tmp_path, fields):
    bad = tmp_path / "hostile.json"
    bad.write_text(json.dumps({"n": 2, "q": "1/2", "costs": ["0", "0"], "function": "parity", **fields}))
    code, out, err = invoke(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "internal" not in err
    assert len(err.encode()) < 300


def test_deeply_nested_document_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000)
    code, out, err = invoke(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "internal" not in err


def test_the_normalize_flag_is_gone(capsys, tmp_path):
    # A prior below 1/2 needs no flag, and the flag that mirrored it is gone.
    low_q = tmp_path / "low.json"
    low_q.write_text('{"n": 2, "q": "1/3", "costs": ["0", "0"], "function": "parity"}')
    code, out, _ = invoke(capsys, "verify", str(low_q))
    assert code == 0
    assert out == "appropriate mechanism EXISTS\n"
    code, out, _ = invoke(capsys, "verify", str(low_q), "--normalize")
    assert code == 2
    assert out == ""


def test_hcf_low_q_speaks_the_files_bits(capsys):
    # rational_forms.json lists its agents in cost ranks 3, 4, 1, 2, 5, so a
    # bit read in rank order instead of file order shows in the replies.
    for path, spec in ((LOW_Q, unanimity(3)), (INSTANCES_DIR / "rational_forms.json", majority(5))):
        agent_ids = ingest(path.read_text()).agent_ids
        for bits in itertools.product("01", repeat=len(agent_ids)):
            secrets = "".join(bits)
            code, out, _ = invoke(capsys, "hcf", str(path), "--secrets", secrets, "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["output"] == int(spec.ones_to_one[secrets.count("1")])
            assert payload["secrets"] == secrets
            state = [0, 0]
            for step in payload["transcript"]:
                assert step["state"] == state
                assert step["reply"] == int(secrets[agent_ids.index(step["agent"])])
                state = [state[0] + 1, state[1] + step["reply"]]
            assert payload["halted_at"] == state


def test_deviate_low_q_matches_the_mirror_with_the_bits_swapped(capsys):
    mirrored = mirror(ingest(LOW_Q.read_text()))
    profile = deviation_profile(mirrored, HcfPolicy(mirrored), mirrored.rank_of_agent_id("2"))
    in_mirror_of = {
        "guess-0": "guess-1",
        "guess-1": "guess-0",
        "compute-0": "compute-1",
        "compute-1": "compute-0",
        "truthful": "truthful",
        "lie": "lie",
    }
    for action, in_mirror in in_mirror_of.items():
        code, out, _ = invoke(capsys, "deviate", str(LOW_Q), "--agent", "2", "--action", action, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["action"] == action
        assert payload["utility"] == str(profile[ACTION_NAMES[in_mirror]])


def test_verify_past_the_lattice_budget_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(pivotal, "LATTICE_BUDGET_BITS", 100)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 12, "q": "1/2", "costs": ["0"] * 12, "function": "parity"}))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: state lattice capped at 100 numerator bits")


def test_hcf_past_the_lattice_budget_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(pivotal, "LATTICE_BUDGET_BITS", 100)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 12, "q": "1/2", "costs": ["0"] * 12, "function": "parity"}))
    code, out, err = invoke(capsys, "hcf", str(path), "--secrets", "0" * 12)
    assert code == 2
    assert out == ""
    assert err.startswith("error: state lattice capped at 100 numerator bits")


def test_hcf_past_the_digit_limit_of_its_cost_total_is_usage_error(capsys, tmp_path):
    # Four costs 1/d, each d an odd 14000-bit integer (4215 digits, so each
    # parses): the costs' common denominator runs past 4300 digits.
    rng = random.Random(9100)
    costs = [f"1/{rng.getrandbits(14000) | 1 << 13999 | 1}" for _ in range(4)]
    path = tmp_path / "costs.json"
    path.write_text(json.dumps({"n": 4, "q": "1/2", "costs": costs, "function": "majority"}))
    assert invoke(capsys, "verify", str(path))[:2] == (0, "appropriate mechanism EXISTS\n")
    code, out, err = invoke(capsys, "hcf", str(path), "--seed", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: cost totals capped at 4300 digits")


def test_hcf_failing_before_its_cost_total_exits_3(capsys, tmp_path):
    # The same long denominators under costs just below 1/2: HCF fails at the
    # root, and that failure, not the cost total's digit cap, is reported.
    rng = random.Random(9101)
    dens = [rng.getrandbits(14000) | 1 << 13999 | 1 for _ in range(4)]
    path = tmp_path / "costs.json"
    costs = [f"{d // 2 - 1}/{d}" for d in dens]
    path.write_text(json.dumps({"n": 4, "q": "1/2", "costs": costs, "function": "majority"}))
    for flags in (("--seed", "1"), ("--secrets", "0110"), ("--seed", "2", "--json")):
        code, out, err = invoke(capsys, "hcf", str(path), *flags)
        assert (code, out) == (3, ""), flags
        assert "no_eligible_agent" in err


def test_a_rational_past_the_digit_limit_is_usage_error(capsys, tmp_path):
    # A 4300-digit prior denominator parses; the thresholds' have 8600 digits.
    path = tmp_path / "long_q.json"
    path.write_text(json.dumps({"n": 3, "q": f"1/{10**4299 + 7}", "costs": ["0"] * 3, "function": "majority"}))
    for (command, *flags), mode in itertools.product(
        (("pivotal",), ("graph",), ("audit",), ("hcf", "--seed", "1")), ((), ("--json",))
    ):
        code, out, err = invoke(capsys, command, str(path), *flags, *mode)
        assert (code, out) == (2, ""), command
        assert err.startswith("error: output capped at 4300 digits")
    assert invoke(capsys, "verify", str(path))[0] == 0
    assert invoke(capsys, "deviate", str(path), "--agent", "1", "--action", "truthful")[0] == 0
    # A 1501-digit denominator: P takes 3001 digits and the threshold 4502, so
    # only the commands that print a threshold are turned away.
    path.write_text(json.dumps({"n": 3, "q": f"1/{10**1500 + 1}", "costs": ["0"] * 3, "function": "majority"}))
    for command, *flags in (("pivotal",), ("pivotal", "--json"), ("graph", "--json")):
        code, out, err = invoke(capsys, command, str(path), *flags)
        assert (code, out) == (2, ""), command
        assert err.startswith("error: output capped at 4300 digits")
    for command, *flags in (("graph",), ("oracle", "--mode", "pivotal"), ("oracle", "--mode", "pivotal", "--json")):
        code, out, err = invoke(capsys, command, str(path), *flags)
        assert (code, err) == (0, ""), command
    assert rational_text(Fraction(-(10**4300 - 1), 10**4300 - 1)) == "-1"
    assert len(rational_text(Fraction(1, 10**4300 - 1))) == 4302
    with pytest.raises(CapExceeded):
        rational_text(Fraction(10**4300))


def test_hcf_requires_secrets_or_seed(capsys):
    code = main(["hcf", EX2])
    capsys.readouterr()
    assert code == 2
