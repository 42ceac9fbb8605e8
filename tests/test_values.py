"""Invariants of the validated value types: what each rejects, immutability,
equality, ordering and representation."""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import seqelicit
from seqelicit.errors import BadFunctionTable, CostOutOfRange, MalformedDocument, QOutOfRange
from seqelicit.model import Action, AnonymousFunctionSpec, InfoState, ProblemInstance, Transcript, ingest, majority

HALF = Fraction(1, 2)
FN2 = AnonymousFunctionSpec(2, (False, True, True), "or")
INSTANCE_ARGS = (2, HALF, (Fraction(0), HALF), (2, 1), FN2, ("a", "b"))


def _instance(**changes) -> ProblemInstance:
    names = ("n", "q", "costs", "original_index", "fn_spec", "agent_ids")
    return ProblemInstance(**{**dict(zip(names, INSTANCE_ARGS)), **changes})


REJECTED = [
    ("state-ones-above-approached", lambda: InfoState(1, 2), ValueError),
    ("state-negative-ones", lambda: InfoState(0, -1), ValueError),
    ("state-str-ones", lambda: InfoState(1, "1"), TypeError),
    # A float state would reach `pivotal_prob`'s list indexing.
    ("state-float", lambda: InfoState(1.0, 0.0), TypeError),
    ("state-bool", lambda: InfoState(True, False), TypeError),
    ("state-bool-ones", lambda: InfoState(1, True), TypeError),
    ("state-fraction-approached", lambda: InfoState(Fraction(2), 1), TypeError),
    ("action-guess-by-secret", lambda: Action("guess-01", False, (0, 1)), ValueError),
    ("transcript-repeated-rank", lambda: Transcript(((1, 0), (1, 1))), ValueError),
    ("transcript-rank-0", lambda: Transcript(((0, 1),)), ValueError),
    ("transcript-bit-2", lambda: Transcript(((1, 2),)), ValueError),
    ("transcript-short-entry", lambda: Transcript(((1,),)), ValueError),
    ("transcript-flat-entries", lambda: Transcript((1, 2)), TypeError),
    ("transcript-float-entry", lambda: Transcript(((1.5, 0.0),)), TypeError),
    ("transcript-float-bit", lambda: Transcript(((1, 0.0),)), TypeError),
    ("transcript-fraction-rank", lambda: Transcript(((Fraction(3, 2), 1),)), TypeError),
    ("transcript-integral-fraction-rank", lambda: Transcript(((Fraction(2), 1),)), TypeError),
    ("transcript-bool-rank", lambda: Transcript(((True, 0),)), TypeError),
    ("function-n-0", lambda: AnonymousFunctionSpec(0, (True,)), BadFunctionTable),
    ("function-float-n", lambda: AnonymousFunctionSpec(2.0, (False, True, True)), BadFunctionTable),
    ("function-bool-n", lambda: AnonymousFunctionSpec(True, (False, True)), BadFunctionTable),
    ("function-fraction-n", lambda: AnonymousFunctionSpec(Fraction(2), (False, True, True)), BadFunctionTable),
    ("function-str-n", lambda: AnonymousFunctionSpec("2", (False, True, True)), BadFunctionTable),
    ("function-short-table", lambda: AnonymousFunctionSpec(2, (True, False)), BadFunctionTable),
    ("function-int-table", lambda: AnonymousFunctionSpec(1, (1, 0)), BadFunctionTable),
    ("instance-n-0", lambda: _instance(n=0), MalformedDocument),
    # `len(costs) == True` for one cost, and `emit` would write "n": true.
    ("instance-bool-n", lambda: ProblemInstance(True, HALF, (HALF,), (1,), majority(1), ("a",)), MalformedDocument),
    ("instance-float-n", lambda: _instance(n=2.0), MalformedDocument),
    ("instance-str-n", lambda: _instance(n="2"), MalformedDocument),
    ("instance-none-n", lambda: _instance(n=None), MalformedDocument),
    ("instance-float-q", lambda: _instance(q=0.5), QOutOfRange),
    ("instance-q-1", lambda: _instance(q=Fraction(1)), QOutOfRange),
    ("instance-cost-count", lambda: _instance(costs=(HALF,)), MalformedDocument),
    ("instance-none-costs", lambda: _instance(costs=None), MalformedDocument),
    ("instance-cost-1", lambda: _instance(costs=(Fraction(0), Fraction(1))), CostOutOfRange),
    ("instance-float-cost", lambda: _instance(costs=(Fraction(0), 0.25)), CostOutOfRange),
    ("instance-unsorted-costs", lambda: _instance(costs=(HALF, Fraction(0))), MalformedDocument),
    ("instance-index-not-permutation", lambda: _instance(original_index=(1, 1)), MalformedDocument),
    ("instance-none-index", lambda: _instance(original_index=None), MalformedDocument),
    ("instance-str-in-index", lambda: _instance(original_index=(1, "2")), MalformedDocument),
    ("instance-function-over-3", lambda: _instance(fn_spec=majority(3)), BadFunctionTable),
    ("instance-none-function", lambda: _instance(fn_spec=None), BadFunctionTable),
    ("instance-repeated-id", lambda: _instance(agent_ids=("a", "a")), MalformedDocument),
    ("instance-none-ids", lambda: _instance(agent_ids=None), MalformedDocument),
    # Ids that `ingest` rejects, so `emit` must never be handed them.
    ("instance-int-ids", lambda: _instance(agent_ids=(1, 2)), MalformedDocument),
    ("instance-empty-id", lambda: _instance(agent_ids=("", "b")), MalformedDocument),
    ("create-int-ids", lambda: ProblemInstance.create(HALF, [0, 0], FN2, [1, 2]), MalformedDocument),
    ("create-none-costs", lambda: ProblemInstance.create(HALF, None, FN2), MalformedDocument),
    ("create-int-for-ids", lambda: ProblemInstance.create(HALF, [0, 0], FN2, 5), MalformedDocument),
    # A string would iterate into the one-character ids ('a', 'b').
    ("create-str-ids", lambda: ProblemInstance.create(HALF, [0, 0], FN2, "ab"), MalformedDocument),
    ("create-float-q", lambda: ProblemInstance.create(0.4, [0, 0], FN2), QOutOfRange),
    ("create-bool-q", lambda: ProblemInstance.create(True, [0, 0], FN2), QOutOfRange),
    ("create-bool-cost", lambda: ProblemInstance.create(HALF, [False, 0], FN2), CostOutOfRange),
    ("create-float-cost", lambda: ProblemInstance.create(HALF, [0.25, 0], FN2), CostOutOfRange),
]


@pytest.mark.parametrize("build, error", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_each_type_rejects_bad_fields_with_its_error(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("n", ["x" * 100_000, -(10**5000)], ids=["long-str", "int-past-str-limit"])
def test_instance_clips_a_hostile_agent_count_in_its_message(n):
    # The whole repr of either would be the message: 100,002 characters, or
    # a ValueError from the interpreter's int-string limit.
    with pytest.raises(MalformedDocument, match="^agent count must be an integer >= 1, got ") as info:
        _instance(n=n)
    assert len(str(info.value)) < 100


def test_ingest_clips_a_hostile_agent_count_in_its_message():
    # A 4300-digit n is within the interpreter's int-string limit, so it
    # parses; echoed whole, the message ran to 4334 characters.
    document = '{"n": 1' + "0" * 4299 + ', "q": "1/2", "costs": ["0"], "function": "parity"}'
    with pytest.raises(MalformedDocument, match=r"^costs must be a list of 10{31}\.\.\.\(4300 chars\) rationals$"):
        ingest(document)


def test_valid_values_build_by_position_and_by_keyword():
    assert InfoState(approached=2, ones=0) == InfoState(2, 0)
    assert Transcript() == Transcript(entries=()) and Transcript().entries == ()
    # A bit may be a bool, as a secret of `run` may; a rank may not.
    assert Transcript(((2, True), (1, False))).entries == ((2, True), (1, False))
    assert AnonymousFunctionSpec(n=1, ones_to_one=(False, True)).name is None
    assert _instance() == ProblemInstance(*INSTANCE_ARGS)


@pytest.mark.parametrize(
    "value, names",
    [
        (InfoState(1, 0), ("approached", "ones")),
        (Action("truthful", True, (0, 1)), ("name", "compute", "replies")),
        (Transcript(((1, 0),)), ("entries",)),
        (FN2, ("n", "ones_to_one", "name")),
        (_instance(), ("n", "q", "costs", "original_index", "fn_spec", "agent_ids", "lattice", "_deviation_memo")),
    ],
    ids=["InfoState", "Action", "Transcript", "AnonymousFunctionSpec", "ProblemInstance"],
)
def test_no_field_can_be_assigned_or_deleted(value, names):
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


def test_function_spec_equality_and_hash_ignore_the_name():
    unnamed = AnonymousFunctionSpec(2, (False, True, True))
    assert FN2 == unnamed and not FN2 != unnamed
    assert hash(FN2) == hash(unnamed)
    assert FN2 != AnonymousFunctionSpec(2, (False, True, False), "or")
    assert len({FN2, unnamed}) == 1
    # A spec never equals a plain tuple, named or not, in either operand order.
    spec = majority(3)
    for plain in ((3, spec.ones_to_one, "majority"), (3, spec.ones_to_one, None)):
        assert not spec == plain and spec != plain
        assert not plain == spec and plain != spec
    # Nothing is kept beside the fields.
    assert not hasattr(FN2, "__dict__")


def test_info_state_orders_prints_and_reprs_as_before():
    states = [InfoState(2, 1), InfoState(0, 0), InfoState(2, 0), InfoState(1, 1)]
    assert sorted(states) == [InfoState(0, 0), InfoState(1, 1), InfoState(2, 0), InfoState(2, 1)]
    assert InfoState(1, 1) < InfoState(2, 0) <= InfoState(2, 0)
    assert str(InfoState(3, 1)) == "(3,1)"
    assert repr(InfoState(3, 1)) == "InfoState(approached=3, ones=1)"
    assert f"{InfoState(3, 1)}" == "(3,1)"


def test_problem_instance_hashes_weakrefs_and_keeps_the_lattice_out_of_its_repr():
    inst, twin = _instance(), _instance(fn_spec=AnonymousFunctionSpec(2, (False, True, True)))
    assert inst == twin and hash(inst) == hash(twin) and not inst != twin
    assert inst != _instance(agent_ids=("b", "a")) and inst != INSTANCE_ARGS
    assert weakref.ref(inst)() is inst
    assert inst.lattice is inst.lattice and inst.scaled_costs == (2, (0, 0, 1), (0, 1, 1))
    assert repr(inst) == (
        "ProblemInstance(n=2, q=Fraction(1, 2), costs=(Fraction(0, 1), Fraction(1, 2)), "
        "original_index=(2, 1), fn_spec=AnonymousFunctionSpec(n=2, ones_to_one=(False, True, True), "
        "name='or'), agent_ids=('a', 'b'))"
    )
    with pytest.raises(AttributeError):
        inst.extra = 1


def test_no_source_path_builds_a_validated_type_past_its_checks():
    # NamedTuple's `_make` and `_replace` build through tuple.__new__ and skip
    # the checks in a validated type's __new__.
    assert InfoState._make((1, 2)) == (1, 2)
    src = Path(seqelicit.__file__).resolve().parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\._(make|replace)\b", text)
    ]
    assert offenders == []


def test_only_run_builds_a_transcript_past_its_checks():
    # `run` builds its transcript through `tuple.__new__`, which skips the
    # checks for steps the executor has checked already; no other source
    # path may.
    src = Path(seqelicit.__file__).resolve().parent
    users = [
        path.name
        for path in sorted(src.glob("*.py"))
        for text in path.read_text().splitlines()
        if "__new__(Transcript" in text
    ]
    assert users == ["mechanism.py"]
