"""Ingestion, validation, normalization, and the domain-type invariants."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_instance, random_instance
from seqelicit.errors import (
    BadFunctionTable,
    CostOutOfRange,
    MalformedDocument,
    QOutOfRange,
)
from seqelicit.graph import nodes
from seqelicit.model import (
    ACTION_NAMES,
    ALL_ACTIONS,
    Action,
    AnonymousFunctionSpec,
    GUESS_ONE,
    InfoState,
    ProblemInstance,
    Report,
    Transcript,
    consensus,
    emit,
    from_ones_counts,
    ingest,
    majority,
    normalize_low_q,
    parity,
    unanimity,
)
from seqelicit.oracle import brute_pivotal
from seqelicit.pivotal import c_of, pivotal_prob, threshold
from seqelicit.verify import exists_appropriate


def test_ingest_consensus_example():
    doc = {"n": 4, "q": "1/2", "costs": ["0", "0", "0", "2/5"], "function": "consensus"}
    inst = ingest(doc)
    assert inst.fn_spec.ones_counts == (0, 4)
    assert inst.costs == (Fraction(0), Fraction(0), Fraction(0), Fraction(2, 5))
    assert inst.q == Fraction(1, 2)


def test_ingest_majority_example():
    doc = {"n": 11, "q": "1/2", "costs": ["2/5"] * 11, "function": "majority"}
    inst = ingest(doc)
    assert inst.fn_spec.ones_counts == tuple(range(6, 12))


def test_ingest_constant_table():
    doc = {
        "n": 2,
        "q": "1/2",
        "costs": ["1/10", "1/10"],
        "function": {"ones_counts": [0, 1, 2]},
    }
    inst = ingest(doc)
    assert inst.fn_spec.is_constant


def test_ingest_json_text_and_integer_strings():
    text = json.dumps(
        {"n": 2, "q": "1/2", "costs": ["0", 0], "function": {"ones_counts": [1]}}
    )
    inst = ingest(text)
    assert inst.costs == (Fraction(0), Fraction(0))


def test_values_folded_into_costs():
    doc = {
        "n": 2,
        "q": "1/2",
        "costs": ["1/2", "3"],
        "values": ["2", "4"],
        "function": "parity",
    }
    inst = ingest(doc)
    assert inst.costs == (Fraction(1, 4), Fraction(3, 4))


def test_shortcut_expansions():
    assert majority(4).ones_counts == (3, 4)
    assert consensus(5).ones_counts == (0, 5)
    assert parity(4).ones_counts == (1, 3)
    assert unanimity(3).ones_counts == (3,)


@pytest.mark.parametrize(
    "q,exc",
    [("1", QOutOfRange), ("0", QOutOfRange), ("1/3", QOutOfRange), ("5/4", QOutOfRange)],
)
def test_q_range_rejected(q, exc):
    doc = {"n": 2, "q": q, "costs": ["0", "0"], "function": "parity"}
    with pytest.raises(exc):
        ingest(doc)


def test_low_q_accepted_with_normalize():
    doc = {"n": 2, "q": "1/3", "costs": ["0", "0"], "function": "parity"}
    inst = ingest(doc, normalize=True)
    assert inst.q == Fraction(2, 3)


@pytest.mark.parametrize("cost", ["1", "3/2", "-1/4"])
def test_cost_range_rejected(cost):
    doc = {"n": 1, "q": "1/2", "costs": [cost], "function": "unanimity"}
    with pytest.raises(CostOutOfRange):
        ingest(doc)


@pytest.mark.parametrize(
    "doc",
    [
        "not json {",
        {"n": 2, "q": "1/2", "costs": ["0", "0"]},
        {"n": 2, "q": "1/2", "costs": ["0"], "function": "parity"},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": "nope"},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": "parity", "extra": 1},
        {"n": 2, "q": 0.5, "costs": ["0", "0"], "function": "parity"},
        {"n": 2, "q": "1/2", "costs": [0.1, "0"], "function": "parity"},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": {"ones_counts": [1], "x": 2}},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": "parity", "agent_ids": ["a", "a"]},
        {"n": "2", "q": "1/2", "costs": ["0", "0"], "function": "parity"},
    ],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(MalformedDocument):
        ingest(doc)


def test_decimal_strings_accepted():
    inst = ingest({"n": 2, "q": "0.5", "costs": ["0.25", "1/8"], "function": "parity"})
    assert inst.q == Fraction(1, 2)
    assert inst.costs == (Fraction(1, 8), Fraction(1, 4))


@pytest.mark.parametrize("text", ["1e-1000000", "1E-10000000", "2.5e-1", "1/1e3"])
def test_exponent_notation_rejected(text):
    with pytest.raises(MalformedDocument, match="exponent"):
        ingest({"n": 1, "q": "1/2", "costs": [text], "function": "unanimity"})
    with pytest.raises(MalformedDocument, match="exponent"):
        ingest({"n": 1, "q": text, "costs": ["0"], "function": "unanimity"})


def test_bad_function_table():
    with pytest.raises(BadFunctionTable):
        ingest({"n": 2, "q": "1/2", "costs": ["0", "0"], "function": {"ones_counts": [3]}})
    with pytest.raises(BadFunctionTable):
        AnonymousFunctionSpec(2, (True, False))
    with pytest.raises(BadFunctionTable):
        from_ones_counts(2, [0, 0])


def test_round_trip_examples():
    for path_doc in (
        {"n": 4, "q": "1/2", "costs": ["0", "0", "0", "2/5"], "function": "consensus"},
        {"n": 3, "q": "3/4", "costs": ["1/64", "0", "5/8"], "function": {"ones_counts": [0, 2]}},
        {
            "n": 2,
            "q": "1/2",
            "costs": ["1/10", "1/10"],
            "agent_ids": ["left", "right"],
            "function": "parity",
        },
    ):
        inst = ingest(path_doc)
        assert ingest(emit(inst)) == inst


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_round_trip_random(n, rng):
    inst = random_instance(rng, n)
    again = ingest(emit(inst))
    assert again == inst
    assert again.fn_spec.ones_to_one == inst.fn_spec.ones_to_one


def test_sorting_and_original_index():
    inst = make_instance(
        "1/2",
        ["2/5", "0", "1/4"],
        [True, False, False, True],
        agent_ids=("a", "b", "c"),
    )
    assert inst.costs == (Fraction(0), Fraction(1, 4), Fraction(2, 5))
    assert inst.original_index == (2, 3, 1)
    assert inst.agent_id_of_rank(1) == "b"
    assert inst.agent_id_of_rank(3) == "a"
    assert inst.rank_of_agent_id("c") == 2
    assert inst.user_costs() == (Fraction(2, 5), Fraction(0), Fraction(1, 4))


def test_permutation_of_agents_only_moves_original_index():
    table = [True, False, True, False]
    a = make_instance("3/5", ["1/8", "1/2", "0"], table)
    b = make_instance("3/5", ["0", "1/8", "1/2"], table)
    assert a.costs == b.costs
    assert a.original_index != b.original_index
    assert exists_appropriate(a) == exists_appropriate(b)
    assert nodes(a) == nodes(b)

    def labels(inst):
        return [(pivotal_prob(s, inst), threshold(s, inst), c_of(s, inst)) for s in nodes(inst)]

    assert labels(a) == labels(b)


def test_equal_cost_agents_are_interchangeable():
    table = [False, True, True, False, True]
    base = make_instance("1/2", ["1/4", "1/4", "1/4", "3/8"], table)
    swapped = make_instance("1/2", ["1/4", "1/4", "3/8", "1/4"], table)
    assert exists_appropriate(base) == exists_appropriate(swapped)


def test_normalize_low_q_consensus_symmetric():
    inst = make_instance("1/3", ["0", "0", "0", "0"], [True, False, False, False, True],
                         name="consensus")
    mirrored = normalize_low_q(inst)
    assert mirrored.q == Fraction(2, 3)
    assert mirrored.fn_spec.ones_counts == (0, 4)
    assert mirrored.fn_spec.name == "consensus"


def test_normalize_low_q_complements_indices():
    inst = make_instance("1/4", ["0"] * 5, [False, False, False, True, True, True])
    mirrored = normalize_low_q(inst)
    assert mirrored.q == Fraction(3, 4)
    assert mirrored.fn_spec.ones_counts == (0, 1, 2)


def test_normalize_identity_when_q_high():
    inst = make_instance("3/5", ["0", "0"], [True, False, True])
    assert normalize_low_q(inst) is inst


def test_normalize_low_q_preserves_pivotalness_at_mirrored_states():
    # Brute-force enumeration on n <= 6: P at (i, k) before the mirror equals
    # P at (i, i-k) after it.
    import random as _random

    rng = _random.Random(7)
    for n in range(2, 7):
        table = tuple(rng.random() < 0.5 for _ in range(n + 1))
        low = make_instance(Fraction(1, 5), [Fraction(rng.randrange(64), 64) for _ in range(n)], table)
        high = normalize_low_q(low)
        for i in range(n):
            for k in range(i + 1):
                assert brute_pivotal(InfoState(i, k), low) == brute_pivotal(
                    InfoState(i, i - k), high
                )


def test_exactly_six_actions():
    assert len(ALL_ACTIONS) == len(set(ALL_ACTIONS)) == 6
    assert len(ACTION_NAMES) == 6
    with pytest.raises(ValueError):
        Action(False, Report.TRUTHFUL)
    with pytest.raises(ValueError):
        Action(False, Report.NEGATED)


def test_action_replies():
    assert GUESS_ONE.reply(0) == 1
    assert Action(True, Report.TRUTHFUL).reply(0) == 0
    assert Action(True, Report.NEGATED).reply(0) == 1
    assert Action(True, Report.ZERO).reply(1) == 0


def test_transcript_state_and_no_duplicates():
    t = Transcript(((3, 1), (1, 0)))
    assert t.state == InfoState(2, 1)
    with pytest.raises(ValueError):
        Transcript(t.entries + ((3, 0),))
    with pytest.raises(ValueError):
        Transcript(((1, 2),))


def test_info_state_validation():
    with pytest.raises(ValueError):
        InfoState(1, 2)
    assert str(InfoState(3, 1)) == "(3,1)"


def test_instance_direct_validation():
    fn = parity(2)
    with pytest.raises(QOutOfRange):
        ProblemInstance.create(Fraction(0), (Fraction(0), Fraction(0)), fn)
    with pytest.raises(CostOutOfRange):
        ProblemInstance.create(Fraction(1, 2), (0.5, 0.5), fn)
    with pytest.raises(BadFunctionTable):
        ProblemInstance.create(Fraction(1, 2), (Fraction(0),), fn)
