"""Ingestion, validation, cost normalization, the mirror, and the domain-type invariants."""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_instance, random_instance
from seqelicit.errors import (
    BadFunctionTable,
    CapExceeded,
    CostOutOfRange,
    MalformedDocument,
    QOutOfRange,
)
from seqelicit.model import (
    _as_pair,
    _clip,
    ACTION_NAMES,
    ALL_ACTIONS,
    Action,
    AnonymousFunctionSpec,
    COMPUTE_NEGATED,
    COMPUTE_REPORT_ZERO,
    GUESS_ONE,
    InfoState,
    ProblemInstance,
    TRUTHFUL_COMPUTE,
    Transcript,
    consensus,
    emit,
    from_ones_counts,
    ingest,
    majority,
    parity,
    unanimity,
)
from seqelicit.oracle import brute_pivotal, full_lattice, mirror
from seqelicit.pivotal import c_of, nodes, pivotal_prob, threshold
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
    assert nodes(inst) == []


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


@pytest.mark.parametrize("seed", range(6))
def test_values_fold_like_one_division_per_agent(seed):
    # Equal rationals spelled apart ("1/8", "2/16", "0.125") and repeated
    # pairs; the costs must be those of dividing agent by agent.
    rng = random.Random(9100 + seed)
    n = rng.randrange(1, 40)
    costs = [rng.choice(["0", 0, "1/8", "2/16", "0.125", "3/7", "6/14", "1/3"]) for _ in range(n)]
    values = [rng.choice(["1", 1, "3/2", "1.5", "6/4", "2", 3]) for _ in range(n)]
    doc = {"n": n, "q": "1/2", "costs": costs, "values": values, "function": "parity"}
    divided = [Fraction(c) / Fraction(v) for c, v in zip(costs, values)]
    inst = ingest(doc)
    assert inst.user_costs() == tuple(divided)
    doc.pop("values")
    assert inst == ingest({**doc, "costs": list(map(str, divided))})


def test_shortcut_expansions():
    assert majority(4).ones_counts == (3, 4)
    assert consensus(5).ones_counts == (0, 5)
    assert parity(4).ones_counts == (1, 3)
    assert unanimity(3).ones_counts == (3,)


@pytest.mark.parametrize(
    "q,exc",
    [("1", QOutOfRange), ("0", QOutOfRange), ("5/4", QOutOfRange)],
)
def test_q_range_rejected(q, exc):
    doc = {"n": 2, "q": q, "costs": ["0", "0"], "function": "parity"}
    with pytest.raises(exc):
        ingest(doc)


def test_low_q_accepted_natively():
    doc = {"n": 3, "q": "1/3", "costs": ["0", "0", "0"], "function": "majority"}
    inst = ingest(doc)
    assert inst.q == Fraction(1, 3)
    assert inst.fn_spec == majority(3)
    assert ingest(emit(inst)) == inst


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
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "values": ["1"], "function": "parity"},
        # A zero value is rejected before a cost is divided by it.
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "values": ["1", "0"], "function": "parity"},
        '[2, "1/2"]',
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": 3},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": {"ones_counts": "12"}},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": {"ones_counts": ["1"]}},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": {"ones_counts": [True]}},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": "parity", "agent_ids": "ab"},
        {"n": 2, "q": "1/2", "costs": ["0", "0"], "function": "parity", "agent_ids": {"a": 1, "b": 2}},
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


@pytest.mark.parametrize("digits", [4300, 4301])
def test_rational_strings_are_bounded_at_4300_digits(digits):
    # The bound of Python 3.11+'s int(), on every version: numerator and
    # denominator are each checked.
    numerator = "0" * (digits - 1) + "1"
    denominator = "9" * digits
    for cost, value in ((f"{numerator}/2", Fraction(1, 2)), (f"1/{denominator}", Fraction(1, 10**digits - 1))):
        doc = {"n": 1, "q": "1/2", "costs": [cost], "function": "unanimity"}
        if digits > 4300:
            with pytest.raises(MalformedDocument, match=r"^costs\[0\]: more than 4300 digits in "):
                ingest(doc)
        else:
            assert ingest(doc).costs == (value,)


@pytest.mark.parametrize("digits", [4300, 4301])
def test_json_integer_literals_are_bounded_at_4300_digits(digits):
    # Cost 1 over the value keeps the fold's denominator at the literal's
    # digits; "1/2" would double it past the bound (see the fold tests below).
    text = '{"n": 1, "q": "1/2", "costs": ["1"], "values": [' + "9" * digits + '], "function": "unanimity"}'
    if digits > 4300:
        with pytest.raises(MalformedDocument, match=r"^integer literal 9{32}\.\.\.\(4301 chars\) has more than 4300"):
            ingest(text)
    else:
        assert ingest(text).costs == (Fraction(1, 10**digits - 1),)


def _round_trips(inst) -> None:
    """`inst` prints, and its canonical document reads back as `inst`."""
    assert repr(inst).startswith("ProblemInstance(")
    assert ingest(json.dumps(emit(inst))) == inst


def _decimal(places: int) -> str:
    return "0." + "0" * (places - 1) + "1"


def test_an_instance_keeps_no_decimal_past_the_digit_bound():
    # Each digit run of a 4300-place decimal passes the grammar, but its
    # denominator, 10**4300, has 4301 digits: kept, it would not print.
    for field, places in itertools.product(("q", "costs"), (4299, 4300)):
        doc = {"n": 2, "q": "1/2", "costs": ["0", "1/3"], "function": "parity"}
        if field == "q":
            doc["q"] = _decimal(places)
        else:
            doc["costs"][1] = _decimal(places)
        if places > 4299:
            with pytest.raises(CapExceeded, match="^(prior|costs) capped at 4300 digits per integer"):
                ingest(doc)
        else:
            _round_trips(ingest(doc))


def test_a_values_fold_is_refused_just_past_the_digit_bound():
    # cost 1/2 over value V: denominator 2V, which is 10**4300 - 2 for
    # V = 49...9 and 10**4300 for V = 50...0, each V 4300 digits.
    doc = {"n": 2, "q": "1/2", "costs": ["0", "1/2"], "values": ["1", "4" + "9" * 4299], "function": "majority"}
    inst = ingest(doc)
    assert inst.costs[1] == Fraction(1, 10**4300 - 2)
    _round_trips(inst)
    doc["values"][1] = "5" + "0" * 4299
    with pytest.raises(CapExceeded, match="^costs capped at 4300 digits per integer"):
        ingest(doc)


def test_create_and_a_direct_construction_refuse_a_denominator_past_the_bound():
    long = Fraction(1, 10**4300)
    fields = {"n": 2, "q": Fraction(1, 2), "costs": (Fraction(0), Fraction(1, 3)), "original_index": (1, 2),
              "fn_spec": parity(2), "agent_ids": ("1", "2")}
    for change in ({"q": long}, {"costs": (Fraction(0), long)}):
        with pytest.raises(CapExceeded, match="capped at 4300 digits per integer"):
            ProblemInstance(**{**fields, **change})
    for q, costs in ((long, ["0", "1/3"]), (_decimal(4300), ["0", "1/3"]), ("1/2", [long, "0"]), ("1/2", ["0", _decimal(4300)])):
        with pytest.raises(CapExceeded, match="capped at 4300 digits per integer"):
            ProblemInstance.create(q, costs, parity(2))
    inst = ProblemInstance.create(Fraction(1, 10**4300 - 1), [Fraction(1, 10**4300 - 1), "0"], parity(2))
    _round_trips(inst)


def test_near_bound_documents_are_refused_or_round_trip():
    # Seeded documents whose integers sit near the 4300-digit bound: 4296 to
    # 4300 decimal places, folds whose cost and value denominators together
    # run to about 4300 digits, and "1/D" with D of 20 to 4300 digits. Each
    # is refused with the package's CapExceeded exactly when a kept
    # denominator would reach 10**4300; the rest print and read back.
    rng = random.Random(52)
    outcomes = set()

    def digits(count: int) -> int:
        return rng.randrange(10 ** (count - 1), 10**count)

    for _ in range(40):
        n = rng.randint(1, 3)
        kind = rng.choice(("decimal", "fold", "integer"))
        q_den = digits(rng.randint(20, 4300))
        q_text, q = f"1/{q_den}", Fraction(1, q_den)
        if kind == "decimal":
            # A last digit of 2 or 5 takes one digit off the reduced denominator.
            places = rng.randint(4296, 4300)
            tail = digits(rng.randint(1, places - 1)) * 10 + rng.choice((1, 2, 5, 7))
            text = f"0.{tail:0{places}d}"
            costs_text, costs = [text] * n, [Fraction(tail, 10**places)] * n
            q_text, q = text, costs[0]
        else:
            dens = [digits(rng.randint(20, 4300)) for _ in range(n)]
            costs_text, costs = [f"1/{d}" for d in dens], [Fraction(1, d) for d in dens]
        doc = {"n": n, "q": q_text, "costs": costs_text, "function": rng.choice(("majority", "parity"))}
        if kind == "fold":
            values = [digits(max(1, 4300 - len(str(d)) + rng.randint(-1, 2))) for d in dens]
            doc["values"] = list(map(str, values))
            costs = [c / v for c, v in zip(costs, values)]
        refused = any(f.denominator >= 10**4300 for f in (q, *costs))
        outcomes.add((kind, refused))
        try:
            inst = ingest(doc)
        except CapExceeded:
            assert refused, kind
            continue
        assert not refused, kind
        assert inst.q == q and sorted(inst.costs) == sorted(costs)
        _round_trips(inst)
    assert outcomes == {("decimal", False), ("decimal", True), ("fold", False), ("fold", True), ("integer", False)}


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


@settings(max_examples=60, deadline=None, derandomize=True)
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


@st.composite
def spelled_costs(draw):
    """Costs from a few values in [0, 1), so ties are common, each spelled as
    a reduced or unreduced string, a Fraction, or (for 0) an int."""
    value = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 8), Fraction(5, 6))))
    scale = draw(st.integers(1, 4))
    spellings = [str(value), f"{value.numerator * scale}/{value.denominator * scale}", value]
    return draw(st.sampled_from(spellings + [0] * (value == 0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(spelled_costs(), min_size=1, max_size=30))
def test_create_sorts_like_a_stable_fraction_sort(costs):
    order = sorted(range(len(costs)), key=lambda p: Fraction(costs[p]))
    inst = ProblemInstance.create(Fraction(1, 2), costs, parity(len(costs)))
    assert inst.costs == tuple(Fraction(costs[p]) for p in order)
    assert inst.original_index == tuple(p + 1 for p in order)


def test_direct_construction_checks_sortedness_exactly():
    fn = parity(2)
    equal = ProblemInstance(2, Fraction(1, 2), (Fraction(1, 2), Fraction(2, 4)), (1, 2), fn, ("a", "b"))
    assert equal.costs == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(MalformedDocument, match="costs must be sorted ascending"):
        ProblemInstance(2, Fraction(1, 2), (Fraction(1, 2), Fraction(1, 3)), (1, 2), fn, ("a", "b"))
    with pytest.raises(CostOutOfRange, match=r"normalized cost 1 outside \[0, 1\)"):
        ProblemInstance(2, Fraction(1, 2), (Fraction(0), Fraction(1)), (1, 2), fn, ("a", "b"))


def test_ingest_reports_the_first_bad_cost():
    doc = {"n": 4, "q": "1/2", "costs": ["1/2", "x", "1/2", "x"], "function": "parity"}
    with pytest.raises(MalformedDocument, match=r"^costs\[1\]: cannot parse rational 'x'$"):
        ingest(doc)
    doc["costs"] = ["1/2", "1", "1/2", "3/2"]
    with pytest.raises(CostOutOfRange, match=r"^normalized cost 1 outside"):
        ingest(doc)
    # Costs that parse are range-checked in sorted order: the least is reported.
    doc["costs"] = ["1/2", "2", "1/2", "-1"]
    with pytest.raises(CostOutOfRange, match=r"^normalized cost -1 outside"):
        ingest(doc)
    # q's range is checked only once every cost has parsed.
    with pytest.raises(MalformedDocument, match=r"^costs\[1\]: cannot parse rational 'x'$"):
        ingest({**doc, "q": "3/2", "costs": ["1/2", "x", "1/2", "x"]})
    # A boolean is never read from the memo of an equal-looking string or int.
    doc["costs"] = ["1", 0, True, 0]
    with pytest.raises(MalformedDocument, match=r"^costs\[2\]: expected a rational, got a boolean$"):
        ingest(doc)


# Fraction(str) reads digit separators on 3.11+ and whitespace around the
# slash on 3.12+; the rational grammar has neither, on every version, in a
# document or in a string handed to `ProblemInstance.create`.
CROSS_VERSION_FORMS = ["1/1_000", "1_0/100", "0.2_5", "0_1/2", "1 /2", "1/ 2", "1 / 2", "1\t/2", "٣ /8"]


@pytest.mark.parametrize("text", CROSS_VERSION_FORMS)
def test_digit_separators_and_spaced_slashes_are_rejected_on_every_python(text):
    unparsable = rf"cannot parse rational {re.escape(repr(text))}$"
    doc = {"n": 1, "q": "1/2", "costs": [text], "function": "unanimity"}
    with pytest.raises(MalformedDocument, match=rf"^costs\[0\]: {unparsable}"):
        ingest(doc)
    with pytest.raises(MalformedDocument, match=rf"^costs\[0\]: {unparsable}"):
        ProblemInstance.create(Fraction(1, 2), [text], majority(1))
    with pytest.raises(MalformedDocument, match=rf"^q: {unparsable}"):
        ProblemInstance.create(text, [0], majority(1))


def test_rational_forms_read_alike_on_every_python():
    spelled = {
        "\t2/4\n": Fraction(1, 2),
        "+3/8": Fraction(3, 8),
        "-0": Fraction(0),
        ".25": Fraction(1, 4),
        "0.": Fraction(0),
        " 0.2500 ": Fraction(1, 4),
        "007/056": Fraction(1, 8),
        "٣/٨": Fraction(3, 8),
        "٠.٥": Fraction(1, 2),
    }
    doc = {"n": len(spelled), "q": "+0.5", "costs": list(spelled), "function": "parity"}
    inst = ingest(doc)
    assert inst.q == Fraction(1, 2)
    assert inst.user_costs() == tuple(spelled.values())


def _reading(text: str):
    """What ingestion makes of `text`: a Fraction, or the error's message."""
    try:
        return Fraction(*_as_pair(text, "x"))
    except MalformedDocument as exc:
        return str(exc)


rational_texts = st.one_of(
    st.text(alphabet="0123456789/._+-eE \t٣", max_size=10),
    st.lists(st.sampled_from(["0", "1", "7", "12", "٣", "/", ".", "_", "+", "-", "e", " ", "\t"]), max_size=8).map(
        "".join
    ),
    # A run of digits right at the 4300-digit bound or past it, inside drawn text.
    st.builds(
        lambda head, digits, tail: f"{head}{'3' * digits}{tail}",
        st.sampled_from(["", "0.", "1/", "-", "1_"]),
        st.sampled_from([4300, 4301]),
        st.sampled_from(["", "/7", ".5", "e1", " "]),
    ),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rational_texts)
def test_the_rational_grammar_matches_fraction_outside_the_cross_version_forms(text):
    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    reading = _reading(text)
    if "e" in text or "E" in text:
        assert reading == f"x: exponent notation is not accepted in {_clip(repr(text))}"
    elif digits > 4300:
        assert reading == f"x: more than 4300 digits in {_clip(repr(text))}"
    else:
        try:
            cross_version = "_" in text or re.search(r"\s/|/\s", text)
            expected = None if cross_version else Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        if expected is None:
            assert reading == f"x: cannot parse rational {_clip(repr(text))}"
        else:
            assert type(reading) is Fraction and reading == expected


def test_create_reads_iterator_arguments_once():
    inst = ProblemInstance.create(Fraction(1, 2), (Fraction(k, 8) for k in (2, 0, 1)), parity(3), iter("abc"))
    assert inst.costs == (Fraction(0), Fraction(1, 8), Fraction(1, 4))
    assert inst.original_index == (2, 3, 1)
    assert inst.agent_ids == ("a", "b", "c")


def _farey_neighbour(x: Fraction) -> Fraction:
    """The fraction c/d just below x = a/b, for 0 < x < 1, with d < b and
    ad - bc = 1, so the two differ by 1/(bd), the least gap their
    denominators allow."""
    a, b = x.as_integer_ratio()
    d = pow(a, -1, b)
    return Fraction((a * d - 1) // b, d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.fractions(0, 1, max_denominator=2**80), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_create_orders_the_closest_fractions_exactly(drawn, rng):
    costs = [c for x in drawn if 0 < x < 1 for c in (x, _farey_neighbour(x))] or [Fraction(0)]
    costs = [*costs, *costs[: len(costs) // 2]]
    rng.shuffle(costs)
    order = sorted(range(len(costs)), key=costs.__getitem__)
    inst = ProblemInstance.create(Fraction(1, 2), costs, parity(len(costs)))
    assert inst.original_index == tuple(p + 1 for p in order)


def test_direct_construction_checks_every_run_of_repeated_costs():
    x, y = Fraction(1, 2), Fraction(1, 4)
    twin = Fraction(2, 4)  # equal to x, another object
    assert twin == x and twin is not x

    def build(costs):
        n = len(costs)
        return ProblemInstance(n, Fraction(1, 2), costs, tuple(range(1, n + 1)), parity(n), ("a", "b", "c")[:n])

    for costs in ((x, x, y), (x, twin, y), (y, x, y)):
        with pytest.raises(MalformedDocument, match=r"^costs must be sorted ascending$"):
            build(costs)
    for costs in ((x, x, Fraction(1)), (x, twin, Fraction(1))):
        with pytest.raises(CostOutOfRange, match=r"^normalized cost 1 outside \[0, 1\)$"):
            build(costs)
    with pytest.raises(CostOutOfRange, match=r"^normalized cost 0.75 outside \[0, 1\)$"):
        build((x, x, 0.75))
    for costs in ((None, y), (None,), (None, None, x)):
        with pytest.raises(CostOutOfRange, match=r"^normalized cost None outside \[0, 1\)$"):
            build(costs)
    assert build((y, x, twin)) == build((y, x, x))


def test_mirror_of_a_low_q_document_equals_its_high_q_twin():
    doc = {"n": 2, "q": "1/3", "costs": ["0", "1/4"], "function": "consensus"}
    mirrored = mirror(ingest(doc))
    assert mirrored.q == Fraction(2, 3)
    doc["q"] = "2/3"
    plain = ingest(doc)
    assert plain == mirrored and hash(plain) == hash(mirrored)


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


def test_mirror_consensus_is_symmetric():
    inst = make_instance("1/3", ["0", "0", "0", "0"], [True, False, False, False, True],
                         name="consensus")
    mirrored = mirror(inst)
    assert mirrored.q == Fraction(2, 3)
    assert mirrored.fn_spec.ones_counts == (0, 4)
    assert mirrored.fn_spec.name == "consensus"


def test_mirror_complements_indices():
    inst = make_instance("1/4", ["0"] * 5, [False, False, False, True, True, True])
    mirrored = mirror(inst)
    assert mirrored.q == Fraction(3, 4)
    assert mirrored.fn_spec.ones_counts == (0, 1, 2)


def test_mirror_is_an_involution_at_any_q():
    inst = make_instance("3/5", ["0", "1/8"], [True, True, False], name="x")
    mirrored = mirror(inst)
    assert mirrored.q == Fraction(2, 5)
    assert mirrored.fn_spec.ones_counts == (1, 2) and mirrored.fn_spec.name is None
    assert mirror(mirrored) == inst


def test_mirror_preserves_pivotalness_at_mirrored_states():
    # Brute-force enumeration on n <= 6: P at (i, k) before the mirror equals
    # P at (i, i-k) after it.
    import random as _random

    rng = _random.Random(7)
    for n in range(2, 7):
        table = tuple(rng.random() < 0.5 for _ in range(n + 1))
        low = make_instance(Fraction(1, 5), [Fraction(rng.randrange(64), 64) for _ in range(n)], table)
        high = mirror(low)
        for i in range(n):
            for k in range(i + 1):
                assert brute_pivotal(InfoState(i, k), low) == brute_pivotal(
                    InfoState(i, i - k), high
                )


def test_exactly_six_actions():
    assert len(ALL_ACTIONS) == len(set(ALL_ACTIONS)) == 6
    assert len(ACTION_NAMES) == 6
    assert list(ACTION_NAMES) == ["guess-0", "guess-1", "compute-0", "compute-1", "truthful", "lie"]
    assert list(ACTION_NAMES.values()) == list(ALL_ACTIONS)
    with pytest.raises(ValueError):
        Action("truthful-guess", False, (0, 1))
    with pytest.raises(ValueError):
        Action("negated-guess", False, (1, 0))


def test_action_replies():
    assert GUESS_ONE.reply(0) == 1
    assert TRUTHFUL_COMPUTE.reply(0) == 0
    assert COMPUTE_NEGATED.reply(0) == 1
    assert COMPUTE_REPORT_ZERO.reply(1) == 0
    assert Action("truthful", True, (0, 1)) == TRUTHFUL_COMPUTE
    assert [a.replies for a in ALL_ACTIONS] == [(0, 0), (1, 1), (0, 0), (1, 1), (0, 1), (1, 0)]


def test_transcript_state_and_no_duplicates():
    t = Transcript(((3, 1), (1, 0)))
    assert t.entries == ((3, 1), (1, 0))
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


# The one-pass build of `create` and `ingest` against their definition: each
# entry read on its own, a stable sort by value, and a direct
# `ProblemInstance(...)` on the sorted fields, which runs every check.
def _by_definition(q, costs, fn_spec, agent_ids):
    n = len(costs)
    order = sorted(range(n), key=costs.__getitem__)
    ids = tuple(map(str, range(1, n + 1))) if agent_ids is None else tuple(agent_ids)
    return ProblemInstance(n, q, tuple(costs[p] for p in order), tuple(p + 1 for p in order), fn_spec, ids)


def _ingest_by_definition(document):
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        document = json.loads(document)
    except ValueError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    n = document["n"]
    if n < 1:
        raise MalformedDocument("n must be an integer >= 1")
    q = Fraction(*_as_pair(document["q"], "q"))
    costs = [Fraction(*_as_pair(c, f"costs[{p}]")) for p, c in enumerate(document["costs"])]
    agent_ids = document.get("agent_ids")
    if isinstance(agent_ids, str):
        raise MalformedDocument("agent_ids must be n distinct nonempty strings")
    fn = {"majority": majority, "parity": parity, "consensus": consensus}[document["function"]](n)
    return _by_definition(q, costs, fn, agent_ids)


def _create_by_definition(q, costs, fn_spec, agent_ids=None):
    q = q if isinstance(q, Fraction) else Fraction(*_as_pair(q, "q"))
    if any(isinstance(c, (bool, float)) for c in costs):
        raise CostOutOfRange("costs must be exact rationals, not floats or booleans")
    costs = [c if isinstance(c, Fraction) else Fraction(*_as_pair(c, f"costs[{p}]")) for p, c in enumerate(costs)]
    if isinstance(agent_ids, str):
        raise MalformedDocument("agent_ids must be n distinct nonempty strings")
    return _by_definition(q, costs, fn_spec, agent_ids)


def _result(build, *args):
    """The instance `build` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001  (any exception is compared)
        return type(exc), str(exc)


class _SubclassSpec(AnonymousFunctionSpec):
    __slots__ = ()


_SPELLINGS = ("0", 0, "1/2", "2/4", " 0.5 ", "1/3", "3/7", "6/14", "0.25", ".125", "5/64", "63/64", "1/64")
# Each cost fault as a document entry and as a `create` argument.
_COST_FAULTS = {"negative": "-1/4", "one": "1", "above one": "3/2", "float": 0.5, "bool": True, "null": None}
_AT = {"first": 0, "middle": 0.5, "last": 1}


def _draws(seed: int):
    """Seeded (kind, q, costs, function name, agent ids) drafts, valid and
    hostile: every cost fault at the first, a middle and the last sorted
    position, q out of range, n = 0, and faulty agent ids."""
    rng = random.Random(seed)

    def valid(n):
        ids = [f"a{p}" for p in range(n)] if rng.random() < 0.5 else None
        return "1/2" if rng.random() < 0.5 else "3/5", [rng.choice(_SPELLINGS) for _ in range(n)], ids

    for _ in range(40):
        yield ("valid", *valid(rng.randrange(1, 13)))
    for fault, bad in _COST_FAULTS.items():
        for at, share in _AT.items():
            for _ in range(3):
                q, costs, ids = valid(rng.randrange(3, 13))
                order = sorted(range(len(costs)), key=lambda p: Fraction(costs[p]))
                costs[order[round(share * (len(costs) - 1))]] = bad
                yield (f"cost {fault} {at}", q, costs, ids)
    for bad_q in ("0", "1", "3/2", "-1/2", "x"):
        yield ("q", bad_q, *valid(rng.randrange(1, 13))[1:])
    yield ("n = 0", "1/2", [], None)
    for fault in ("duplicate", "empty", "non-string", "string", "short"):
        q, costs, _ = valid(rng.randrange(2, 13))
        ids = [f"a{p}" for p in range(len(costs))]
        middle = len(ids) // 2
        ids = {
            "duplicate": ids[:-1] + ids[:1],
            "empty": ids[:middle] + [""] + ids[middle + 1:],
            "non-string": ids[:middle] + [7] + ids[middle + 1:],
            "string": "".join(f"{p % 10}" for p in range(len(ids))),
            "short": ids[1:],
        }[fault]
        yield (f"agent_ids {fault}", q, costs, ids)


@pytest.mark.parametrize("seed", range(3))
def test_ingest_gives_the_instance_or_the_error_of_its_definition(seed):
    rng = random.Random(8800 + seed)
    seen = set()
    for kind, q, costs, ids in _draws(8800 + seed):
        doc = {"n": len(costs), "q": q, "costs": costs, "function": rng.choice(("majority", "parity", "consensus"))}
        if ids is not None:
            doc["agent_ids"] = ids
        text = json.dumps(doc)
        for document in (text, text.encode(), "\ufeff" + text, ("\ufeff" + text).encode()):
            expected = _result(_ingest_by_definition, document)
            got = _result(ingest, document)
            assert got == expected, (kind, document)
            if isinstance(got, ProblemInstance):
                assert type(got) is ProblemInstance
                assert got._cost_pairs == tuple(map(Fraction.as_integer_ratio, got.costs))
            seen.add((kind, isinstance(got, ProblemInstance)))
    assert ("valid", True) in seen
    assert {kind for kind, made in seen if not made} >= {
        *(f"cost {fault} {at}" for fault in _COST_FAULTS for at in _AT), "q", "n = 0", "agent_ids duplicate",
        "agent_ids empty", "agent_ids non-string", "agent_ids string", "agent_ids short",
    }


@pytest.mark.parametrize("seed", range(3))
def test_create_gives_the_instance_or_the_error_of_its_definition(seed):
    rng = random.Random(8900 + seed)
    seen = set()
    for kind, q, costs, ids in _draws(8900 + seed):
        n = len(costs)
        # Some costs already Fractions; the rest are read as in a document.
        costs = [Fraction(c) if isinstance(c, str) and rng.random() < 0.3 and "/" in c else c for c in costs]
        table = tuple(rng.random() < 0.5 for _ in range(max(n, 1) + 1))  # n = 0 gets a spec over 1 agent
        specs = {"spec": AnonymousFunctionSpec(max(n, 1), table)}
        if kind == "valid":
            specs["spec over n + 1"] = parity(n + 1)
            specs["subclass spec"] = _SubclassSpec(n, table)
            specs["tuple spec"] = (n, table, None)
        for spec_kind, spec in specs.items():
            for prior in (q, Fraction(q) if q != "x" else q):
                args = (prior, costs, spec, ids)
                expected = _result(_create_by_definition, *args)
                got = _result(ProblemInstance.create, *args)
                assert got == expected, (kind, spec_kind, args)
                if isinstance(got, ProblemInstance):
                    assert type(got.fn_spec) is type(spec)
                    assert got._cost_pairs == tuple(map(Fraction.as_integer_ratio, got.costs))
                seen.add((kind if spec_kind == "spec" else spec_kind, isinstance(got, ProblemInstance)))
    assert {("valid", True), ("subclass spec", True), ("spec over n + 1", False), ("tuple spec", False)} <= seen
    assert {kind for kind, made in seen if not made} >= {
        *(f"cost {fault} {at}" for fault in _COST_FAULTS for at in _AT), "q", "n = 0", "agent_ids string",
    }


@pytest.mark.parametrize("corpus_name", ["corpus_main", "corpus_small", "corpus_pivotal", "corpus_br"])
def test_kept_cost_pairs_and_rank_rows_match_their_references(corpus_name, request):
    for inst in request.getfixturevalue(corpus_name):
        create = ProblemInstance.create(inst.q, inst.user_costs(), inst.fn_spec, inst.agent_ids)
        for built in (inst, ingest(emit(inst)), ProblemInstance(*inst._key), create, mirror(mirror(inst))):
            # Every build keeps its pairs at construction, before the lattice reads them.
            assert built == inst and "_cost_pairs" in vars(built)
            assert built._cost_pairs == tuple(map(Fraction.as_integer_ratio, built.costs))
            assert built.lattice.rank == full_lattice(built)[1]


def test_costs_are_made_from_the_pairs_on_first_read():
    spelled = ["1/4", "0", "2/8", "0.25", 0, "1/3", "3/9", "0/7"]
    doc = {"n": len(spelled), "q": "3/5", "costs": spelled, "function": "majority"}
    inst = ingest(json.dumps(doc))
    assert exists_appropriate(inst).exists is not None
    assert "costs" not in vars(inst)
    expected = ProblemInstance.create(Fraction(3, 5), [Fraction(c) for c in spelled], majority(len(spelled)))
    direct = ProblemInstance(*expected._key)
    # Equality, hashing and the repr read the costs; the first read makes them.
    assert inst == direct and hash(inst) == hash(direct) and repr(inst) == repr(direct)
    assert "costs" in vars(inst) and inst.costs is inst.costs
    assert inst.costs == expected.costs and all(type(c) is Fraction for c in inst.costs)
    assert len(set(map(id, inst.costs))) == len(set(inst.costs)) == 3
    assert emit(inst) == emit(direct) and ingest(emit(inst)) == inst
    # A direct construction keeps the very tuple it was given.
    assert vars(direct)["costs"] is expected.costs


def test_values_fold_on_integer_pairs_as_by_division():
    # A negative cost and a cost at or past its value leave [0, 1) after the
    # fold, and are reported as a direct construction reports them.
    rng = random.Random(8990)
    spellings = ["0", "1/3", "2/9", "0.125", "-1/4", "3/5", 1, 2]
    built = set()
    for _ in range(200):
        n = rng.randrange(1, 9)
        costs = [rng.choice(spellings) for _ in range(n)]
        values = [rng.choice(["1", "3/2", "0.5", 3, "7/4", "2/6"]) for _ in range(n)]
        doc = {"n": n, "q": "1/2", "costs": costs, "values": values, "function": "parity"}
        folded = [Fraction(c) / Fraction(v) for c, v in zip(costs, values)]
        got = _result(ingest, doc)
        assert got == _result(ProblemInstance.create, Fraction(1, 2), folded, parity(n))
        built.add(isinstance(got, ProblemInstance))
    assert built == {True, False}
