"""Hostile input: arbitrary JSON, mutated instance documents, and arbitrary
Python values handed to the instance constructors.

Ingestion and `ProblemInstance` (built directly or through `create`) may
reject their input only with an `ElicitError` subclass, and `seqelicit verify`
must map every document to exit 0, 2 or 3, with nothing on standard output
when it refuses the input (exit 2).
"""

from __future__ import annotations

import contextlib
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqelicit.cli import main
from seqelicit.errors import ElicitError
from seqelicit.model import ProblemInstance, ingest, parity

RATIONAL_TEXT = ("0", "1", "1/2", "2/4", "3/5", "1/3", "-1/4", "1/0", "0.5", "1e3", " 1/2", "x", "")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from(RATIONAL_TEXT)
    | st.text(max_size=12)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=24,
)


@st.composite
def valid_documents(draw):
    n = draw(st.integers(1, 7))
    cost = st.sampled_from(("0", "1/2", "2/4", "1/8", "3/64", 0))
    doc = {
        "n": n,
        "q": draw(st.sampled_from(("1/2", "3/5", "3/4", "1/3"))),
        "costs": draw(st.lists(cost, min_size=n, max_size=n)),
        "function": draw(
            st.sampled_from(("majority", "consensus", "parity", "unanimity"))
            | st.builds(lambda ws: {"ones_counts": ws}, st.lists(st.integers(0, n), unique=True, max_size=n + 1))
        ),
    }
    if draw(st.booleans()):
        doc["values"] = draw(st.lists(st.sampled_from(("1", "2", "3/2", 4)), min_size=n, max_size=n))
    if draw(st.booleans()):
        doc["agent_ids"] = [f"a{p}" for p in range(n)]
    return doc


def _replace_somewhere(draw, node):
    """`node` with one value inside it, or itself, replaced by arbitrary JSON."""
    if isinstance(node, (list, dict)) and node and draw(st.integers(0, 2)):
        key = draw(st.sampled_from(range(len(node)) if isinstance(node, list) else sorted(node)))
        node = list(node) if isinstance(node, list) else dict(node)
        node[key] = _replace_somewhere(draw, node[key])
        return node
    return draw(json_values)


@st.composite
def mutated_documents(draw):
    """A valid document with one to three edits: a field dropped or added, or
    a value at any depth of a field replaced, by arbitrary JSON."""
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        if key in doc and draw(st.integers(0, 3)) == 0:
            del doc[key]
        else:
            doc[key] = _replace_somewhere(draw, doc.get(key))
    return doc


# Mostly mutated documents: arbitrary JSON almost never gets past the key check.
documents = st.one_of(json_values, valid_documents(), mutated_documents(), mutated_documents())


def _ingest_or_reject(document):
    try:
        ingest(document)
    except ElicitError:
        pass


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents)
def test_only_elicit_errors_escape_ingest(document):
    _ingest_or_reject(document)
    _ingest_or_reject(json.dumps(document))


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(documents)
def test_verify_exits_0_2_or_3(instance_path, document):
    instance_path.write_text(json.dumps(document), encoding="utf-8")
    argv = ["verify", str(instance_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


# Values a library caller might pass for n, q, a cost or any other field:
# exact and inexact numbers, strings inside and outside the rational grammar,
# and nested lists.
python_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.decimals()
    | st.sampled_from((Decimal("0.5"), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(7, 8)))
    | st.sampled_from(RATIONAL_TEXT + ("1_0/100", "1 /2", "0.2_5"))
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3),
    max_leaves=4,
)


def _field(valid):
    """A whole field: the valid value, or one drawn as for n, q or a cost,
    alone or as a tuple of them."""
    return st.just(valid) | python_values | st.lists(python_values, max_size=4).map(tuple)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(python_values, python_values, st.lists(python_values, min_size=1, max_size=4), st.booleans(), st.data())
def test_only_elicit_errors_escape_the_instance_constructors(n, q, costs, n_fits, data):
    count = len(costs)
    fn, ids, index = parity(count), tuple(map(str, range(count))), tuple(range(1, count + 1))
    with contextlib.suppress(ElicitError):
        ProblemInstance.create(q, data.draw(_field(costs)), data.draw(_field(fn)), data.draw(_field(None)))
    with contextlib.suppress(ElicitError):
        ProblemInstance(
            count if n_fits else n,
            q,
            data.draw(_field(tuple(costs))),
            data.draw(_field(index)),
            data.draw(_field(fn)),
            data.draw(_field(ids)),
        )
