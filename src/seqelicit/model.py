"""Domain types and instance ingestion for multi-party computation games.

An instance couples a shared prior on binary secrets with per-agent access
costs (normalized so that learning the outcome is worth 1) and an anonymous
boolean function, represented by the set of ones-counts mapped to output 1.
Every probability and cost is an exact rational; nothing downstream of
ingestion touches floating point on a verdict-relevant path.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import lcm
from operator import attrgetter, contains, gt, itemgetter, lt, mul
from typing import NamedTuple

from .errors import BadFunctionTable, CapExceeded, CostOutOfRange, MalformedDocument, QOutOfRange

_DOCUMENT_KEYS = {"n", "q", "costs", "values", "agent_ids", "function"}


def _clip(value) -> str:
    """`value` as text for an error message, cut to its first 32 characters:
    one value of a hostile document can run to megabytes."""
    try:
        text = str(value)
    except ValueError:  # an integer past the interpreter's int-to-str digit limit
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 32 else f"{text[:32]}...({len(text)} chars)"


# Most digits one integer of a document may have: the default int-string
# conversion limit of Python 3.11+, applied on every version, since without it
# a megabyte-long integer parses in quadratic time.
_MAX_DIGITS = 4300
# The least integer with more than `_MAX_DIGITS` digits.
_TOO_LONG = 10**_MAX_DIGITS


def rational_text(value: Fraction) -> str:
    """`value` as "num/den" (or an integer) for output; CapExceeded, on every
    Python version, when its numerator or denominator has more than
    `_MAX_DIGITS` digits, which Python 3.11+ would refuse to print."""
    if value.denominator >= _TOO_LONG or abs(value.numerator) >= _TOO_LONG:
        raise CapExceeded(f"output capped at {_MAX_DIGITS} digits per integer, a rational here needs more")
    return str(value)


def _parse_int(text: str) -> int:
    """`json.loads` hook for integer literals, which are -?[0-9]+."""
    if len(text) - text.startswith("-") > _MAX_DIGITS:
        raise MalformedDocument(f"integer literal {_clip(text)} has more than {_MAX_DIGITS} digits")
    return int(text)


# One decoder for every document: `json.loads` would build a new one per call
# to carry the `parse_int` hook.
_DECODER = json.JSONDecoder(parse_int=_parse_int)


# The rational forms that `Fraction(str)` reads alike on every supported
# Python: an optional sign, then an integer, "num/den" or a decimal, with
# optional whitespace around the whole. Digit separators ("1_000", read by
# 3.11+) and whitespace around the slash ("1 / 2", read by 3.12+) are not
# among them. Groups: sign, integer part, denominator, decimal digits.
_RATIONAL = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?)\s*")


def _rational(value) -> Fraction:
    """`value` read as a document rational; MalformedDocument, naming no
    location, if it is not one."""
    # JSON floats are rejected: 0.4 the float is not 2/5. Exponent notation
    # is rejected too: Fraction("1e-1000000") expands into a million-digit
    # integer, so a few bytes of input could stall ingestion. Each run of
    # digits (numerator, denominator, or either side of a decimal point) is
    # bounded as 3.11+ bounds the int() call that parses it.
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise MalformedDocument(f"exponent notation is not accepted in {_clip(repr(value))}")
        if len(value) > _MAX_DIGITS and max(map(len, re.findall(r"\d+", value)), default=0) > _MAX_DIGITS:
            raise MalformedDocument(f"more than {_MAX_DIGITS} digits in {_clip(repr(value))}")
        match = _RATIONAL.fullmatch(value)
        if match is not None:
            sign, whole, den, decimal = match.groups()
            top, bottom = int(whole or "0"), int(den or "1")
            if decimal:
                bottom = 10 ** len(decimal)
                top = top * bottom + int(decimal)
            if bottom:
                return Fraction(-top if sign == "-" else top, bottom)
        raise MalformedDocument(f"cannot parse rational {_clip(repr(value))}")
    if isinstance(value, bool):
        raise MalformedDocument("expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    raise MalformedDocument(f"expected an integer or a 'num/den' string, got {type(value).__name__}")


def _as_rational(value, where: str) -> Fraction:
    """`_rational`, its error message prefixed by `where`."""
    try:
        return _rational(value)
    except MalformedDocument as exc:
        raise MalformedDocument(f"{where}: {exc}") from None


def _rationals(document: Mapping, key: str, n: int) -> list[Fraction]:
    """The list `document[key]` of n rationals, each distinct string parsed
    once: a repeated cost costs one dict lookup, not a second parse. Only
    strings are memoized, so JSON true never shares an entry with 1. The
    first entry that does not parse is reported as ``key[index]``."""
    raw = document[key]
    if not isinstance(raw, list) or len(raw) != n:
        raise MalformedDocument(f"{key} must be a list of {_clip(n)} rationals")
    parsed: dict[str, Fraction] = {}
    out: list[Fraction] = []
    try:
        for value in raw:
            if not isinstance(value, str):
                out.append(_rational(value))
            elif value in parsed:
                out.append(parsed[value])
            else:
                out.append(parsed.setdefault(value, _rational(value)))
    except MalformedDocument as exc:
        raise MalformedDocument(f"{key}[{len(out)}]: {exc}") from None
    return out


def _iterate(values, where: str):
    """An iterator over `values`, or MalformedDocument if they are not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise MalformedDocument(f"{where} must be iterable, got {type(values).__name__}") from None


def _check_tuple(value, where: str) -> None:
    if not isinstance(value, tuple):
        raise MalformedDocument(f"{where} must be a tuple, got {type(value).__name__}")


def _distinct_ids(ids: tuple, n: int) -> bool:
    """Whether `ids` are n distinct nonempty strings."""
    return len(ids) == n and all(map(isinstance, ids, repeat(str))) and all(ids) and len(set(ids)) == n


def _refuse(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a value type that no one may change."""
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class AnonymousFunctionSpec(
    NamedTuple("AnonymousFunctionSpec", [("n", int), ("ones_to_one", "tuple[bool, ...]"), ("name", "str | None")])
):
    """Boolean function of n bits that depends only on the count of ones.

    Entry w of ``ones_to_one`` is True iff a total of w ones yields output 1.
    ``name`` is a label only: equality and hashing ignore it.
    """

    __slots__ = ()

    def __new__(cls, n: int, ones_to_one: tuple[bool, ...], name: str | None = None):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise BadFunctionTable(f"agent count must be an integer >= 1, got {_clip(n)}")
        if len(ones_to_one) != n + 1:
            raise BadFunctionTable(f"table has {len(ones_to_one)} entries, need {n + 1}")
        if not all(map(isinstance, ones_to_one, repeat(bool))):
            raise BadFunctionTable("table entries must be booleans")
        return tuple.__new__(cls, (n, ones_to_one, name))

    def __eq__(self, other):
        # Never NotImplemented: Python would fall back to tuple equality,
        # which reads the name and equals a plain tuple.
        return other.__class__ is self.__class__ and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    @property
    def ones_counts(self) -> tuple[int, ...]:
        """The counts mapped to output 1, ascending."""
        return tuple(w for w, b in enumerate(self.ones_to_one) if b)

    def value_at(self, ones: int) -> int:
        return 1 if self.ones_to_one[ones] else 0


def majority(n: int) -> AnonymousFunctionSpec:
    """Output 1 iff a strict majority of the n bits is 1."""
    cut = (n + 2) // 2
    return AnonymousFunctionSpec(n, tuple(w >= cut for w in range(n + 1)), "majority")


def consensus(n: int) -> AnonymousFunctionSpec:
    """Output 1 iff all n bits agree."""
    return AnonymousFunctionSpec(n, tuple(w in (0, n) for w in range(n + 1)), "consensus")


def parity(n: int) -> AnonymousFunctionSpec:
    """Output 1 iff the count of ones is odd."""
    return AnonymousFunctionSpec(n, tuple(w % 2 == 1 for w in range(n + 1)), "parity")


def unanimity(n: int) -> AnonymousFunctionSpec:
    """Output 1 iff every bit is 1."""
    return AnonymousFunctionSpec(n, tuple(w == n for w in range(n + 1)), "unanimity")


_SHORTCUT_BUILDERS = {
    "majority": majority,
    "consensus": consensus,
    "parity": parity,
    "unanimity": unanimity,
}


def from_ones_counts(n: int, counts: Iterable[int]) -> AnonymousFunctionSpec:
    counts = tuple(counts)
    seen = set()
    for w in counts:
        if isinstance(w, bool) or not isinstance(w, int):
            raise MalformedDocument(f"ones_counts entries must be integers, got {_clip(repr(w))}")
        if not 0 <= w <= n:
            raise BadFunctionTable(f"ones-count {_clip(w)} outside 0..{n}")
        if w in seen:
            raise BadFunctionTable(f"duplicate ones-count {w}")
        seen.add(w)
    return AnonymousFunctionSpec(n, tuple(w in seen for w in range(n + 1)))


class Action(NamedTuple("Action", [("name", str), ("compute", bool), ("replies", "tuple[int, int]")])):
    """One of the six legal per-approach choices: its name, whether the agent
    computes, and the reply it gives for secret 0 and for secret 1.

    Only computing reveals the secret, so an action that does not compute
    gives the same reply for both.
    """

    __slots__ = ()

    def __new__(cls, name: str, compute: bool, replies: tuple[int, int]):
        if not compute and replies[0] != replies[1]:
            raise ValueError(f"action {name} replies by the secret without computing it")
        return tuple.__new__(cls, (name, compute, replies))

    def reply(self, secret: int) -> int:
        return self.replies[secret]


GUESS_ZERO = Action("guess-0", False, (0, 0))
GUESS_ONE = Action("guess-1", False, (1, 1))
COMPUTE_REPORT_ZERO = Action("compute-0", True, (0, 0))
COMPUTE_REPORT_ONE = Action("compute-1", True, (1, 1))
TRUTHFUL_COMPUTE = Action("truthful", True, (0, 1))
COMPUTE_NEGATED = Action("lie", True, (1, 0))

ALL_ACTIONS = (GUESS_ZERO, GUESS_ONE, COMPUTE_REPORT_ZERO, COMPUTE_REPORT_ONE, TRUTHFUL_COMPUTE, COMPUTE_NEGATED)
ACTION_NAMES = {action.name: action for action in ALL_ACTIONS}


class InfoState(NamedTuple("InfoState", [("approached", int), ("ones", int)])):
    """i agents approached so far, of which `ones` reported 1; ordered as (i, k)."""

    __slots__ = ()

    def __new__(cls, approached: int, ones: int):
        if not (isinstance(approached, int) and isinstance(ones, int)) or bool in (type(approached), type(ones)):
            raise TypeError(f"state coordinates must be ints, got ({_clip(approached)},{_clip(ones)})")
        if not 0 <= ones <= approached:
            raise ValueError(f"invalid state ({approached},{ones})")
        return tuple.__new__(cls, (approached, ones))

    def __str__(self) -> str:
        return f"({self.approached},{self.ones})"


class Transcript(NamedTuple("Transcript", [("entries", "tuple[tuple[int, int], ...]")])):
    """Ordered (rank, reply) pairs; each rank appears at most once."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int], ...] = ()):
        # `dict` unpacks every pair and keeps one per distinct rank; the maps
        # test types, `rank < 1` and `bit in (0, 1)` entry by entry, in C. A
        # bit may be a bool, as a secret of `mechanism.run` may.
        replies = dict(entries)
        if len(replies) != len(entries):
            raise ValueError("an agent may be approached at most once")
        if not all(map(isinstance, (*replies, *replies.values()), repeat(int))) or bool in map(type, replies):
            raise TypeError("transcript ranks must be ints, and bits ints or bools")
        if any(map(lt, replies, repeat(1))) or not all(map(contains, repeat((0, 1)), replies.values())):
            raise ValueError("transcript entries are (positive rank, bit)")
        return tuple.__new__(cls, (entries,))


class ProblemInstance:
    """Agent count, prior, sorted costs, and the anonymous function.

    Costs are stored ascending; ``original_index[r-1]`` is the 1-based input
    position of the agent holding sorted rank r. Display names live in
    ``agent_ids`` (input order). The prior q is any rational in (0, 1).
    Equality, hashing and the repr read these six fields alone, and none of
    them can be assigned after construction. Each table derived from them,
    such as ``_cost_pairs``, the sorted costs as (numerator, denominator)
    pairs of ints, is made once (at construction, or on first use for a
    ``cached_property``) and kept outside equality, hashing and the repr.
    """

    _FIELDS = ("n", "q", "costs", "original_index", "fn_spec", "agent_ids")

    def __init__(
        self,
        n: int,
        q: Fraction,
        costs: tuple[Fraction, ...],
        original_index: tuple[int, ...],
        fn_spec: AnonymousFunctionSpec,
        agent_ids: tuple[str, ...],
    ):
        vars(self).update(zip(self._FIELDS, (n, q, costs, original_index, fn_spec, agent_ids)))
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise MalformedDocument(f"agent count must be an integer >= 1, got {_clip(self.n)}")
        if not isinstance(self.q, Fraction) or not 0 < self.q.numerator < self.q.denominator:
            raise QOutOfRange(f"prior must lie strictly between 0 and 1, got {_clip(self.q)}")
        _check_tuple(self.costs, "costs")
        if len(self.costs) != self.n:
            raise MalformedDocument(f"{len(self.costs)} costs for {self.n} agents")
        # Integer comparisons: a Fraction's denominator is positive.
        for c in self.costs:
            if not isinstance(c, Fraction) or not 0 <= c.numerator < c.denominator:
                raise CostOutOfRange(f"normalized cost {_clip(c)} outside [0, 1)")
        # A descent is a/b > c/d, that is a*d > c*b, for neighbouring costs a/b, c/d.
        vars(self)["_cost_pairs"] = pairs = tuple(map(Fraction.as_integer_ratio, self.costs))
        tops, dens = zip(*pairs)
        if any(map(gt, map(mul, tops, dens[1:]), map(mul, tops[1:], dens))):
            raise MalformedDocument("costs must be sorted ascending")
        _check_tuple(self.original_index, "original_index")
        if not all(map(isinstance, self.original_index, repeat(int))):
            raise MalformedDocument("original_index must hold ints")
        if sorted(self.original_index) != list(range(1, self.n + 1)):
            raise MalformedDocument("original_index must be a permutation of 1..n")
        if not isinstance(self.fn_spec, AnonymousFunctionSpec):
            raise BadFunctionTable(f"function must be an AnonymousFunctionSpec, got {type(self.fn_spec).__name__}")
        if self.fn_spec.n != self.n:
            raise BadFunctionTable(f"function is over {self.fn_spec.n} agents, instance has {self.n}")
        _check_tuple(self.agent_ids, "agent_ids")
        if not _distinct_ids(self.agent_ids, self.n):
            raise MalformedDocument("agent_ids must be n distinct nonempty strings")

    __setattr__ = __delattr__ = _refuse

    _key = property(attrgetter(*_FIELDS))  # the field values, in order

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ProblemInstance({', '.join(f'{k}={v!r}' for k, v in zip(self._FIELDS, self._key))})"

    @classmethod
    def create(
        cls,
        q: Fraction | int | str,
        costs: Iterable[Fraction | int | str],
        fn_spec: AnonymousFunctionSpec,
        agent_ids: Iterable[str] | None = None,
    ) -> "ProblemInstance":
        """Build an instance from costs in input order, sorting them stably.
        The prior and the costs are exact: a float or a bool is rejected, and
        any other value but a Fraction is read as in a document. `costs` and
        `agent_ids` are each read once, so iterators will do; a string
        `agent_ids` is refused, not split into one-character ids.

        Each cost x gets one integer sort key, floor(x * 4^b) for b the bit
        length of the largest denominator: two distinct reduced fractions with
        denominators below 2^b differ by more than 4^-b, so the keys are equal
        for equal costs and ordered as the costs are. The stable sort on them
        keeps ties in input order. The sorted order and the range of every
        cost between the least and the greatest are left to the sort; the
        checks it leaves open run after it (see `_sorted`), and a fault
        raises what ``ProblemInstance(...)`` raises on the sorted fields."""
        costs = tuple(_iterate(costs, "costs"))
        if isinstance(q, (bool, float)):
            raise QOutOfRange(f"prior must be an exact rational, not a {type(q).__name__}")
        q = q if isinstance(q, Fraction) else _as_rational(q, "q")
        if not all(map(isinstance, costs, repeat(Fraction))):
            if any(map(isinstance, costs, repeat((bool, float)))):
                raise CostOutOfRange("costs must be exact rationals, not floats or booleans")
            costs = tuple(
                c if isinstance(c, Fraction) else _as_rational(c, f"costs[{p}]") for p, c in enumerate(costs)
            )
        if isinstance(agent_ids, str):  # it would iterate into one-character ids
            raise MalformedDocument("agent_ids must be n distinct nonempty strings")
        return cls._sorted(q, costs, fn_spec, None if agent_ids is None else tuple(_iterate(agent_ids, "agent_ids")))

    # `ingest` calls this, not `create`, whose iteration and type checks add 1.5 % to a `verify-lattice` op.
    @classmethod
    def _sorted(cls, q: Fraction, costs: list | tuple, fn_spec, agent_ids: tuple | None) -> "ProblemInstance":
        """The instance of an exact prior and exact costs in input order, for
        `create` and `ingest`: one stable sort on the costs' integer keys (see
        `create`), which orders the costs exactly and numbers the agents,
        then only the checks the sort leaves open: n >= 1, q's range, the
        function spec's class and n, the least and the greatest sorted cost
        in [0, 1), and the agent ids (the default ids "1".."n" need none). If
        one fails, `ProblemInstance(...)` runs on the same sorted fields and
        raises what it raises. The sorted (num, den) pairs stay as
        `_cost_pairs`."""
        n = len(costs)
        pairs = list(map(Fraction.as_integer_ratio, costs))
        shift = 2 * max(map(itemgetter(1), pairs), default=1).bit_length()
        order = sorted(range(n), key=[(num << shift) // den for num, den in pairs].__getitem__)
        pairs = tuple(map(pairs.__getitem__, order))
        ids = tuple(map(str, range(1, n + 1))) if agent_ids is None else agent_ids
        fields = (n, q, tuple(map(costs.__getitem__, order)), tuple(map(range(1, n + 1).__getitem__, order)), fn_spec, ids)
        if not (
            n and 0 < q.numerator < q.denominator and pairs[0][0] >= 0 and pairs[-1][0] < pairs[-1][1]
            and isinstance(fn_spec, AnonymousFunctionSpec) and fn_spec.n == n
            and (agent_ids is None or _distinct_ids(agent_ids, n))
        ):
            return cls(*fields)  # raises, with the message of a direct construction
        self = object.__new__(cls)
        vars(self).update(zip(cls._FIELDS, fields), _cost_pairs=pairs)
        return self

    @property
    def ranks(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def lattice(self):
        """Pivotality and willing rank of every state (see
        ``pivotal.StateLattice``)."""
        from .pivotal import StateLattice

        return StateLattice(self)

    @cached_property
    def _deviation_memo(self) -> list:
        """The one-entry memo of ``mechanism.deviation_profile``: empty, or
        the last policy asked and its reach's per-rank sums, filled in
        place."""
        return []

    @cached_property
    def scaled_costs(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(den, scaled, tops): the costs' common denominator; rank r's cost
        times `den` at scaled[r], so costs add up as integers into one
        ``Fraction(total, den)``; and at tops[L] the scaled cost of the L
        dearest ranks, HCF's top-rank prefix of length L, which `run` reads
        (entry 0 of each is 0). CapExceeded as soon as `den` passes
        `_MAX_DIGITS` digits, the most `rational_text` prints, before the lcm
        of many long denominators takes time quadratic in their count."""
        den = 1
        for d in set(map(itemgetter(1), self._cost_pairs)):
            den = lcm(den, d)
            if den >= _TOO_LONG:
                raise CapExceeded(f"cost totals capped at {_MAX_DIGITS} digits, the costs' common denominator has more")
        scaled = (0, *(top * (den // d) for top, d in self._cost_pairs))
        return den, scaled, tuple(accumulate(reversed(scaled[1:]), initial=0))

    @cached_property
    def _step_pairs(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """Every transcript entry a run can make, ``(rank, reply)`` at
        ``[rank][reply]`` (rank 0 unused): 2(n+1) pairs of plain ints that
        every transcript of the instance shares, so a kept transcript costs
        one pointer per step."""
        return tuple(((rank, 0), (rank, 1)) for rank in range(self.n + 1))

    def cost_of_rank(self, rank: int) -> Fraction:
        return self.costs[rank - 1]

    def agent_id_of_rank(self, rank: int) -> str:
        return self.agent_ids[self.original_index[rank - 1] - 1]

    def rank_of_agent_id(self, agent_id: str) -> int:
        for rank in self.ranks:
            if self.agent_id_of_rank(rank) == agent_id:
                return rank
        raise KeyError(agent_id)

    def user_costs(self) -> tuple[Fraction, ...]:
        """Costs back in input order."""
        return tuple(cost for _, cost in sorted(zip(self.original_index, self.costs)))


def _parse_function(value, n: int) -> AnonymousFunctionSpec:
    if isinstance(value, str):
        builder = _SHORTCUT_BUILDERS.get(value)
        if builder is None:
            raise MalformedDocument(f"unknown function shortcut {_clip(repr(value))}")
        return builder(n)
    if isinstance(value, Mapping):
        if set(value) != {"ones_counts"}:
            raise MalformedDocument("function object must have exactly the key 'ones_counts'")
        counts = value["ones_counts"]
        if not isinstance(counts, list):
            raise MalformedDocument("ones_counts must be a list of integers")
        return from_ones_counts(n, counts)
    raise MalformedDocument("function must be a shortcut name or {'ones_counts': [...]}")


def ingest(document) -> ProblemInstance:
    """Parse an instance document (JSON text, UTF-8 bytes or a parsed mapping).

    Format::

        { "n": <int>, "q": "<num>/<den>", "costs": ["<num>/<den>", ...],
          "values": [...]?, "agent_ids": [<string>...]?,
          "function": "majority" | "consensus" | "parity" | "unanimity"
                      | {"ones_counts": [<int>...]} }

    A rational is a JSON integer or a string: an optional sign, then an
    integer ("3"), a fraction ("2/5") or a decimal ("0.4"), with optional
    whitespace around it, read alike on every supported Python (see
    `_RATIONAL`). Each distinct string of a list is parsed once. When
    ``values`` is present each cost is folded to cost/value. Any q in (0, 1)
    is accepted as given, below 1/2 too. Of several faults, the first entry
    that does not parse is reported, in input order (q, costs, values); once
    all parse, the instance is built as `ProblemInstance.create` builds it,
    and a fault left is reported as `ProblemInstance` reports it: q's range,
    then the costs in sorted order, so the least cost outside [0, 1).
    """
    if isinstance(document, bytes):
        # Strict UTF-8, as the CLI reads its files: no other encoding is
        # guessed, and a BOM stays in the text, where JSON refuses it.
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not valid UTF-8: {exc.reason} at byte offset {exc.start}") from exc
    if isinstance(document, str):
        # Besides JSONDecodeError (a ValueError), hostile text can raise
        # RecursionError for deeply nested arrays; `_parse_int` rejects an
        # integer literal with too many digits.
        try:
            if document.startswith("\ufeff"):  # refused as `json.loads` refuses it
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", document, 0)
            document = _DECODER.decode(document)
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise MalformedDocument("instance document must be a JSON object")
    unknown = set(document) - _DOCUMENT_KEYS
    if unknown:
        raise MalformedDocument(f"unknown fields: {_clip(', '.join(sorted(unknown)))}")
    for key in ("n", "q", "costs", "function"):
        if key not in document:
            raise MalformedDocument(f"missing required field {key!r}")

    n = document["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MalformedDocument("n must be an integer >= 1")

    q = _as_rational(document["q"], "q")
    costs = _rationals(document, "costs", n)
    if "values" in document:
        values = _rationals(document, "values", n)
        if any(v.numerator <= 0 for v in values):
            raise MalformedDocument("values must be positive")
        costs = [c / v for c, v in zip(costs, values)]

    agent_ids = None
    if "agent_ids" in document:
        agent_ids = document["agent_ids"]
        # ProblemInstance checks the entries; a string or a mapping would
        # iterate into ids of its own.
        if not isinstance(agent_ids, list):
            raise MalformedDocument("agent_ids must be n distinct nonempty strings")
        agent_ids = tuple(agent_ids)

    return ProblemInstance._sorted(q, costs, _parse_function(document["function"], n), agent_ids)


def emit(instance: ProblemInstance) -> dict:
    """Canonical document for an instance; ``ingest(emit(x)) == x``."""
    fn = instance.fn_spec
    if fn.name in _SHORTCUT_BUILDERS and _SHORTCUT_BUILDERS[fn.name](fn.n) == fn:
        function = fn.name
    else:
        function = {"ones_counts": list(fn.ones_counts)}
    return {
        "n": instance.n,
        "q": str(instance.q),
        "costs": [str(c) for c in instance.user_costs()],
        "agent_ids": list(instance.agent_ids),
        "function": function,
    }
