"""The reduced graph read off the lattice, the verify path DP, and the DOT output of `graph`."""

from __future__ import annotations

import argparse
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import example2_instance, make_instance, random_instance
from seqelicit.cli import _cmd_graph
from seqelicit.model import InfoState, consensus, parity, ProblemInstance
from seqelicit.pivotal import c_of, edges, nodes
from seqelicit.oracle import _path_counts, _walk, determine


def enumerate_edges_naive(instance: ProblemInstance) -> set[tuple[InfoState, InfoState]]:
    """Independent edge oracle: try every (i,k) -> (i+1,k') pair directly."""
    fn = instance.fn_spec
    undetermined = {
        InfoState(i, k)
        for i in range(instance.n + 1)
        for k in range(i + 1)
        if determine(InfoState(i, k), fn) is None
    }
    edges = set()
    for a in undetermined:
        for b in undetermined:
            if b.approached == a.approached + 1 and b.ones in (a.ones, a.ones + 1):
                edges.add((a, b))
    return edges


def export_dot(instance: ProblemInstance) -> str:
    """What `seqelicit graph` writes for `instance`, always with success."""
    ok, text = _cmd_graph(argparse.Namespace(json=False), instance)
    assert ok
    return text


def end_nodes(instance: ProblemInstance) -> list[InfoState]:
    """The nodes with no outgoing edge, in node order."""
    parents = {a for a, _ in edges(instance)}
    return [s for s in nodes(instance) if s not in parents]


def root(instance: ProblemInstance) -> InfoState | None:
    states = nodes(instance)
    return states[0] if states else None


def max_count_path(instance: ProblemInstance, bound: int, target: InfoState):
    """Largest number of states with willing rank <= bound on a root-to-`target`
    path, with one path achieving it, from the DP that `verify` runs."""
    best, pred = _path_counts(instance.lattice, bound)
    return best[target.approached][target.ones], _walk(pred, target)


def test_build_consensus_structure():
    inst = example2_instance()
    assert nodes(inst) == [
        InfoState(0, 0),
        InfoState(1, 0),
        InfoState(1, 1),
        InfoState(2, 0),
        InfoState(2, 2),
        InfoState(3, 0),
        InfoState(3, 3),
    ]
    assert end_nodes(inst) == [InfoState(3, 0), InfoState(3, 3)]
    assert root(inst) == InfoState(0, 0)
    assert set(edges(inst)) == enumerate_edges_naive(inst)
    assert len(edges(inst)) == 6


def test_build_constant_empty():
    inst = make_instance("1/2", ["0", "0"], [True, True, True])
    assert nodes(inst) == []
    assert root(inst) is None
    assert edges(inst) == []


def test_build_parity_full_triangle():
    inst = make_instance("1/2", ["0"] * 4, [bool(w % 2) for w in range(5)])
    assert nodes(inst) == [InfoState(i, k) for i in range(4) for k in range(i + 1)]
    assert end_nodes(inst) == [InfoState(3, k) for k in range(4)]
    assert set(edges(inst)) == enumerate_edges_naive(inst)


def test_parity_three_agents_counts():
    inst = make_instance("1/2", ["0"] * 3, [False, True, False, True])
    assert nodes(inst) == [
        InfoState(0, 0),
        InfoState(1, 0),
        InfoState(1, 1),
        InfoState(2, 0),
        InfoState(2, 1),
        InfoState(2, 2),
    ]
    assert len(edges(inst)) == 6
    assert set(edges(inst)) == enumerate_edges_naive(inst)


def test_max_count_path_examples():
    inst = example2_instance()
    count, path = max_count_path(inst, 3, InfoState(3, 0))
    assert count == 3
    assert path == (InfoState(0, 0), InfoState(1, 0), InfoState(2, 0), InfoState(3, 0))
    count4, _ = max_count_path(inst, 4, InfoState(3, 0))
    assert count4 == 4
    # All willing ranks are 3 or 4 here, so bound 2 zeroes every weight.
    count0, path0 = max_count_path(inst, 2, InfoState(3, 3))
    assert count0 == 0
    assert path0[0] == InfoState(0, 0) and path0[-1] == InfoState(3, 3)


def test_export_dot_consensus_golden():
    expected = """// instance: consensus
digraph G {
  s_0_0 [label="(0,0)\\nP=1/4\\nc=3"];
  s_1_0 [label="(1,0)\\nP=1/4\\nc=3"];
  s_1_1 [label="(1,1)\\nP=1/4\\nc=3"];
  s_2_0 [label="(2,0)\\nP=1/2\\nc=3"];
  s_2_2 [label="(2,2)\\nP=1/2\\nc=3"];
  s_3_0 [label="(3,0)\\nP=1\\nc=4", peripheries=2];
  s_3_3 [label="(3,3)\\nP=1\\nc=4", peripheries=2];
  s_0_0 -> s_1_0;
  s_0_0 -> s_1_1;
  s_1_0 -> s_2_0;
  s_1_1 -> s_2_2;
  s_2_0 -> s_3_0;
  s_2_2 -> s_3_3;
}
"""
    assert export_dot(example2_instance()) == expected


def test_export_dot_empty_graph():
    inst = make_instance("1/2", ["0"], [True, True], name="always-on")
    assert export_dot(inst) == "// instance: always-on\ndigraph G { }\n"


def test_export_dot_undefined_mark():
    inst = make_instance("1/2", ["2/5"] * 4, consensus(4).ones_to_one)
    dot = export_dot(inst)
    assert "c=⊥" in dot


def test_export_dot_parity3_counts():
    inst = make_instance("1/2", ["0"] * 3, parity(3).ones_to_one, name="parity")
    dot = export_dot(inst)
    assert dot.count("[label=") == 6
    assert dot.count(" -> ") == 6


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_structural_invariants(n, rng):
    inst = random_instance(rng, n)
    states = nodes(inst)
    assert len(states) <= n * (n + 1) // 2 + 1
    for state in states:
        i, k = state.approached, state.ones
        assert i <= n - 1
        # Predecessor closure: every in-range parent is undetermined too.
        if k > 0:
            assert InfoState(i - 1, k - 1) in states
        if k < i:
            assert InfoState(i - 1, k) in states
    # Every node with no outgoing edge sits at layer n-1.
    for end in end_nodes(inst):
        assert end.approached == n - 1
    assert set(edges(inst)) == enumerate_edges_naive(inst)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_count_monotone_in_rank_bound_and_witness_valid(n, rng):
    inst = random_instance(rng, n)
    if root(inst) is None:
        return
    succ_pairs = set(edges(inst))
    for end in end_nodes(inst):
        previous = 0
        for bound in range(1, n + 1):
            count, path = max_count_path(inst, bound, end)
            assert count >= previous
            previous = count
            assert path[0] == root(inst) and path[-1] == end
            assert all((a, b) in succ_pairs for a, b in zip(path, path[1:]))
            recomputed = sum(
                1
                for s in path
                if c_of(s, inst) is not None and c_of(s, inst) <= bound
            )
            assert recomputed == count
