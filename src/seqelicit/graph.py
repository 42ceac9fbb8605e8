"""The reduced DAG of undetermined information states, read off the state lattice.

Nodes are the states (i, k) where the output is still unknown, exactly those
with a nonzero pivotality numerator in `instance.lattice`; edges follow a
single extra reply (a 0 keeps k, a 1 increments it). Predecessors of an
undetermined state are themselves undetermined, so the whole graph hangs off
(0, 0), and every node with no undetermined successor sits at layer n-1.
"""

from __future__ import annotations

from .model import InfoState, ProblemInstance
from .pivotal import c_of, pivotal_prob


def nodes(instance: ProblemInstance) -> list[InfoState]:
    """The undetermined states in lexicographic (i, k) order; empty for a
    constant function."""
    return [InfoState(i, k) for i, row in enumerate(instance.lattice.num) for k, num in enumerate(row) if num]


def edges(instance: ProblemInstance) -> list[tuple[InfoState, InfoState]]:
    """The (state, child) pairs among the undetermined states, parents in node
    order and the 0-reply child first."""
    num = instance.lattice.num
    return [
        (state, InfoState(state.approached + 1, k))
        for state in nodes(instance)
        if state.approached + 1 < instance.n
        for k in (state.ones, state.ones + 1)
        if num[state.approached + 1][k]
    ]


def export_dot(instance: ProblemInstance) -> str:
    """Render the graph as DOT with byte-stable, lexicographic ordering.

    Node s_i_k carries the pivotal probability and the willing rank (or the
    undefined mark); end nodes (layer n-1) get a doubled periphery.
    """
    lines = [f"// instance: {instance.fn_spec.name or 'anonymous'}"]
    states = nodes(instance)
    if not states:
        lines.append("digraph G { }")
        return "\n".join(lines) + "\n"
    lines.append("digraph G {")
    for state in states:
        c = c_of(state, instance)
        c_text = "⊥" if c is None else str(c)
        attrs = f'label="({state.approached},{state.ones})\\nP={pivotal_prob(state, instance)}\\nc={c_text}"'
        if state.approached == instance.n - 1:
            attrs += ", peripheries=2"
        lines.append(f"  s_{state.approached}_{state.ones} [{attrs}];")
    for a, b in edges(instance):
        lines.append(f"  s_{a.approached}_{a.ones} -> s_{b.approached}_{b.ones};")
    lines.append("}")
    return "\n".join(lines) + "\n"
