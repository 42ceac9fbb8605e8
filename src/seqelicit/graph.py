"""The reduced DAG of undetermined information states.

Nodes are the states (i, k) where the output is still unknown; edges follow a
single extra reply (a 0 keeps k, a 1 increments it). Predecessors of an
undetermined state are themselves undetermined, so the whole graph hangs off
(0, 0), and every node with no undetermined successor sits at layer n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TargetNotInGraph
from .model import InfoState, ProblemInstance
from .pivotal import NodeLabel, StateLattice, c_of, pivotal_prob, threshold


@dataclass
class StateGraph:
    """Immutable after build(); `labels` iterates in lexicographic (i, k) order."""

    instance: ProblemInstance
    labels: dict[InfoState, NodeLabel]
    edges: tuple[tuple[InfoState, InfoState], ...]
    end_nodes: tuple[InfoState, ...]
    root: InfoState | None

    @property
    def nodes(self) -> tuple[InfoState, ...]:
        return tuple(self.labels)


def build(instance: ProblemInstance) -> StateGraph:
    """Collect every undetermined state with its label and wire the edges.

    A constant function determines (0, 0) already and yields the empty graph.
    """
    labels: dict[InfoState, NodeLabel] = {}
    for i, row in enumerate(instance.lattice.num):
        for k, num in enumerate(row):
            if num:
                state = InfoState(i, k)
                labels[state] = NodeLabel(
                    state, pivotal_prob(state, instance), threshold(state, instance), c_of(state, instance)
                )
    edges = tuple(
        (state, child)
        for state in labels
        for child in (
            InfoState(state.approached + 1, state.ones),
            InfoState(state.approached + 1, state.ones + 1),
        )
        if child in labels
    )
    end_nodes = tuple(state for state in labels if state.approached == instance.n - 1)
    root = InfoState(0, 0) if InfoState(0, 0) in labels else None
    return StateGraph(instance, labels, edges, end_nodes, root)


def _path_counts(lattice: StateLattice, rank_bound: int):
    """Layered DP over the undetermined states: best[i][k] is the largest
    number of states with willing rank in 1..rank_bound on a path from (0, 0)
    to (i, k), -1 at determined states; pred[i][k] is the ones-count of the
    chosen parent in layer i-1 (a virtual parent of value 0 sits above the
    root). Ties break toward the lexicographically smaller parent (i-1, k-1)
    so witness extraction is deterministic.
    """
    best, pred, prev = [], [], [0]
    for num_row, rank_row in zip(lattice.num, lattice.rank):
        padded = [-1, *prev, -1]  # padded[k] is parent (i-1, k-1), padded[k+1] is (i-1, k)
        back = [k - 1 if padded[k] >= padded[k + 1] else k for k in range(len(num_row))]
        prev = [
            padded[parent + 1] + (0 < rank <= rank_bound) if num else -1
            for parent, num, rank in zip(back, num_row, rank_row)
        ]
        best.append(prev)
        pred.append(back)
    return best, pred


def _walk(pred, target: InfoState) -> tuple[InfoState, ...]:
    """The root-to-`target` path that `pred` from _path_counts records."""
    i, k = target.approached, target.ones
    path = [target]
    while i:
        i, k = i - 1, pred[i][k]
        path.append(InfoState(i, k))
    return tuple(reversed(path))


def max_count_path(
    graph: StateGraph, rank_bound: int, target: InfoState
) -> tuple[int, tuple[InfoState, ...]]:
    """Maximum number of nodes with willing rank <= rank_bound on any path from
    (0, 0) to `target`, together with one path achieving it."""
    if target not in graph.labels:
        raise TargetNotInGraph(f"state {target} is not in the reduced graph")
    if not 1 <= rank_bound <= graph.instance.n:
        raise ValueError(f"rank bound must lie in 1..{graph.instance.n}")
    best, pred = _path_counts(graph.instance.lattice, rank_bound)
    return best[target.approached][target.ones], _walk(pred, target)


def export_dot(graph: StateGraph) -> str:
    """Render the graph as DOT with byte-stable, lexicographic ordering.

    Node s_i_k carries the pivotal probability and the willing rank (or the
    undefined mark); end nodes get a doubled periphery.
    """
    name = graph.instance.fn_spec.name or "anonymous"
    lines = [f"// instance: {name}"]
    if not graph.labels:
        lines.append("digraph G { }")
        return "\n".join(lines) + "\n"
    ends = set(graph.end_nodes)
    lines.append("digraph G {")
    for state, label in graph.labels.items():
        c_text = "⊥" if label.c_of_v is None else str(label.c_of_v)
        attrs = f'label="({state.approached},{state.ones})\\nP={label.pivotal_prob}\\nc={c_text}"'
        if state in ends:
            attrs += ", peripheries=2"
        lines.append(f"  s_{state.approached}_{state.ones} [{attrs}];")
    for a, b in graph.edges:
        lines.append(f"  s_{a.approached}_{a.ones} -> s_{b.approached}_{b.ones};")
    lines.append("}")
    return "\n".join(lines) + "\n"
