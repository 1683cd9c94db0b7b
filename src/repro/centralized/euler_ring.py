"""The Euler-tour virtual-ring strategy (Theorem 6.3 / Theorem D.5).

For any connected ``G_s``: compute a spanning tree from an arbitrary
node ``u``, walk its Euler tour (every tree edge twice, so at most
``2n - 2`` virtual positions hosted by physical nodes), treat the tour
as a virtual line starting at ``u``, and run CutInHalf over the virtual
positions.  Jumps between positions hosted by one node are free, so the
strategy stays within ``Θ(n)`` edge activations and ``O(log n)`` rounds
and leaves a graph of ``O(log n)`` diameter with a depth-``O(log n)``
spanning tree rooted at ``u``.
"""

from __future__ import annotations

import networkx as nx

from ..engine import RunResult, run_centralized
from ..errors import ConfigurationError
from .cut_in_half import CutInHalfStrategy


def euler_tour_order(graph: nx.Graph, root) -> list:
    """Node visit sequence of a DFS Euler tour of a spanning tree."""
    if root not in graph:
        raise ConfigurationError(f"root {root} not in graph")
    visited = {root}
    order = [root]
    stack = [(root, iter(sorted(graph.neighbors(root))))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for v in it:
            if v not in visited:
                visited.add(v)
                order.append(v)
                stack.append((v, iter(sorted(graph.neighbors(v)))))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if stack:
                order.append(stack[-1][0])
    if len(visited) != graph.number_of_nodes():
        raise ConfigurationError("graph is not connected")
    return order


class EulerRingStrategy(CutInHalfStrategy):
    """CutInHalf over the Euler-tour virtual line of a spanning tree."""

    def __init__(self, graph: nx.Graph, root=None, *, prune_to_tree: bool = False) -> None:
        if root is None:
            root = max(graph.nodes())
        order = euler_tour_order(graph, root)
        super().__init__(order, prune_to_tree=prune_to_tree)
        self.root = root


def run_euler_ring(
    graph: nx.Graph, root=None, *, prune_to_tree: bool = False, **kwargs
) -> RunResult:
    """Solve Depth-log n Tree centrally on any connected graph."""
    strategy = EulerRingStrategy(graph, root, prune_to_tree=prune_to_tree)
    result = run_centralized(graph, strategy, **kwargs)
    result.strategy = strategy  # expose tree_parents() to callers
    return result
