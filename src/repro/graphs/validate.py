"""Validators for target-network structure (the G_f families).

These are used by tests and benches to check that an algorithm's final
graph really is what the paper promises: a spanning star (Depth-1 Tree),
a rooted tree of depth ``d`` (Depth-d Tree), a wreath, etc.
"""

from __future__ import annotations

import math
from typing import Callable

import networkx as nx


class KeyGraph:
    """A graph as its sorted labels ``uids`` and its sorted undirected
    packed ``keys`` over their positions (the
    :mod:`repro.engine.edge_keys` layout), standing for the networkx
    graph ``to_networkx()`` returns.

    :func:`max_degree`, :func:`diameter` and
    :func:`~repro.graphs.uids.eccentricities` read it with one array
    pass (:func:`~repro.engine.graph_keys.tree_pass`, run once and kept);
    ``to_networkx()`` is called only when the answer needs networkx: the
    diameter of a graph that is not a tree.
    """

    def __init__(self, uids: list, keys, to_networkx: Callable[[], nx.Graph]) -> None:
        self.uids = uids
        self.keys = keys
        self.to_networkx = to_networkx
        self._shape = None

    @classmethod
    def read(cls, graph: nx.Graph) -> KeyGraph | None:
        """``graph`` through :func:`~repro.engine.graph_keys.slot_keys`;
        None when its labels do not sort."""
        from ..engine.graph_keys import slot_keys

        try:
            uids, keys = slot_keys(graph)
        except TypeError:
            return None
        return cls(uids, keys, lambda: graph)

    @property
    def shape(self) -> tuple:
        """``(max_degree, sweep)``: ``sweep`` the double sweep
        (:class:`~repro.engine.graph_keys.Sweep`) of a spanning tree,
        else None."""
        if self._shape is None:
            from ..engine.graph_keys import tree_pass

            self._shape = tree_pass(len(self.uids), self.keys)
        return self._shape


def _keyed(graph) -> KeyGraph | None:
    return graph if isinstance(graph, KeyGraph) else KeyGraph.read(graph)


def max_degree(graph: nx.Graph | KeyGraph) -> int:
    """The largest degree, by one ``bincount`` over the key arrays."""
    keyed = _keyed(graph)
    if keyed is not None:
        return keyed.shape[0]
    return max((d for _, d in graph.degree()), default=0)


def diameter(graph: nx.Graph | KeyGraph) -> int:
    """Exact diameter, with fast paths for the shapes final graphs take.

    ``nx.diameter`` runs a BFS from every node — ``O(n(n+m))``, hopeless
    for the xlarge sweep tier's ``n = 1e5`` final stars.  A spanning
    tree takes the array double sweep
    (:func:`~repro.engine.graph_keys.tree_pass`) and a single cycle is
    closed form; everything else (initial graphs, mid-run snapshots) and
    graphs whose labels do not sort fall back to the generic algorithm.
    """
    keyed = _keyed(graph)
    if keyed is not None:
        sweep = keyed.shape[1]
        if sweep is not None:
            return sweep.diameter
        graph = keyed.to_networkx()
    n = graph.number_of_nodes()
    if n <= 1:
        return 0
    if graph.number_of_edges() == n and all(d == 2 for _, d in graph.degree()):
        # Connected 2-regular => a single cycle.
        if nx.is_connected(graph):
            return n // 2
    return nx.diameter(graph)


def is_spanning_star(graph: nx.Graph, center=None) -> bool:
    """True iff the graph is a star spanning all nodes (diameter <= 2)."""
    n = graph.number_of_nodes()
    if n == 1:
        return True
    if graph.number_of_edges() != n - 1 or not nx.is_connected(graph):
        return False
    degrees = dict(graph.degree())
    hub = max(degrees, key=degrees.get)
    if center is not None and hub != center:
        if n == 2:
            hub = center  # both endpoints are valid centers of K2
        else:
            return False
    return degrees[hub] == n - 1


def is_spanning_tree(graph: nx.Graph) -> bool:
    n = graph.number_of_nodes()
    return graph.number_of_edges() == n - 1 and nx.is_connected(graph)


def tree_depth(graph: nx.Graph, root) -> int:
    """Depth of a tree rooted at ``root`` (asserts tree-ness)."""
    if not is_spanning_tree(graph):
        raise ValueError("graph is not a spanning tree")
    lengths = nx.single_source_shortest_path_length(graph, root)
    return max(lengths.values())


def is_depth_d_tree(graph: nx.Graph, root, d: int) -> bool:
    """The Depth-d Tree target: a spanning tree of depth <= d rooted at root."""
    return is_spanning_tree(graph) and tree_depth(graph, root) <= d


def is_binary_tree(graph: nx.Graph, root) -> bool:
    """Rooted tree in which every node has at most two children."""
    if not is_spanning_tree(graph):
        return False
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            children = [v for v in graph.neighbors(u) if v not in seen]
            if len(children) > 2:
                return False
            seen.update(children)
            nxt.extend(children)
        frontier = nxt
    return len(seen) == graph.number_of_nodes()

def is_kary_tree(graph: nx.Graph, root, k: int) -> bool:
    """Rooted tree in which every node has at most ``k`` children."""
    if not is_spanning_tree(graph):
        return False
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            children = [v for v in graph.neighbors(u) if v not in seen]
            if len(children) > k:
                return False
            seen.update(children)
            nxt.extend(children)
        frontier = nxt
    return len(seen) == graph.number_of_nodes()


def is_ring(graph: nx.Graph) -> bool:
    n = graph.number_of_nodes()
    if n < 3:
        return False
    return (
        graph.number_of_edges() == n
        and nx.is_connected(graph)
        and all(d == 2 for _, d in graph.degree())
    )


def is_wreath(graph: nx.Graph, ring_edges: set, tree_edges: set, root) -> bool:
    """A wreath: a spanning ring plus a spanning binary tree (Def. 4.1).

    ``ring_edges`` and ``tree_edges`` are the role-annotated edge sets of a
    committee; the union must equal the graph's edges, the ring must be a
    cycle over all nodes, and the tree must be a spanning binary tree.
    """
    edges = {tuple(sorted(e)) for e in graph.edges()}
    ring = {tuple(sorted(e)) for e in ring_edges}
    tree = {tuple(sorted(e)) for e in tree_edges}
    if ring | tree != edges:
        return False
    ring_graph = nx.Graph(list(ring))
    ring_graph.add_nodes_from(graph.nodes())
    tree_graph = nx.Graph(list(tree))
    tree_graph.add_nodes_from(graph.nodes())
    return is_ring(ring_graph) and is_binary_tree(tree_graph, root)


def depth_bound_log(n: int, c: float = 2.0, floor: int = 2) -> int:
    """A ``c * ceil(log2 n) + floor`` depth budget used in assertions."""
    return int(c * math.ceil(math.log2(max(2, n)))) + floor
