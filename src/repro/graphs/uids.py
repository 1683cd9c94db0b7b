"""UID assignment schemes.

Structural generators label nodes ``0..n-1``.  The schemes here relabel
graphs so that UID order interacts with structure in controlled ways:
randomly (the default experimental setting), adversarially (maximum UID
far from everything), or monotonically (the increasing-order rings of the
Section 6 lower bound).
"""

from __future__ import annotations

import random

import networkx as nx

from ..errors import ConfigurationError
from .validate import KeyGraph


def relabel(graph: nx.Graph, mapping: dict) -> nx.Graph:
    """Relabel, preserving and translating metadata such as ``order``."""
    g = nx.relabel_nodes(graph, mapping, copy=True)
    if "order" in graph.graph:
        g.graph["order"] = [mapping[v] for v in graph.graph["order"]]
    if "center" in graph.graph:
        g.graph["center"] = mapping[graph.graph["center"]]
    if "root" in graph.graph:
        g.graph["root"] = mapping[graph.graph["root"]]
    return g


def identity_uids(graph: nx.Graph) -> nx.Graph:
    """Keep canonical labels (UID = structural position)."""
    return graph


def random_permutation(count: int, seed: int = 0) -> list[int]:
    """The UIDs :func:`random_uids` gives a graph on ``0..count-1``:
    node ``v`` gets ``perm[v]``.

    A shuffle's swaps depend only on the list's length and the seed, so
    shuffling any sorted node list ``nodes`` yields ``nodes[p]`` for
    ``p`` in this permutation; :func:`random_uids` relies on that, and
    ``families.make`` composes these lists instead of relabelling twice.
    """
    perm = list(range(count))
    random.Random(seed).shuffle(perm)
    return perm


def random_uids(graph: nx.Graph, seed: int = 0, *, spread: int = 1) -> nx.Graph:
    """Assign a random permutation of ``0..n-1`` (optionally spaced out).

    ``spread > 1`` multiplies UIDs to create a sparse namespace, which
    exercises comparison-based code against non-contiguous UIDs.
    """
    nodes = sorted(graph.nodes())
    perm = random_permutation(len(nodes), seed)
    return relabel(graph, {v: spread * nodes[p] for v, p in zip(nodes, perm)})


def max_far_permutation(count: int, far: int, seed: int = 0) -> list[int]:
    """The UIDs :func:`adversarial_max_far` gives a graph on ``0..count-1``
    whose chosen far node is ``far``: ``count - 1`` there, a shuffle of
    the rest elsewhere."""
    rest = [v for v in range(count) if v != far]
    random.Random(seed).shuffle(rest)
    perm = [0] * count
    perm[far] = count - 1
    for uid, v in enumerate(rest):
        perm[v] = uid
    return perm


def eccentricities(graph: nx.Graph) -> dict:
    """Every node's eccentricity; exact, and linear time on a tree.

    A tree takes the array double sweep
    (:func:`~repro.engine.graph_keys.tree_pass`) and one more BFS:
    three BFS passes in all.  Any other graph, or one whose labels do
    not sort, pays ``nx.eccentricity``'s BFS from every node.
    """
    keyed = KeyGraph.read(graph)
    sweep = keyed.shape[1] if keyed is not None else None
    if sweep is None:
        return nx.eccentricity(graph)
    return dict(zip(keyed.uids, sweep.eccentricities().tolist()))


def adversarial_max_far(graph: nx.Graph, seed: int = 0) -> nx.Graph:
    """Place the maximum UID at a node of maximum eccentricity.

    The committee algorithms elect the maximum UID; placing it as far as
    possible from the rest maximizes information-propagation distance.
    Ties go to the largest label.
    """
    nodes = sorted(graph.nodes())
    n = len(nodes)
    if n == 1:
        return graph
    ecc = eccentricities(graph)
    far_node = max(ecc, key=lambda v: (ecc[v], v))
    perm = max_far_permutation(n, nodes.index(far_node), seed)
    return relabel(graph, {v: perm[i] for i, v in enumerate(nodes)})


def increasing_along_order(graph: nx.Graph) -> nx.Graph:
    """UIDs increase along the generator's recorded structural order.

    Requires ``graph.graph['order']`` (lines and rings record it); this is
    how the increasing-order rings of Definition D.8 are produced.
    """
    order = graph.graph.get("order")
    if order is None:
        raise ConfigurationError("graph has no recorded structural order")
    mapping = {v: i for i, v in enumerate(order)}
    return relabel(graph, mapping)
