"""One-pass family builds equal the generator-then-relabel chain.

``families.make`` inserts each family's nodes and edges once, already
under their final UIDs.  These tests pin it to the chain it replaces,
written with the public API: the generator graph, relabelled by the
family's UID scheme, then by ``random_uids(seed)`` for a reseeded
instance.  "Equal" is strict: node order, each node's adjacency order,
edge data and ``graph.graph``.
"""

import math
import random

import networkx as nx
import pytest

from repro import graphs
from repro.errors import ConfigurationError
from repro.graphs import families, uids


def _chain(family: str, n: int):
    """The family graph as generator + ``uids`` relabel copies."""
    if family == "line":
        return uids.random_uids(graphs.line_graph(n), seed=n)
    if family == "line_adversarial":
        return uids.adversarial_max_far(graphs.line_graph(n), seed=n)
    if family == "ring":
        return uids.random_uids(graphs.ring_graph(max(3, n)), seed=n)
    if family == "increasing_ring":
        return uids.increasing_along_order(graphs.increasing_order_ring(max(3, n)))
    if family == "random_tree":
        return uids.random_uids(graphs.random_tree(n, seed=n), seed=n + 1)
    if family == "gnp":
        return uids.random_uids(graphs.random_connected_gnp(n, seed=n), seed=n + 1)
    if family == "grid":
        side = max(2, math.isqrt(n))
        return uids.random_uids(graphs.grid_graph(side, side), seed=n)
    if family == "regular3":
        m = n if n % 2 == 0 else n + 1
        return uids.random_uids(graphs.random_regular(m, 3, seed=n), seed=n + 1)
    if family == "caterpillar":
        return uids.random_uids(graphs.caterpillar(max(1, n // 2), 1), seed=n)
    if family == "star":
        return uids.random_uids(graphs.star_graph(n), seed=n)
    if family == "cbt":
        return uids.random_uids(graphs.complete_binary_tree(n), seed=n)
    raise AssertionError(f"no reference chain for {family!r}")


def _layout(g: nx.Graph):
    return (
        list(g.nodes(data=True)),
        [(v, list(g.adj[v].items())) for v in g],
        g.graph,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000])
@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_make_equals_the_relabel_chain(family, n):
    seeds = (0,) if family in families.UID_STRUCTURED_FAMILIES else (0, 1, 1001)
    try:
        base = _chain(family, n)
    except ConfigurationError:
        # The family does not exist at this size; make says so too.
        with pytest.raises(ConfigurationError):
            families.make(family, n)
        return
    for seed in seeds:
        expected = uids.random_uids(base, seed=seed) if seed else base
        assert _layout(families.make(family, n, seed=seed)) == _layout(expected), (
            family, n, seed,
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda: graphs.line_graph(9),
        lambda: graphs.star_graph(9),
        lambda: graphs.star_graph(9, center=4),
        lambda: graphs.complete_binary_tree(12),
        lambda: graphs.grid_graph(3, 4),
        lambda: graphs.caterpillar(4, 2),
    ],
)
def test_structured_generators_insert_in_relabel_order(build):
    # Their edge lists are already in the order a relabel copy
    # re-inserts them, so relabelling by the identity changes nothing.
    g = build()
    assert _layout(uids.relabel(g, {v: v for v in g})) == _layout(g)


def _random_tree(n: int, seed: int) -> nx.Graph:
    rng = random.Random(seed)
    g = nx.Graph()
    g.add_node(0)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g


def _max_far_by_nx(graph: nx.Graph, seed: int) -> nx.Graph:
    """``adversarial_max_far`` written on ``nx.eccentricity``."""
    nodes = sorted(graph.nodes())
    ecc = nx.eccentricity(graph)
    far = max(ecc, key=lambda v: (ecc[v], v))
    rest = [v for v in nodes if v != far]
    random.Random(seed).shuffle(rest)
    mapping = {far: len(nodes) - 1}
    mapping.update({v: i for i, v in enumerate(rest)})
    return uids.relabel(graph, mapping)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 61, 200])
def test_tree_eccentricities_match_networkx(n):
    for tree in (graphs.line_graph(n), _random_tree(n, n), graphs.random_tree(n, seed=n)):
        assert uids.eccentricities(tree) == nx.eccentricity(tree)
        for seed in (0, n):
            assert _layout(uids.adversarial_max_far(tree, seed=seed)) == _layout(
                _max_far_by_nx(tree, seed)
            )


def test_non_tree_eccentricities_fall_back_to_networkx():
    for g in (graphs.ring_graph(9), graphs.grid_graph(3, 5), nx.complete_graph(4)):
        assert uids.eccentricities(g) == nx.eccentricity(g)
