"""Final-graph measures from key arrays.

``graph_keys.tree_pass`` (max degree by ``bincount``; on a spanning tree,
a BFS double sweep) backs ``graphs.diameter``, ``graphs.max_degree``,
``uids.eccentricities`` and ``sweep.measure``.  These tests hold it to
networkx: on random trees, paths, stars and brooms under int and
non-int labels, and on non-trees, which must take the networkx branch
and give networkx's answer.  Sweep rows must equal rows measured on
``final_graph()`` with networkx, on both backends, and a tree's row
must never copy the final network into networkx.  A deep tree must
keep networkx's speed.
"""

import json
import time
from unittest import mock

import networkx as nx
import pytest

from repro import conformance
from repro.analysis.sweep import measure
from repro.dynamics import AdversarySpec, make_adversary
from repro.engine import BACKENDS, Network, RunResult
from repro.graphs import diameter, families, max_degree
from repro.graphs.uids import eccentricities, random_uids
from repro.graphs.validate import KeyGraph
from repro.registry import get_scenario, scenarios

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

#: How a drawn label ``i`` (0..n-1) is named: the ints themselves, ints
#: spread out of 0..n-1 (non-identity interning), strings, and tuples.
LABELS = {
    "int": lambda i: i,
    "spread": lambda i: 3 * i + 7,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 5, i),
}


@st.composite
def trees(draw):
    """A random tree, path, star or broom on 1..200 nodes, under a
    random permutation of its labels.  A broom is a path with every
    other node hung on one path node: its BFS levels turn from narrow
    to wide and back, so both of the BFS's modes run in one walk."""
    n = draw(st.integers(1, 200))
    shape = draw(st.sampled_from(["random", "path", "star", "broom"]))
    if shape == "random":
        parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    elif shape == "path":
        parents = list(range(n - 1))
    elif shape == "star":
        parents = [0] * (n - 1)
    else:
        handle = draw(st.integers(1, n))
        hub = draw(st.integers(0, handle - 1))
        parents = list(range(handle - 1)) + [hub] * (n - handle)
    perm = draw(st.permutations(range(n)))
    name = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    g = nx.Graph()
    g.add_nodes_from(name(perm[v]) for v in range(n))
    g.add_edges_from((name(perm[p]), name(perm[v])) for v, p in enumerate(parents, 1))
    return g


def _max_degree_nx(g):
    return max((d for _, d in g.degree()), default=0)


@given(trees())
def test_tree_pass_equals_networkx(g):
    keyed = KeyGraph.read(g)
    assert keyed.shape[1] is not None  # the array branch
    assert diameter(g) == nx.diameter(g)
    assert max_degree(g) == _max_degree_nx(g)
    assert eccentricities(g) == nx.eccentricity(g)


def _nx_outcome(fn, g):
    """``fn(g)``'s value, or the type of what it raised."""
    try:
        return fn(g)
    except nx.NetworkXError as exc:
        return type(exc)


def _non_trees():
    cycles = [nx.cycle_graph(k) for k in (3, 4, 7, 10)]
    # n - 1 edges that do not connect n nodes: a cycle plus an isolated node.
    split = []
    for k in (3, 4, 9):
        g = nx.cycle_graph(k)
        g.add_node(k)
        split.append(g)
    # Two hubs joined by 70 paths of length 2, plus isolated nodes up to
    # n - 1 edges: a wide level reaches the second hub 70 times.
    bipartite = nx.complete_bipartite_graph(2, 70)
    bipartite.add_nodes_from(range(72, 141))
    # A cycle and a hub of 100 leaves, plus an isolated node.
    wheel = nx.cycle_graph(4)
    wheel.add_edges_from((0, v) for v in range(4, 104))
    wheel.add_node(104)
    split += [bipartite, wheel]
    gnps = [nx.gnp_random_graph(n, p, seed=s) for n, p, s in
            [(12, 0.3, 1), (30, 0.1, 2), (30, 0.3, 3), (40, 0.05, 4), (25, 0.5, 5)]]
    named = [nx.relabel_nodes(g, {v: f"v{v}" for v in g}) for g in cycles + split]
    return cycles + split + gnps + named


@pytest.mark.parametrize("g", _non_trees())
def test_non_trees_take_the_networkx_branch(g):
    assert KeyGraph.read(g).shape[1] is None
    assert _nx_outcome(diameter, g) == _nx_outcome(nx.diameter, g)
    assert _nx_outcome(eccentricities, g) == _nx_outcome(nx.eccentricity, g)
    assert max_degree(g) == _max_degree_nx(g)


@given(trees(), st.data())
def test_n_minus_one_edges_with_a_cycle_take_the_networkx_branch(g, data):
    """A tree less one edge, plus an edge inside one of its two parts:
    still ``n - 1`` edges, but a cycle and two components."""
    edges = sorted(g.edges(), key=repr)
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    g.remove_edge(u, v)
    part = sorted(nx.node_connected_component(g, u), key=repr)
    missing = [(a, b) for i, a in enumerate(part) for b in part[i + 1:] if not g.has_edge(a, b)]
    if not missing:
        return
    g.add_edge(*data.draw(st.sampled_from(missing)))
    assert KeyGraph.read(g).shape[1] is None
    assert _nx_outcome(diameter, g) == _nx_outcome(nx.diameter, g)
    assert max_degree(g) == _max_degree_nx(g)


def _nx_double_sweep(g):
    bfs = nx.single_source_shortest_path_length
    start = bfs(g, next(iter(g)))
    dist_a = bfs(g, max(start, key=start.get))
    dist_b = bfs(g, max(dist_a, key=dist_a.get))
    return {v: max(dist_a[v], dist_b[v]) for v in g}


def test_deep_tree_pass_keeps_networkx_speed():
    """A path of 10^4 nodes has 10^4 BFS levels of one slot each.  Its
    eccentricities must cost at most twice networkx's three-BFS double
    sweep (a BFS that pays numpy calls per level takes ~25x).  Best of
    five runs each, interleaved, so a slow spell of the host hits both."""
    g = nx.path_graph(10_000)
    assert eccentricities(g) == _nx_double_sweep(g)
    ours = theirs = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        eccentricities(g)
        middle = time.perf_counter()
        _nx_double_sweep(g)
        end = time.perf_counter()
        ours, theirs = min(ours, middle - start), min(theirs, end - middle)
    assert ours < 2 * theirs, (ours, theirs)


def test_unsortable_labels_fall_back_to_networkx():
    g = nx.Graph([(1, "a"), ("a", 2), (2, "b")])
    assert KeyGraph.read(g) is None
    assert diameter(g) == nx.diameter(g) == 3
    assert max_degree(g) == 2
    assert eccentricities(g) == nx.eccentricity(g)


# ----------------------------------------------------------------------
# sweep rows
# ----------------------------------------------------------------------

#: (scenario, family, n, adversary): every registered scenario, the
#: composition pipelines on a second family, and both self-healing
#: scenarios under crash, churn and drop strikes (a repair after a
#: crash runs on labels that are no longer 0..n-1).  ``spread`` relabels
#: a ring's UIDs out of 0..n-1: non-identity interning from the start.
ROW_CELLS = [
    *((name, "ring" if name != "cut-in-half" else "line", 16, None)
      for name in sorted(spec.name for spec in scenarios())),
    ("star", "gnp", 25, None),
    # flood-baseline keeps G_s: its final graph is a deep tree on these.
    *(("flood-baseline", fam, 40, None)
      for fam in ("line", "line_adversarial", "caterpillar", "random_tree")),
    ("star+flood", "grid", 25, None),
    ("wreath+flood", "line", 17, None),
    ("star+leader", "random_tree", 21, None),
    ("star", "spread", 24, None),
    ("wreath", "spread", 16, None),
    *((name, "ring", 16, AdversarySpec(kind=kind, rate=0.2, seed=3, policy="reroute"))
      for name in ("star-heal", "wreath-heal") for kind in ("crash", "churn", "drop")),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "algorithm,family,n,adv", ROW_CELLS,
    ids=[f"{a}-{f}-n{n}-{x.kind if x else 'plain'}" for a, f, n, x in ROW_CELLS],
)
def test_rows_equal_networkx_rows(algorithm, family, n, adv, backend):
    spec = get_scenario(algorithm)
    if not spec.supports_backend and backend != "reference":
        pytest.skip("centralized strategies have no backend")
    if family == "spread":
        graph = random_uids(families.make("ring", n), seed=1, spread=3)
    else:
        graph = families.make(family, n)
    kwargs = {"backend": backend} if spec.supports_backend else {}
    if adv is not None:
        kwargs["adversary"] = make_adversary(adv)
    result = spec.runner(graph, **kwargs)
    with mock.patch.object(result, "final_graph", wraps=result.final_graph) as copy:
        row = measure(algorithm, family, graph, result)
    final = result.final_graph()
    # Only a final graph that is not a tree is copied into networkx.
    assert copy.called == (not nx.is_tree(final))
    measured = (row.final_diameter, row.final_max_degree)
    assert measured == (nx.diameter(final), _max_degree_nx(final))
    # Python ints, so the row serializes exactly as before.
    assert {type(v) for v in measured} == {int}
    json.dumps(row.as_dict())


def test_checked_bulk_star_row_makes_no_networkx_copy():
    """A tree's final measures read the bulk network's key arrays: no
    ``final_graph()`` and no ``snapshot_graph()``."""
    spec = get_scenario("star")
    graph = families.make("ring", 4096)
    checkers = conformance.make_checkers(spec.invariants)
    result = spec.runner(graph, backend="bulk", observers=checkers)
    copy = AssertionError("the final network was copied into networkx")
    with mock.patch.object(RunResult, "final_graph", side_effect=copy), \
            mock.patch.object(Network, "snapshot_graph", side_effect=copy):
        row = measure("star", "ring", graph, result)
    assert (row.final_diameter, row.final_max_degree) == (2, 4095)
    assert all(v == "ok" for v in conformance.verdict_columns(checkers).values())
