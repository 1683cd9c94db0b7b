"""Structured family graphs arrive as key arrays.

``families.make`` builds every structured family as an
:class:`~repro.graphs.families.ArrayGraph`: its final UIDs and sorted
packed undirected keys, with the networkx graph built only on first
networkx access.  These tests pin the carried keys to the reader's keys
of the built graph, and pin that a bulk checked cell and its offline
audit never build the networkx graph.  ``test_family_build.py`` pins the
built graph itself to the generator-then-relabel chain.
"""

import copy
import pickle

import networkx as nx
import numpy as np
import pytest

from repro import conformance
from repro.analysis import sweep
from repro.engine.graph_keys import adjacency_keys
from repro.engine.tracebin import trace_sink_for
from repro.graphs import families
from repro.graphs.families import ArrayGraph
from repro.registry import get_scenario

STRUCTURED = (
    "line", "line_adversarial", "ring", "increasing_ring", "grid",
    "caterpillar", "star", "cbt", "gnp",
)


def _seeds(family):
    return (0,) if family in families.UID_STRUCTURED_FAMILIES else (0, 1, 77)


def _built(graph: ArrayGraph) -> nx.Graph:
    """The same graph, built: a pickle round trip keeps the arrays, so
    the copy can be built while ``graph`` stays as it is."""
    other = pickle.loads(pickle.dumps(graph))
    assert type(other) is ArrayGraph
    other.adj  # any networkx access builds it
    assert type(other) is nx.Graph
    return other


@pytest.mark.parametrize("n", [2, 3, 17, 64, 300])
@pytest.mark.parametrize("family", STRUCTURED)
def test_carried_keys_equal_the_built_graphs_keys(family, n):
    for seed in _seeds(family):
        g = families.make(family, n, seed=seed)
        assert type(g) is ArrayGraph, (family, n, seed)
        carried = adjacency_keys(g)
        read = adjacency_keys(_built(g)._adj)
        assert carried[0] == read[0] and carried[1] is None is read[1]
        for got, want in zip(carried[2:], read[2:]):
            assert got.dtype == want.dtype and np.array_equal(got, want), (family, n, seed)


@pytest.mark.parametrize("family", STRUCTURED)
def test_size_and_metadata_build_nothing(family):
    g = families.make(family, 40)
    meta = dict(g.graph)
    assert len(g) == g.number_of_nodes() == len(_built(g))
    assert type(g) is ArrayGraph
    assert g.graph == meta and g.graph["kind"]
    g.nodes  # the first networkx access
    assert type(g) is nx.Graph and g.graph == meta


def test_a_built_graph_is_read_from_its_adjacency():
    # Once built, the graph may change, so the reader no longer takes
    # the carried keys.
    g = families.make("ring", 12, seed=4)
    g.add_edge(0, 5)
    assert not hasattr(g, "slot_key_arrays")
    uids, _, keys, _ = adjacency_keys(g)
    assert uids == list(range(12))
    assert keys.size == 13 and 5 in (keys & 0xFFFFFFFF)[keys >> 32 == 0]


def test_copies_build_the_same_graph():
    # Copies and pickles keep the arrays; networkx's own copies build.
    g = families.make("caterpillar", 20, seed=2)
    want = list(_built(g).adjacency())
    for lazy in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(lazy) is ArrayGraph
        assert list(lazy.adjacency()) == want
    for built in (nx.Graph(g), g.copy()):
        assert type(built) is nx.Graph and list(built.adjacency()) == want
    assert type(ArrayGraph()) is nx.Graph


@pytest.mark.parametrize(
    "algorithm, family", [("star", "ring"), ("wreath", "gnp"), ("wreath", "increasing_ring")]
)
def test_bulk_checked_cell_and_audit_never_build_networkx(algorithm, family, tmp_path):
    # The calls a checked bulk sweep cell makes, then the offline audit
    # of the archive it wrote.
    spec = get_scenario(algorithm)
    graph = families.make(family, 96)
    checkers = conformance.make_checkers(spec.invariants)
    path = str(tmp_path / "cell.rtb")
    sink = trace_sink_for(path)
    try:
        result = spec.runner(graph, backend="bulk", observers=[*checkers, sink])
    finally:
        sink.close()
    row = sweep.measure(algorithm, family, graph, result)
    row.extra.update(conformance.verdict_columns(checkers))
    verdicts = conformance.check_trace_parallel(graph, path, spec.invariants, jobs=2)
    assert type(graph) is ArrayGraph
    assert row.n == 96
    live = [(c.name, c.ok, c.verdict().detail) for c in checkers]
    assert [(v.invariant, v.ok, v.detail) for v in verdicts] == live
