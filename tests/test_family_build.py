"""One-pass family builds equal the generator-then-relabel chain.

``families.make`` inserts each family's nodes and edges once, already
under their final UIDs.  These tests pin it to the chain it replaces,
written with the public API: the generator graph, relabelled by the
family's UID scheme, then by ``random_uids(seed)`` for a reseeded
instance.  "Equal" is strict: node order, each node's adjacency order,
edge data and ``graph.graph``.  The gnp generator's bulk draw is checked
on its own against a pure-Python restatement of networkx's per-pair loop.
"""

import math
import random
import subprocess
import sys
from itertools import combinations

import networkx as nx
import pytest

from repro import graphs
from repro.errors import ConfigurationError
from repro.graphs import families, uids
from repro.graphs import generators as gen


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


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_make_rejects_negative_seeds(family):
    # random.Random(-k) is random.Random(k): a negative seed would
    # silently repeat a positive one.
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        families.make(family, 8, seed=-1)


# G(n, p): the bulk draw against a pure-Python restatement of
# ``nx.gnp_random_graph``'s per-pair loop.

_GNP_SEEDS = (0, 1, 99, 2**70 + 5)


def _gnp_oracle_pairs(n: int, p: float, seed: int) -> list:
    """Each pair in combinations order, kept when the next
    ``random.Random(seed).random()`` is below ``p``."""
    rng = random.Random(seed)
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def _gnp_oracle(n: int, p: float, seed: int) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(_gnp_oracle_pairs(n, p, seed))
    return g


def _connected_gnp_oracle(n: int, p: float, seed: int):
    """``random_connected_gnp`` on :func:`_gnp_oracle`, and how many
    seeds it tried (``CONNECT_ATTEMPTS`` when it fell back)."""
    for tried in range(gen.CONNECT_ATTEMPTS):
        g = _gnp_oracle(n, p, seed + tried)
        if nx.is_connected(g):
            break
    else:
        tried = gen.CONNECT_ATTEMPTS
        comps = [list(c) for c in nx.connected_components(g)]
        rng = random.Random(seed)
        for a, b in zip(comps, comps[1:]):
            g.add_edge(rng.choice(a), rng.choice(b))
    g.graph["kind"] = "gnp"
    return g, tried


@pytest.mark.parametrize("p", [0, 1e-3, 0.5, 1, 1.5])
@pytest.mark.parametrize("n", [2, 3, 5, 64, 1000])
def test_gnp_attempt_equals_the_python_stream(n, p):
    # The bulk draw keeps the same pairs for any p; the attempt graph
    # runs it for 0 < p < 1 and networkx elsewhere.  A dense graph's
    # layout costs seconds to compare, so those compare by pairs only.
    for seed in _GNP_SEEDS:
        assert list(gen.gnp_pairs(n, p, seed)) == _gnp_oracle_pairs(n, p, seed), seed
    if n * p < 100:
        for seed in _GNP_SEEDS:
            assert _layout(gen._gnp_graph(n, p, seed)) == _layout(_gnp_oracle(n, p, seed))


@pytest.mark.parametrize("seed", _GNP_SEEDS)
def test_gnp_pairs_at_the_threshold(seed):
    # Random p almost never lands next to a drawn value, where the
    # integer compare's rounding and its low 26 bits decide.  Put p
    # exactly on drawn values and one ulp either side of them.
    n = 64
    rng = random.Random(seed)
    values = sorted(rng.random() for _ in combinations(range(n), 2))
    for v in (values[0], values[len(values) // 10], values[len(values) // 2]):
        for p in (math.nextafter(v, 0), v, math.nextafter(v, 1)):
            assert list(gen.gnp_pairs(n, p, seed)) == _gnp_oracle_pairs(n, p, seed), p


def test_gnp_attempt_equals_installed_networkx():
    assert _layout(gen._gnp_graph(300, 0.03, 7)) == _layout(
        nx.gnp_random_graph(300, 0.03, seed=7)
    )


@pytest.mark.parametrize("n, p, seeds, tried", [
    (20, 0.15, range(3), {3, 2, 1}),  # the first attempts are disconnected
    (64, 1e-3, _GNP_SEEDS, {gen.CONNECT_ATTEMPTS}),  # every attempt is
    (12, 0.5, _GNP_SEEDS, {0}),
])
def test_random_connected_gnp_paths(n, p, seeds, tried):
    seen = set()
    for seed in seeds:
        expected, attempts = _connected_gnp_oracle(n, p, seed)
        seen.add(attempts)
        assert _layout(graphs.random_connected_gnp(n, p, seed=seed)) == _layout(expected)
    assert seen == tried


def _gnp_family_oracle(n: int, seed: int):
    g, tried = _connected_gnp_oracle(n, gen.gnp_p(n), n)
    g = uids.random_uids(g, seed=n + 1)
    return (uids.random_uids(g, seed=seed) if seed else g), tried


def test_gnp_family_retry_path():
    # At n=2 the family's first attempt (seed 2) draws no edge.
    for seed in (0, 1, 1001):
        expected, tried = _gnp_family_oracle(2, seed)
        assert tried == 1
        assert _layout(families.make("gnp", 2, seed=seed)) == _layout(expected)


def test_gnp_family_fallback_path(monkeypatch):
    # Far below the connectivity threshold every attempt is disconnected,
    # and the family takes the generator's chain-connecting fallback.
    monkeypatch.setattr(gen, "gnp_p", lambda n: 0.01)
    for seed in (0, 1, 1001):
        expected, tried = _gnp_family_oracle(64, seed)
        assert tried == gen.CONNECT_ATTEMPTS
        assert _layout(families.make("gnp", 64, seed=seed)) == _layout(expected)


def test_gnp_build_does_not_import_numpy_random():
    # numpy.random alone adds about 2 MB of resident memory to a run.
    child = (
        "import sys; from repro.graphs import families; "
        "families.make('gnp', 256, seed=1); "
        "print('numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
