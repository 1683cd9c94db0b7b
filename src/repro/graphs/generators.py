"""Initial-network generators for experiments and tests.

All generators return :class:`networkx.Graph` objects whose integer node
labels double as UIDs.  Structural positions are generated with canonical
labels ``0..n-1`` first; UID schemes from :mod:`repro.graphs.uids` can then
permute them.  Generators that embed orientation or geometry record it in
``graph.graph`` metadata (e.g. ``graph.graph["order"]`` for lines/rings).
"""

from __future__ import annotations

import math
import random
from typing import Callable

import networkx as nx
import numpy as np

from ..errors import ConfigurationError


def _require_positive(n: int) -> None:
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")


# Structures.  Each structured generator's edges, stated once as two
# endpoint arrays ``(u, v)``, in the order a relabel copy
# (``nx.relabel_nodes(copy=True)``) re-inserts them: node by node in label
# order, each node's not-yet-listed neighbours in adjacency order.  The
# generators below insert them as listed, and ``families.make`` inserts
# the same lists straight under their final UIDs, so a one-pass family
# graph equals the relabelled generator graph down to each node's
# adjacency order (DESIGN.md, "Graph families").


def line_edges(n: int):
    u = np.arange(max(n - 1, 0), dtype=np.int64)
    return u, u + 1


def ring_edges(n: int):
    """The ring's closing edge comes second, where a relabelled
    ``cycle_graph`` lists it (:func:`ring_graph` itself inserts it last)."""
    inner = np.arange(1, n - 1, dtype=np.int64)
    return np.concatenate(([0, 0], inner)), np.concatenate(([1, n - 1], inner + 1))


def star_edges(n: int, center: int):
    v = np.arange(n - 1, dtype=np.int64)
    v[center:] += 1
    return np.full(n - 1, center, dtype=np.int64), v


def cbt_edges(n: int):
    v = np.arange(1, n, dtype=np.int64)
    return (v - 1) // 2, v


def _rows(u, nbrs, keep):
    """Node ``u[i]``'s edges to ``nbrs[i, j]`` where ``keep[i, j]``, row
    by row: the relabel order of a generator listing each node's
    neighbours in column order."""
    keep = keep.ravel()
    return u.repeat(nbrs.shape[1])[keep], nbrs.ravel()[keep]


def grid_edges(rows: int, cols: int):
    v = np.arange(rows * cols, dtype=np.int64)
    return _rows(
        v,
        np.column_stack((v + 1, v + cols)),
        np.column_stack((v % cols + 1 < cols, v < (rows - 1) * cols)),
    )


def caterpillar_edges(spine: int, legs_per_node: int):
    s = np.arange(spine, dtype=np.int64)
    legs = spine + s[:, None] * legs_per_node + np.arange(legs_per_node)
    keep = np.ones((spine, 1 + legs_per_node), dtype=bool)
    keep[:, 0] = s + 1 < spine
    return _rows(s, np.column_stack((s + 1, legs)), keep)


def pairs(edges):
    """The ``(u, v)`` endpoint arrays as Python int pairs, in order."""
    u, v = edges
    return zip(u.tolist(), v.tolist())


def _graph(count: int, edges, **meta) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(count))
    g.add_edges_from(pairs(edges))
    g.graph.update(meta)
    return g


def line_graph(n: int) -> nx.Graph:
    """A spanning line ``0 - 1 - ... - n-1`` (the paper's hardest G_s)."""
    _require_positive(n)
    return _graph(n, line_edges(n), order=list(range(n)), kind="line")


def ring_graph(n: int) -> nx.Graph:
    """A ring ``0 - 1 - ... - n-1 - 0``."""
    if n < 3:
        raise ConfigurationError(f"a ring needs n >= 3, got {n}")
    g = nx.cycle_graph(n)
    g.graph["order"] = list(range(n))
    g.graph["kind"] = "ring"
    return g


def increasing_order_ring(n: int) -> nx.Graph:
    """The increasing-order ring of Definition D.8.

    UIDs are assigned in increasing order clockwise starting from an
    arbitrary node; with canonical labels this is exactly
    :func:`ring_graph`, so the definition is explicit in the name.
    """
    return ring_graph(n)


def star_graph(n: int, center: int | None = None) -> nx.Graph:
    """A spanning star on ``n`` nodes; ``center`` defaults to ``n - 1``."""
    _require_positive(n)
    c = (n - 1) if center is None else center
    return _graph(n, star_edges(n, c), center=c, kind="star")


def complete_binary_tree(n: int) -> nx.Graph:
    """A complete binary tree on ``n`` nodes (heap numbering, root 0)."""
    _require_positive(n)
    return _graph(n, cbt_edges(n), root=0, kind="cbt")


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """A uniformly random labelled tree (Prüfer sequence)."""
    _require_positive(n)
    if n <= 2:
        return line_graph(n)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    g = nx.from_prufer_sequence(prufer)
    g.graph["kind"] = "random_tree"
    return g


#: How many seeds :func:`first_connected` tries (``seed``, ``seed + 1``, ...).
CONNECT_ATTEMPTS = 60

#: Node pairs per bulk draw in :func:`gnp_edges` (two 32-bit words each).
_GNP_CHUNK = 1 << 14


def first_connected(attempt: Callable, seed: int, connected=nx.is_connected):
    """The first attempt among ``attempt(seed)``, ``attempt(seed + 1)``,
    ... (:data:`CONNECT_ATTEMPTS` of them) that ``connected`` accepts,
    or ``None`` when every attempt is disconnected."""
    for s in range(seed, seed + CONNECT_ATTEMPTS):
        g = attempt(s)
        if connected(g):
            return g
    return None


def gnp_p(n: int) -> float:
    """:func:`random_connected_gnp`'s default ``p``: slightly above the
    connectivity threshold."""
    return min(1.0, 2.2 * math.log(max(2, n)) / n)


def gnp_edges(n: int, p: float, seed: int):
    """The pairs ``nx.gnp_random_graph(n, p, seed=seed)`` keeps for
    ``0 < p < 1``, in its ``itertools.combinations`` order, as two
    endpoint arrays ``(u, v)`` (for other ``p >= 0`` it keeps none or
    all, as networkx does).

    That generator keeps pair ``i`` when the ``i``-th
    ``random.Random(seed).random()`` is below ``p``.  Each ``random()``
    call takes the next two 32-bit Mersenne Twister words ``(a, b)`` and
    returns ``x / 2**53`` with ``x = (a >> 5) << 26 | b >> 6``, and
    ``getrandbits(64 * k)`` returns the next ``2k`` words, the first in
    the lowest bits.  So the same pairs are the ``x < ceil(p * 2**53)``
    of the stream drawn in bulk, compared as integers in numpy chunks.
    """
    rng = random.Random(seed)
    threshold = math.ceil(p * 2.0**53)
    # x < threshold needs a >> 5 == x >> 26 <= (threshold - 1) >> 26.
    cut = ((threshold - 1) >> 26) + 1
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # index of pair (u, u + 1)
    total = n * (n - 1) // 2
    kept = [np.empty(0, dtype=np.int64)]
    for lo in range(0, total, _GNP_CHUNK):
        k = min(_GNP_CHUNK, total - lo)
        words = np.frombuffer(
            rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4"
        ).reshape(k, 2)
        high = words[:, 0] >> 5
        near = np.flatnonzero(high < cut)
        x = (high[near].astype(np.uint64) << np.uint64(26)) | (words[near, 1] >> 6)
        kept.append(near[x < np.uint64(threshold)] + lo)
    kept = np.concatenate(kept)
    u = np.searchsorted(starts, kept, side="right") - 1
    return u, kept - starts[u] + u + 1


def gnp_pairs(n: int, p: float, seed: int):
    """:func:`gnp_edges` as Python int pairs."""
    return pairs(gnp_edges(n, p, seed))


def spans(n: int, edges) -> bool:
    """Do the ``(u, v)`` endpoint arrays connect nodes ``0..n-1``?  One
    union-find fold (:func:`~repro.engine.edge_keys.uf_fold`): every
    node's root is the smallest label of its component."""
    from ..engine.edge_keys import uf_fold

    return not uf_fold(np.arange(n, dtype=np.int64), *edges).any()


def _gnp_graph(n: int, p: float, seed: int) -> nx.Graph:
    """``nx.gnp_random_graph(n, p, seed=seed)``, with the pairs drawn by
    :func:`gnp_edges` when ``0 < p < 1``."""
    if 0 < p < 1:
        return _graph(n, gnp_edges(n, p, seed))
    return nx.gnp_random_graph(n, p, seed=seed)


def random_connected_gnp(n: int, p: float | None = None, seed: int = 0) -> nx.Graph:
    """A connected Erdős–Rényi graph; retries until connected.

    ``p`` defaults to slightly above the connectivity threshold.
    """
    _require_positive(n)
    if n == 1:
        g = nx.Graph()
        g.add_node(0)
        return g
    if p is None:
        p = gnp_p(n)
    g = first_connected(lambda s: _gnp_graph(n, p, s), seed)
    if g is None:
        # Fall back: connect the last attempt's components along a random
        # spanning chain.
        g = _gnp_graph(n, p, seed + CONNECT_ATTEMPTS - 1)
        comps = [list(c) for c in nx.connected_components(g)]
        rng = random.Random(seed)
        for a, b in zip(comps, comps[1:]):
            g.add_edge(rng.choice(a), rng.choice(b))
    g.graph["kind"] = "gnp"
    return g


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """A 2-D grid with integer labels ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid dimensions must be >= 1")
    return _graph(rows * cols, grid_edges(rows, cols), kind="grid")


def random_regular(n: int, d: int = 3, seed: int = 0) -> nx.Graph:
    """A connected random ``d``-regular graph."""
    if n <= d:
        raise ConfigurationError("need n > d for a d-regular graph")
    g = first_connected(lambda s: nx.random_regular_graph(d, n, seed=s), seed)
    if g is None:
        raise ConfigurationError(f"could not generate a connected {d}-regular graph on {n} nodes")
    g.graph["kind"] = "regular"
    return g


def caterpillar(spine: int, legs_per_node: int = 1) -> nx.Graph:
    """A caterpillar: a spine path with pendant legs (bounded degree)."""
    _require_positive(spine)
    return _graph(
        spine * (1 + legs_per_node), caterpillar_edges(spine, legs_per_node),
        kind="caterpillar",
    )


def lollipop(clique: int, tail: int) -> nx.Graph:
    """A clique with a path tail: mixes dense and deep regions."""
    if clique < 2 or tail < 1:
        raise ConfigurationError("need clique >= 2 and tail >= 1")
    g = nx.complete_graph(clique)
    prev = 0
    for i in range(tail):
        v = clique + i
        g.add_edge(prev, v)
        prev = v
    g.graph["kind"] = "lollipop"
    return g


def barbell(clique: int, path: int) -> nx.Graph:
    """Two cliques joined by a path."""
    if clique < 2:
        raise ConfigurationError("need clique >= 2")
    g = nx.barbell_graph(clique, path)
    g.graph["kind"] = "barbell"
    return g


def hypercube(dim: int) -> nx.Graph:
    """A ``dim``-dimensional hypercube (2**dim nodes, degree dim)."""
    if dim < 1:
        raise ConfigurationError("need dim >= 1")
    g = nx.convert_node_labels_to_integers(nx.hypercube_graph(dim))
    g.graph["kind"] = "hypercube"
    return g


def binary_tree_with_path(tree_depth: int, path_len: int) -> nx.Graph:
    """A complete binary tree with a long path hanging off one leaf.

    Mixes logarithmic and linear diameter regions; a good adversarial case
    for committee algorithms.
    """
    size = 2 ** (tree_depth + 1) - 1
    g = complete_binary_tree(size)
    prev = size - 1  # a leaf in heap numbering
    for i in range(path_len):
        v = size + i
        g.add_edge(prev, v)
        prev = v
    g.graph["kind"] = "tree_with_path"
    return g
