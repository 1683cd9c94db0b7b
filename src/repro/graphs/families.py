"""A registry of named workload families for sweeps and benchmarks.

A family maps a target size ``n`` to a concrete initial network with a UID
scheme applied.  Benchmarks sweep families × sizes and report per-family
rows, which is how the experiment tables of the ``benchmarks/`` suite
are produced.
"""

from __future__ import annotations

import math
from typing import Callable

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from . import generators as gen
from . import uids

#: ``factory(n, seed)``: the family's graph at size ``n`` with its UIDs
#: re-permuted by ``seed`` (see :func:`make`).
Family = Callable[[int, int], nx.Graph]


def _reseed(perm: list[int], seed: int) -> list[int]:
    """Compose a family's UIDs with ``random_uids(..., seed=seed)`` applied
    to the family graph (whose UIDs are ``0..len(perm)-1``)."""
    if not seed:
        return perm
    again = uids.random_permutation(len(perm), seed)
    return [again[uid] for uid in perm]


class _Unbuilt:
    """``ArrayGraph``'s ``_node``/``_adj``: the first read or write builds
    the networkx graph, which then answers as a plain ``nx.Graph``."""

    def __set_name__(self, owner, name) -> None:
        self.name = name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        graph._materialize()
        return getattr(graph, self.name)

    def __set__(self, graph, value) -> None:
        graph._materialize()
        setattr(graph, self.name, value)


class ArrayGraph(nx.Graph):
    """A structured family's graph, held as arrays until networkx is
    asked for.

    It carries the final UIDs, ``0..n-1`` in the order the nodes are
    inserted, and the sorted packed undirected keys over them (the
    :mod:`repro.engine.edge_keys` layout: ``lo << 32 | hi``).  The bulk
    engine, the array checkers and the offline audit read those through
    :meth:`slot_key_arrays` (the one reader,
    :func:`repro.engine.graph_keys.adjacency_keys`).  ``len()``,
    ``number_of_nodes()`` and ``graph.graph`` read no networkx state;
    the first access to ``_node`` or ``_adj`` (any other networkx use)
    inserts the nodes and edges once, in the generator's order under
    their final UIDs, and the graph becomes a plain ``nx.Graph`` that
    no longer carries the arrays.  Built directly (``copy()`` and
    networkx's views do that), the class is a plain ``nx.Graph``.
    """

    _node = _Unbuilt()
    _adj = _Unbuilt()

    @classmethod
    def of(cls, edges, perm: list, **meta) -> ArrayGraph:
        """Nodes ``0..len(perm)-1`` and ``edges`` (endpoint arrays, as
        :mod:`.generators` lists them), node ``v`` under UID ``perm[v]``."""
        g = cls.__new__(cls)
        g.graph = meta
        g.__networkx_cache__ = {}
        uid = np.array(perm, dtype=np.int64)
        a, b = uid[edges[0]], uid[edges[1]]
        keys = (np.minimum(a, b) << 32) | np.maximum(a, b)
        keys.sort()
        keys.flags.writeable = False
        g._perm, g._ends, g._keys = perm, (a, b), keys
        return g

    def __len__(self) -> int:
        return len(self._perm)

    def number_of_nodes(self) -> int:
        return len(self._perm)

    def slot_key_arrays(self):
        """``(uids, keys, dirs)``: the sorted UIDs (exactly ``0..n-1``),
        and the sorted undirected and directed packed keys."""
        from ..engine.edge_keys import both_dirs

        keys = self._keys
        return list(range(len(self._perm))), keys, both_dirs(keys)

    def _materialize(self) -> None:
        state = self.__dict__
        perm, ends = state.pop("_perm", None), state.pop("_ends", None)
        state.pop("_keys", None)
        self.__class__ = nx.Graph
        self._node, self._adj = {}, {}
        if perm is not None:
            self.add_nodes_from(perm)
            self.add_edges_from(gen.pairs(ends))


def _relabelled(graph: nx.Graph, uid_seed: int, seed: int) -> nx.Graph:
    """One relabel copy of a generated graph on ``0..n-1``, by the family's
    ``random_uids(uid_seed)`` composed with the reseed."""
    perm = _reseed(uids.random_permutation(len(graph), uid_seed), seed)
    return uids.relabel(graph, dict(enumerate(perm)))


def _line(n: int, seed: int) -> nx.Graph:
    perm = _reseed(uids.random_permutation(n, n), seed)
    return ArrayGraph.of(gen.line_edges(n), perm, order=perm, kind="line")


def _line_adversarial(n: int, seed: int) -> nx.Graph:
    # A line's two ends tie for the largest eccentricity; the tie goes to
    # the larger label, n - 1.
    perm = uids.max_far_permutation(n, n - 1, seed=n)
    return ArrayGraph.of(gen.line_edges(n), perm, order=perm, kind="line")


def _ring(n: int, seed: int) -> nx.Graph:
    count = max(3, n)
    perm = _reseed(uids.random_permutation(count, n), seed)
    return ArrayGraph.of(gen.ring_edges(count), perm, order=perm, kind="ring")


def _increasing_ring(n: int, seed: int) -> nx.Graph:
    count = max(3, n)
    perm = list(range(count))  # UIDs increase along the ring's order
    return ArrayGraph.of(gen.ring_edges(count), perm, order=perm, kind="ring")


def _random_tree(n: int, seed: int) -> nx.Graph:
    return _relabelled(gen.random_tree(n, seed=n), n + 1, seed)


def _gnp(n: int, seed: int) -> nx.Graph:
    # Each attempt is tested by one array fold; the connected one keeps
    # its pairs in combinations order, as a relabel copy of the generator
    # graph re-inserts them.  Connectivity does not depend on the labels.
    perm = _reseed(uids.random_permutation(n, n + 1), seed)
    if n > 1:
        p = gen.gnp_p(n)
        edges = gen.first_connected(
            lambda s: gen.gnp_edges(n, p, s), n, lambda e: gen.spans(n, e)
        )
        if edges is not None:
            return ArrayGraph.of(edges, perm, kind="gnp")
    # One node, or the generator's chain-connecting fallback, which picks
    # nodes by their canonical labels.
    return uids.relabel(gen.random_connected_gnp(n, seed=n), dict(enumerate(perm)))


def _grid(n: int, seed: int) -> nx.Graph:
    side = max(2, int(math.isqrt(n)))
    perm = _reseed(uids.random_permutation(side * side, n), seed)
    return ArrayGraph.of(gen.grid_edges(side, side), perm, kind="grid")


def _regular3(n: int, seed: int) -> nx.Graph:
    m = n if n % 2 == 0 else n + 1
    return _relabelled(gen.random_regular(m, 3, seed=n), n + 1, seed)


def _caterpillar(n: int, seed: int) -> nx.Graph:
    spine = max(1, n // 2)
    perm = _reseed(uids.random_permutation(2 * spine, n), seed)
    return ArrayGraph.of(gen.caterpillar_edges(spine, 1), perm, kind="caterpillar")


def _star(n: int, seed: int) -> nx.Graph:
    perm = _reseed(uids.random_permutation(n, n), seed)
    return ArrayGraph.of(gen.star_edges(n, n - 1), perm, center=perm[n - 1], kind="star")


def _cbt(n: int, seed: int) -> nx.Graph:
    perm = _reseed(uids.random_permutation(n, n), seed)
    return ArrayGraph.of(gen.cbt_edges(n), perm, root=perm[0], kind="cbt")


FAMILIES: dict[str, Family] = {
    "line": _line,
    "line_adversarial": _line_adversarial,
    "ring": _ring,
    "increasing_ring": _increasing_ring,
    "random_tree": _random_tree,
    "gnp": _gnp,
    "grid": _grid,
    "regular3": _regular3,
    "caterpillar": _caterpillar,
    "star": _star,
    "cbt": _cbt,
}

BOUNDED_DEGREE_FAMILIES = (
    "line",
    "ring",
    "increasing_ring",
    "grid",
    "regular3",
    "caterpillar",
)

GENERAL_FAMILIES = (
    "line",
    "ring",
    "random_tree",
    "gnp",
    "grid",
)

#: Families whose UID placement *is* the workload: re-permuting their UIDs
#: (make(..., seed!=0)) would silently measure a different experiment.
#: Their factories ignore ``seed``, which :func:`make` holds at 0.
UID_STRUCTURED_FAMILIES = (
    "line_adversarial",
    "increasing_ring",
)


def check_seed(family: str, seed: int) -> None:
    """Raise :class:`ConfigurationError` unless :func:`make` takes
    ``seed`` for ``family`` (see there)."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if seed and family in UID_STRUCTURED_FAMILIES:
        raise ConfigurationError(
            f"family {family!r} is defined by its UID placement; re-permuting "
            f"UIDs with seed={seed} would destroy the workload (use seed=0)"
        )


def make(family: str, n: int, seed: int = 0) -> nx.Graph:
    """Instantiate a named family at size ``n`` (actual size may differ
    slightly for structured families such as grids).

    ``seed`` is 0 for the family's canonical instance; a positive seed
    deterministically re-permutes the UIDs, giving independent sweep
    repetitions.  A negative seed is rejected: ``random.Random`` seeds
    with its absolute value, so it would repeat the positive one.
    Families whose UID placement *is* the workload
    (:data:`UID_STRUCTURED_FAMILIES`) reject non-zero seeds, as reseeding
    would silently measure a different experiment.  ``n < 1`` is
    rejected for every family, including those that round small sizes up.

    The graph is built in one pass, already under its final UIDs: it
    equals the generator graph relabelled by the family's UID scheme and
    then by ``random_uids(..., seed=seed)``, node order, adjacency order
    and metadata included, without building either intermediate graph.
    Every family but random_tree, regular3 and the gnp fallback returns
    an :class:`ArrayGraph`: its key arrays are built here, and its
    networkx state only on first networkx access.
    """
    try:
        factory = FAMILIES[family]
    except KeyError:
        raise KeyError(f"unknown family {family!r}; known: {sorted(FAMILIES)}") from None
    gen._require_positive(n)
    check_seed(family, seed)
    return factory(n, seed)
