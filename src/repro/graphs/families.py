"""A registry of named workload families for sweeps and benchmarks.

A family maps a target size ``n`` to a concrete initial network with a UID
scheme applied.  Benchmarks sweep families × sizes and report per-family
rows, which is how the experiment tables in EXPERIMENTS.md are produced.
"""

from __future__ import annotations

import math
from typing import Callable

import networkx as nx

from ..errors import ConfigurationError
from . import generators as gen
from . import uids

Family = Callable[[int], nx.Graph]


def _line(n: int) -> nx.Graph:
    return uids.random_uids(gen.line_graph(n), seed=n)


def _line_adversarial(n: int) -> nx.Graph:
    return uids.adversarial_max_far(gen.line_graph(n), seed=n)


def _ring(n: int) -> nx.Graph:
    return uids.random_uids(gen.ring_graph(max(3, n)), seed=n)


def _increasing_ring(n: int) -> nx.Graph:
    return uids.increasing_along_order(gen.increasing_order_ring(max(3, n)))


def _random_tree(n: int) -> nx.Graph:
    return uids.random_uids(gen.random_tree(n, seed=n), seed=n + 1)


def _gnp(n: int) -> nx.Graph:
    return uids.random_uids(gen.random_connected_gnp(n, seed=n), seed=n + 1)


def _grid(n: int) -> nx.Graph:
    side = max(2, int(math.isqrt(n)))
    return uids.random_uids(gen.grid_graph(side, side), seed=n)


def _regular3(n: int) -> nx.Graph:
    m = n if n % 2 == 0 else n + 1
    return uids.random_uids(gen.random_regular(m, 3, seed=n), seed=n + 1)


def _caterpillar(n: int) -> nx.Graph:
    spine = max(1, n // 2)
    return uids.random_uids(gen.caterpillar(spine, 1), seed=n)


def _star(n: int) -> nx.Graph:
    return uids.random_uids(gen.star_graph(n), seed=n)


def _cbt(n: int) -> nx.Graph:
    return uids.random_uids(gen.complete_binary_tree(n), seed=n)


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
UID_STRUCTURED_FAMILIES = (
    "line_adversarial",
    "increasing_ring",
)


def make(family: str, n: int, seed: int = 0) -> nx.Graph:
    """Instantiate a named family at size ``n`` (actual size may differ
    slightly for structured families such as grids).

    ``seed`` is 0 for the family's canonical instance; a non-zero seed
    deterministically re-permutes the UIDs, giving independent sweep
    repetitions.  Families whose UID placement *is* the workload
    (:data:`UID_STRUCTURED_FAMILIES`) reject non-zero seeds, as reseeding
    would silently measure a different experiment.  ``n < 1`` is
    rejected for every family, including those that round small sizes up.
    """
    try:
        factory = FAMILIES[family]
    except KeyError:
        raise KeyError(f"unknown family {family!r}; known: {sorted(FAMILIES)}") from None
    gen._require_positive(n)
    if seed and family in UID_STRUCTURED_FAMILIES:
        raise ConfigurationError(
            f"family {family!r} is defined by its UID placement; re-permuting "
            f"UIDs with seed={seed} would destroy the workload (use seed=0)"
        )
    graph = factory(n)
    if seed:
        graph = uids.random_uids(graph, seed=seed)
    return graph
