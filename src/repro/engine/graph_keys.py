"""Whole graphs as key arrays: one reader, one measure pass.

:func:`adjacency_keys` reads a graph's adjacency (a networkx graph's or a
reference network's) into the :mod:`repro.engine.edge_keys` layout, or
takes the key arrays a family graph carries.
:class:`~repro.engine.dense.DenseNetwork` builds its initial arrays
with it, and the final graph measures read networks and graphs with it.
:func:`tree_pass` measures such an edge set: every degree by one
``bincount``, and on a spanning tree every eccentricity by a BFS double
sweep (array frontiers while levels are wide, a plain queue while they
are narrow).  ``graphs.diameter``, ``graphs.max_degree``,
``uids.eccentricities`` and sweep rows all read it (DESIGN.md, "Sweeps").
"""

from __future__ import annotations

from collections import deque
from itertools import chain

import numpy as np

from .edge_keys import MASK, SHIFT, both_dirs, slice_starts


def adjacency_keys(graph):
    """A graph's adjacency as key arrays: ``(uids, idx_of, keys, dirs)``.

    ``graph`` is a networkx graph or any mapping of node to neighbors (a
    reference network's ``_adj``).  A graph that carries its key arrays
    (``slot_key_arrays()``, as ``families.make``'s structured families
    do) hands them over; any other is read from its adjacency.  Nodes
    are interned in sorted label order (``uids``; a ``TypeError`` when
    the labels do not sort), and ``idx_of`` maps label to slot — None
    when the labels are exactly the ints ``0..n-1``, which are their
    own slots.  ``keys``/``dirs`` are the sorted undirected/directed
    packed keys: every directed edge once, sorted, and the undirected
    keys are its ``(lo, hi)`` half (a self-loop is one undirected key
    and two directed ones)."""
    carried = getattr(graph, "slot_key_arrays", None)
    if carried is not None:
        uids, keys, dirs = carried()
        return uids, _slot_index(uids), keys, dirs
    adj = getattr(graph, "_adj", graph)
    n = len(adj)
    uids = sorted(adj)
    degrees = np.fromiter(map(len, adj.values()), np.int64, n)
    total = int(degrees.sum())
    idx_of = _slot_index(uids)
    if idx_of is None:
        src = np.fromiter(adj, np.int64, n)
        dst = np.fromiter(chain.from_iterable(adj.values()), np.int64, total)
    else:
        src = np.fromiter(map(idx_of.__getitem__, adj), np.int64, n)
        dst = np.fromiter(
            map(idx_of.__getitem__, chain.from_iterable(adj.values())), np.int64, total
        )
    dirs = (src.repeat(degrees) << SHIFT) | dst
    dirs.sort()
    keys = dirs[(dirs >> SHIFT) <= (dirs & MASK)]
    if keys.size and (dirs.size != 2 * keys.size):  # self-loops
        dirs = both_dirs(keys)
    return uids, idx_of, keys, dirs


def _slot_index(uids: list):
    """Label -> slot for the sorted labels ``uids``; None when they are
    exactly the ints ``0..n-1``."""
    if all(type(u) is int for u in uids) and uids == list(range(len(uids))):
        return None
    return {u: i for i, u in enumerate(uids)}


def slot_keys(graph):
    """``(uids, keys)`` of :func:`adjacency_keys`: the sorted labels and
    the sorted undirected packed keys over their positions, the final
    measures' input (``Network.slot_keys``, ``KeyGraph.read``)."""
    uids, _, keys, _ = adjacency_keys(graph)
    return uids, keys


def tree_pass(n: int, keys):
    """The max degree of the graph on slots ``0..n-1`` with the sorted
    undirected ``keys`` and, when they form a spanning tree, its double
    sweep: ``(max_degree, sweep)``, ``sweep`` a :class:`Sweep` or None.

    One ``bincount`` gives every degree (a self-loop counts twice, as in
    networkx).  ``n - 1`` keys that reach every slot form a spanning
    tree, and on a tree a double sweep is exact: the slot farthest from
    slot 0 is a diameter end ``a``, and the slot farthest from ``a`` is
    the other end.  Each distance is one BFS over the CSR view
    (:class:`_Csr`)."""
    if n == 0:
        return 0, None
    degrees = np.bincount(np.concatenate((keys >> SHIFT, keys & MASK)), minlength=n)
    top = int(degrees.max())
    if keys.size != n - 1:
        return top, None
    csr = _Csr(degrees, keys)
    dist = csr.bfs(0)
    if dist is None:
        return top, None
    return top, Sweep(csr, csr.bfs(int(dist.argmax())))


class Sweep:
    """A spanning tree's double sweep: ``far`` holds every slot's
    distance from a diameter end ``a``."""

    def __init__(self, csr: _Csr, far) -> None:
        self._csr = csr
        self.far = far

    @property
    def diameter(self) -> int:
        return int(self.far.max())

    def eccentricities(self):
        """Every slot's eccentricity: every slot's farthest slot is a
        diameter end, ``a`` or the slot ``b`` farthest from it, so
        ``ecc = max(d(., a), d(., b))``; one more BFS, from ``b``."""
        return np.maximum(self.far, self._csr.bfs(int(self.far.argmax())))


#: A BFS level whose frontier has fewer neighbor slots than this runs in
#: plain Python: below it, a level's ~15 numpy calls cost more than
#: visiting its slots one by one.
_NARROW = 64


class _Csr:
    """The CSR view of ``n - 1`` undirected keys: slot ``s``'s neighbors
    are ``nbrs[starts[s]:starts[s + 1]]`` (the directed keys, sliced by
    the degrees), with memoryviews of the same arrays for the walk."""

    def __init__(self, degrees, keys) -> None:
        self.degrees = degrees
        self.starts = slice_starts(degrees)
        self.nbrs = both_dirs(keys) & MASK
        self.views = memoryview(self.starts), memoryview(self.nbrs), memoryview(degrees)

    def bfs(self, source: int):
        """Distances from ``source``, one level per pass; None when the
        keys are not a spanning tree.

        A wide level is a frontier BFS: the frontier's neighbor slices,
        flattened, less the slots already reached.  A leaf's one
        neighbor is reached already, so only inner slots expand, and
        only they can be reached twice in one level, which proves a
        cycle: the BFS stops there rather than expand a slot twice.  A
        narrow level (deep trees: paths, caterpillars, the
        ends of a random tree) goes to :meth:`_walk` until a level is
        wide again.  The keys are a spanning tree exactly when every
        slot is reached: ``n - 1`` edges that connect ``n`` slots."""
        starts, degrees, nbrs = self.starts, self.degrees, self.nbrs
        n = degrees.size
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        owner = np.empty(n, dtype=np.int64)
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            cnt = degrees[frontier]
            ends = cnt.cumsum()
            width = int(ends[-1])
            if width < _NARROW:
                frontier, level = self._walk(dist, frontier.tolist(), level)
                continue
            # The flat index of the j-th neighbor of frontier slot f: starts[f] + j.
            flat = np.arange(width) + (starts[frontier] - (ends - cnt)).repeat(cnt)
            nxt = nbrs[flat]
            nxt = nxt[dist[nxt] < 0]
            level += 1
            dist[nxt] = level
            frontier = nxt[degrees[nxt] > 1]
            rank = np.arange(frontier.size)
            owner[frontier] = rank
            if (owner[frontier] != rank).any():
                return None
        return dist if dist.min() >= 0 else None

    def _walk(self, dist, frontier: list, level: int):
        """A plain queue BFS from ``frontier`` (the slots at ``level``),
        reading and writing ``dist`` through a memoryview.  It stops at
        the first level whose slots have ``_NARROW`` or more neighbor
        slots and returns ``(that level's slots, its level)``; an empty
        frontier once every reachable slot is reached."""
        starts, nbrs, degrees = self.views
        seen = memoryview(dist)
        queue = deque(frontier)
        pop, push = queue.popleft, queue.append
        width = 0  # the neighbor slots of the queued next level
        while queue:
            f = pop()
            d = seen[f]
            if d != level:  # f opens level d; the queue holds the rest of it
                level = d
                if width >= _NARROW:
                    queue.appendleft(f)
                    return np.fromiter(queue, np.int64, len(queue)), level
                width = 0
            d += 1
            for v in nbrs[starts[f] : starts[f + 1]]:
                if seen[v] < 0:
                    seen[v] = d
                    push(v)
                    width += degrees[v]
        return np.empty(0, dtype=np.int64), level
