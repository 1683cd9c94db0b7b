"""Array-native structural conformance checkers (numpy).

Drop-in replacements for the dict-based ``ConnectivityChecker`` /
``TemporalLegalityChecker`` in :mod:`repro.conformance`, selected by
``make_checkers(..., arrays=True)`` (the default when numpy imports;
``REPRO_CHECKERS=dict`` forces the oracle).  The contract is **verdict
equality**: identical ``Verdict``s — failure strings byte-for-byte,
``_MAX_DETAILS`` capping, segment numbering — over any record stream,
live or offline (``tests/test_conformance_arrays.py`` pins it over the
registry corpus).

Representation (see DESIGN.md, "Observer pipeline & conformance"):

* Node labels are interned to slots ``0..n-1`` in sorted order; int
  labels map through a sorted ``np.searchsorted`` (no Python dict in
  the hot path), anything else falls back to a label->slot dict.
* The active edge set and the adjacency are the sorted packed-key
  arrays of :mod:`repro.engine.edge_keys` (slot space) — the same
  primitives the bulk engine's array rounds commit with.
* A whole round's legality is classified by the shared
  :func:`~repro.engine.edge_keys.legality_codes`; connectivity folds
  activations into a flat-array union-find (min-label hooking + full
  path compression) and only recomputes from scratch on rounds that
  actually removed an edge.
* External perturbations are rare and semantically fiddly, so they are
  folded by the *dict* replay itself on a materialized adjacency
  (equality with ``Network.apply_external`` by shared code), then the
  arrays are re-interned from the folded graph.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .conformance import _MAX_DETAILS, InvariantChecker, _EdgeReplay, _lbl, _le
from .engine.edge_keys import (
    ACTIVE,
    EMPTY,
    MASK,
    SELF_LOOP,
    SHIFT,
    UNKNOWN,
    both_dirs,
    delete_from,
    identity_slots,
    legality_codes,
    member,
    merge_in,
    pack,
    unique,
)
from .engine.trace import sorted_edges
from .errors import ConfigurationError

__all__ = [
    "ArrayConnectivityChecker",
    "ArrayReplayTracker",
    "ArrayTemporalLegalityChecker",
]

#: Slot ids must leave the packed key positive in an int64 (and the
#: ``(slot + 1) << 32`` adjacency-slice bound representable).
_MAX_SLOTS = (1 << 31) - 1


def _uf_fold(parent, uu, vv):
    """Fold edges into a flat union-find: min-label hooking with full
    path compression, iterated to fixpoint.  Returns the fully
    compressed parent array (every entry points at its root)."""
    p = parent
    while True:
        while True:
            q = p[p]
            if np.array_equal(q, p):
                break
            p = q
        ru, rv = p[uu], p[vv]
        diff = ru != rv
        if not diff.any():
            return p
        np.minimum.at(p, np.maximum(ru[diff], rv[diff]), np.minimum(ru[diff], rv[diff]))


class _DictProxy:
    """Borrowed dict-replay state: lets the array checkers reuse
    ``_EdgeReplay``'s perturbation fold verbatim (engine equality by
    shared code, pinned by tests/test_replay_differential.py)."""

    _add_edge = _EdgeReplay._add_edge
    _drop_edge = _EdgeReplay._drop_edge
    _apply_perturbation = _EdgeReplay._apply_perturbation

    def __init__(self, adj, n_edges):
        self._adj = adj
        self._n_edges = n_edges


class _ArrayReplay(InvariantChecker):
    """Shared machinery: the replayed graph as packed int64 arrays."""

    #: Subclasses that run distance-2 queries keep the directed
    #: adjacency array too; pure edge-set consumers skip its upkeep.
    _needs_dir = False

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._start(list(network.nodes), list(network.edges()))

    def _start(self, nodes, edges) -> None:
        try:
            nodes.sort()
        except TypeError:
            nodes.sort(key=repr)
        n = len(nodes)
        if n > _MAX_SLOTS:
            raise ConfigurationError(
                f"array checkers support at most {_MAX_SLOTS} nodes, got {n}"
            )
        self._uids = nodes
        self._n = n
        self._index = None  # label -> slot dict, built lazily
        try:
            self._uid_arr = (
                np.array(nodes, dtype=np.int64)
                if all(type(u) is int for u in nodes)
                else None
            )
        except OverflowError:
            self._uid_arr = None
        ua = self._uid_arr
        # Sorted unique ints spanning exactly [0, n) ARE their slots:
        # every built-in family labels this way, and the check makes
        # ``_slots_of`` a bounds test instead of a searchsorted.
        self._ident = bool(
            ua is not None and ua.size and ua[0] == 0 and ua[-1] == ua.size - 1
        )
        su, sv, _ = self._to_slots(edges)
        valid = (su >= 0) & (sv >= 0) & (su != sv)
        self._keys = unique(pack(su[valid], sv[valid])) if valid.any() else EMPTY
        self._dir = both_dirs(self._keys) if self._needs_dir else EMPTY

    def _label_index(self) -> dict:
        if self._index is None:
            self._index = {u: i for i, u in enumerate(self._uids)}
        return self._index

    def _slots_of(self, labels):
        """Map an int64 label array to slots (-1 where unknown)."""
        ua = self._uid_arr
        if ua.size == 0:
            return np.full(labels.shape, -1, dtype=np.int64)
        if self._ident:
            return identity_slots(labels, ua.size)
        pos = np.searchsorted(ua, labels)
        pos[pos == ua.size] = ua.size - 1
        return np.where(ua[pos] == labels, pos, np.int64(-1))

    def _to_slots(self, edges):
        """Directed slot pairs in ``sorted_edges`` order.

        Returns ``(su, sv, labels)`` where ``labels(k)`` recovers the
        k-th label pair (only called on failures, so the common all-int
        path never touches Python pairs: flatten with ``np.fromiter``,
        order with ``np.lexsort`` — identical to ``sorted(edges)`` for
        int tuples — and slot through ``searchsorted``)."""
        uarr = getattr(edges, "u", None)
        if uarr is not None:
            # _PairsView (.rtb array decode, bulk kernel rounds): endpoint
            # label arrays already in canonical (sorted_edges) order — no
            # flatten, no sort.
            varr = edges.v
            if self._uid_arr is not None:
                return (
                    self._slots_of(uarr),
                    self._slots_of(varr),
                    lambda k: (int(uarr[k]), int(varr[k])),
                )
            edges = list(zip(uarr.tolist(), varr.tolist()))
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        m = len(edges)
        if self._uid_arr is not None:
            try:
                flat = np.fromiter(
                    chain.from_iterable(edges), dtype=np.int64, count=2 * m
                )
            except (TypeError, ValueError, OverflowError):
                flat = None
            if flat is not None:
                uu, vv = flat[0::2], flat[1::2]
                if m and flat.min() >= 0 and flat.max() < (1 << SHIFT):
                    # Distinct pairs pack to distinct keys whose sort
                    # order is exactly lexicographic (u, v) — one int64
                    # sort, ~10x cheaper than the general lexsort.
                    order = np.argsort((uu << SHIFT) | vv)
                else:
                    order = np.lexsort((vv, uu))
                uu, vv = uu[order], vv[order]
                return (
                    self._slots_of(uu),
                    self._slots_of(vv),
                    lambda k: (int(uu[k]), int(vv[k])),
                )
        pairs = sorted_edges(edges)
        su = np.empty(m, dtype=np.int64)
        sv = np.empty(m, dtype=np.int64)
        get = self._label_index().get
        for k, (u, v) in enumerate(pairs):
            su[k] = get(u, -1)
            sv[k] = get(v, -1)
        return su, sv, lambda k: pairs[k]

    def _apply_adds(self, su, sv):
        """Fold activations; returns the applied keys (sorted unique).
        Validity mirrors ``_EdgeReplay._add_edge``: both endpoints
        known, no self-loop, not already active; in-batch duplicates
        collapse exactly as sequential dict adds do."""
        valid = (su >= 0) & (sv >= 0) & (su != sv)
        if not valid.any():
            return EMPTY
        keys = unique(pack(su[valid], sv[valid]))
        new = keys[~member(self._keys, keys)]
        if new.size:
            self._keys = merge_in(self._keys, new)
            if self._needs_dir:
                self._dir = merge_in(self._dir, both_dirs(new))
        return new

    def _apply_drops(self, du, dv):
        """Fold deactivations; returns the applied keys (sorted
        unique).  Mirrors ``_EdgeReplay._drop_edge``: only currently
        active edges drop (self-loops and unknown pairs never match)."""
        valid = (du >= 0) & (dv >= 0)
        if not valid.any():
            return EMPTY
        keys = unique(pack(du[valid], dv[valid]))
        gone = keys[member(self._keys, keys)]
        if gone.size:
            self._keys = delete_from(self._keys, gone)
            if self._needs_dir:
                self._dir = delete_from(self._dir, both_dirs(gone))
        return gone

    def fold_round(self, record) -> None:
        """Fold one round's effective sets (no legality checking)."""
        su, sv, _ = self._to_slots(record.activations)
        self._apply_adds(su, sv)
        du, dv, _ = self._to_slots(record.deactivations)
        self._apply_drops(du, dv)

    def _apply_perturbation(self, record) -> None:
        """Fold an external strike by materializing the dict adjacency,
        running the dict replay's fold, and re-interning the result."""
        uids = self._uids
        adj: dict = {u: set() for u in uids}
        lo = (self._keys >> SHIFT).tolist()
        hi = (self._keys & MASK).tolist()
        for a, b in zip(lo, hi):
            u, v = uids[a], uids[b]
            adj[u].add(v)
            adj[v].add(u)
        proxy = _DictProxy(adj, self._keys.size)
        proxy._apply_perturbation(record)
        nodes = list(adj)
        edges = [(u, v) for u, nbrs in adj.items() for v in nbrs if _le(u, v)]
        self._start(nodes, edges)

    def snapshot(self) -> tuple:
        """The replayed graph as ``(nodes, edges)`` lists."""
        uids = self._uids
        lo = (self._keys >> SHIFT).tolist()
        hi = (self._keys & MASK).tolist()
        return list(uids), [(uids[a], uids[b]) for a, b in zip(lo, hi)]


class ArrayReplayTracker(_ArrayReplay):
    """Baseline-fold tracker for ``check_trace``'s chained segments:
    the fold/snapshot surface of ``_EdgeReplay`` over arrays."""


class ArrayConnectivityChecker(_ArrayReplay):
    """Array twin of ``ConnectivityChecker`` (verdict-equal).

    Activation-only rounds fold the applied keys into the flat
    union-find; rounds that actually removed an edge (and every
    perturbation) rebuild it from the key array — both O(n alpha(n))
    array passes, no Python-level edge loop.
    """

    name = "connectivity"

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._rebuild()

    def _rebuild(self) -> None:
        parent = np.arange(self._n, dtype=np.int64)
        if self._keys.size:
            parent = _uf_fold(parent, self._keys >> SHIFT, self._keys & MASK)
        self._parent = parent
        self._components = int((parent == np.arange(self._n)).sum())

    def on_round(self, record) -> None:
        su, sv, _ = self._to_slots(record.activations)
        added = self._apply_adds(su, sv)
        du, dv, _ = self._to_slots(record.deactivations)
        gone = self._apply_drops(du, dv)
        if gone.size:
            self._rebuild()
        elif added.size:
            parent = _uf_fold(self._parent, added >> SHIFT, added & MASK)
            self._parent = parent
            self._components = int((parent == np.arange(self._n)).sum())
        if self._components > 1:
            self._fail(f"{self._where(record.round)}: network disconnected")

    def on_perturbation(self, record) -> None:
        self._apply_perturbation(record)
        self._rebuild()
        if self._components > 1:
            self._fail(
                f"segment {self._segment}: adversary strike before round "
                f"{record.round} disconnected the network"
            )


class ArrayTemporalLegalityChecker(_ArrayReplay):
    """Array twin of ``TemporalLegalityChecker`` (verdict-equal).

    A whole round's activations are classified in one precedence chain
    of vectorized passes — unknown node, self-loop, already-active
    (membership in the key array), then batched distance-2 — and
    failures are formatted lazily, in ``sorted_edges`` order, only up
    to the ``_MAX_DETAILS`` cap.
    """

    name = "temporal-legality"
    _needs_dir = True

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._act_keys = EMPTY  # activated-only edges (E(i) \ E(1))

    def on_round(self, record) -> None:
        where = self._where(record.round)
        su, sv, albl = self._to_slots(record.activations)
        du, dv, dlbl = self._to_slots(record.deactivations)
        # -- legality, all against the pre-round state ------------------
        code, _ = legality_codes(self._keys, self._dir, su, sv)
        for k in np.nonzero(code)[0]:
            if len(self._failures) >= _MAX_DETAILS:
                # Everything from here on is past the cap: count it
                # without formatting (exactly what per-pair _fail calls
                # would have accumulated).
                self._suppressed += int(np.count_nonzero(code[k:]))
                break
            u, v = albl(int(k))
            c = code[k]
            if c == UNKNOWN:
                self._fail(
                    f"{where}: activation ({_lbl(u)}, {_lbl(v)}) names an "
                    f"unknown node"
                )
            elif c == SELF_LOOP:
                self._fail(f"{where}: activated self-loop ({_lbl(u)}, {_lbl(v)})")
            elif c == ACTIVE:
                self._fail(
                    f"{where}: activated already-active edge ({_lbl(u)}, {_lbl(v)})"
                )
            else:  # NOT_DIST2
                self._fail(
                    f"{where}: activated ({_lbl(u)}, {_lbl(v)}) but endpoints "
                    f"are not at distance 2"
                )
        dbad = np.ones(du.shape, dtype=bool)
        dknown = (du >= 0) & (dv >= 0)
        dbad[dknown] = ~member(self._keys, pack(du, dv)[dknown])
        for k in np.nonzero(dbad)[0]:
            if len(self._failures) >= _MAX_DETAILS:
                self._suppressed += int(np.count_nonzero(dbad[k:]))
                break
            u, v = dlbl(int(k))
            self._fail(f"{where}: deactivated inactive edge ({_lbl(u)}, {_lbl(v)})")
        # -- apply: adds first, then drops (dict loop order) ------------
        added = self._apply_adds(su, sv)
        self._act_keys = merge_in(self._act_keys, added)
        gone = self._apply_drops(du, dv)
        self._act_keys = delete_from(self._act_keys, gone[member(self._act_keys, gone)])
        # -- the tamper check: committed counters vs the replay ---------
        if record.active_edges != self._keys.size:
            self._fail(
                f"{where}: active_edges says {record.active_edges}, "
                f"replay says {self._keys.size}"
            )
        if record.activated_edges != self._act_keys.size:
            self._fail(
                f"{where}: activated_edges says {record.activated_edges}, "
                f"replay says {self._act_keys.size}"
            )

    def on_perturbation(self, record) -> None:
        # Same baseline-fold semantics as the dict checker: strikes fold
        # into E(1); dropped and crash-incident activated edges stop
        # counting whether or not the engine applied the event.
        uids = self._uids
        pairs = set()
        for key in self._act_keys.tolist():
            x, y = uids[key >> SHIFT], uids[key & int(MASK)]
            pairs.add((x, y) if _le(x, y) else (y, x))
        self._apply_perturbation(record)
        for u, v in record.drops:
            pairs.discard((u, v) if _le(u, v) else (v, u))
        crashed = set(record.crashes)
        if crashed:
            pairs = {e for e in pairs if e[0] not in crashed and e[1] not in crashed}
        get = self._label_index().get
        repacked = np.fromiter(
            (
                pack(np.int64(get(u)), np.int64(get(v)))
                for u, v in pairs
            ),
            dtype=np.int64,
            count=len(pairs),
        )
        self._act_keys = np.sort(repacked)
