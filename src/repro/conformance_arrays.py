"""Array-native structural conformance checkers (numpy).

Drop-in replacements for the dict-based ``ConnectivityChecker`` /
``TemporalLegalityChecker`` in :mod:`repro.conformance`, selected by
``make_checkers(..., arrays=True)`` (the default; ``arrays=False``
builds the oracle).  The contract is **verdict
equality**: identical ``Verdict``s — failure strings byte-for-byte,
``_MAX_DETAILS`` capping, segment numbering — over any record stream,
live or offline (``tests/test_conformance_arrays.py`` pins it over the
registry corpus).

Representation (see DESIGN.md, "Observer pipeline & conformance"):

* One :class:`ArrayReplayTracker` folds the record stream — node
  interning and the active edge set — and the checkers only read it.
  ``make_checkers`` links both structural checkers to one replay, so
  each round is slotted, deduped and merged once, whichever checker's
  hook runs first; a checker built alone owns a private replay, and the
  offline audit's chained-baseline fold a bare one.
* Node labels are interned to slots ``0..n-1`` in sorted order; int
  labels map through a sorted ``np.searchsorted`` (no Python dict in
  the hot path), anything else falls back to a label->slot dict.
* The active edge set is an :class:`~repro.engine.edge_keys.EdgeKeys`
  state in slot space — the sorted directed packed-key array and the
  slot degrees, with the undirected keys derived when read — the state
  class the bulk engine holds, folded by the same ``EdgeKeys.fold``.
  Folds build new arrays and never write into the old ones, so a
  round's pre-round arrays stay valid for every checker that reads
  them.
* A whole round's legality is classified by the shared
  :func:`~repro.engine.edge_keys.classify`, or, for a round of a few
  requests, by the replay's own scalar fold; connectivity keeps a
  flat-array union-find (min-label hooking + full path compression)
  and a certificate subgraph, and recomputes them only when a dropped
  certificate edge has no 2- or 3-hop detour (see
  :class:`ArrayConnectivityChecker`).
* External perturbations are rare and semantically fiddly, so the
  reference engine folds them: the replayed graph becomes a reference
  ``Network``, ``Network.apply_external`` applies the strike, and the
  arrays are re-interned from the result.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .conformance import (
    _MAX_DETAILS,
    InvariantChecker,
    _apply_strike,
    _lbl,
    _reference_network,
)
from .engine.actions import edge_key
from .engine.edge_keys import (
    ACTIVE,
    EMPTY,
    MASK,
    NOT_DIST2,
    SELF_LOOP,
    SHIFT,
    UNKNOWN,
    EdgeKeys,
    both_dirs,
    classify,
    delete_from,
    dist2_witness,
    identity_slots,
    member,
    merge_in,
    pack,
    uf_fold,
    unique,
    walk3_witness,
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

#: Rounds with at most this many activations (or deactivations) slot
#: them through a Python sort (:meth:`ArrayReplayTracker._to_slots`):
#: measured cheaper than the flatten-and-argsort passes up to ~64 pairs.
_FEW_EDGES = 32

#: Rounds with at most this many activations plus deactivations, all
#: int labels under identity interning, fold in Python ints
#: (:meth:`ArrayReplayTracker._fold_tiny`), whose cost grows by a few
#: numpy slices per request.  Measured on both linked checkers over
#: rings of 1024 and 8192 slots with chords (2-vCPU x86-64 VM, numpy
#: 2.4), as a share of the array fold's cost with half the requests
#: drops / all of them activations: 0.55-0.73x / 0.55-0.92x at 4
#: requests, 0.6-0.9x / 0.83-1.6x at 8, 0.83-0.96x / 1.16-1.42x at 12.
_TINY = 4


_NO = np.empty(0, dtype=bool)


class _RoundStep:
    """One folded round, as every checker linked to the replay reads it.

    ``su``/``sv`` are the activations' endpoint slots in
    ``sorted_edges`` order (``-1``: unknown node), ``albl``/``dlbl``
    recover the k-th activation's and deactivation's label pair, and
    ``a_on``/``d_on`` say per request whether its edge was active before
    the round (each probed once, for every reader); ``dirs`` is the
    *pre-round* directed key array (``starts`` its slice-start table,
    :meth:`~repro.engine.edge_keys.EdgeKeys.starts`, or None when the
    round's batches are too small to want one), and ``added``/``gone``
    the keys the round actually applied.  ``codes`` holds the
    activations' legality codes when the fold computed them (a tiny
    round, whose ``su``/``sv`` stay empty), else None.  The post-round
    state is the replay's own: linked checkers read a step before the
    replay may fold the next event.  An idle round (no activations, no
    deactivations) is all empty arrays over the unchanged state.
    """

    __slots__ = (
        "su", "sv", "albl", "a_on", "dlbl", "d_on",
        "dirs", "starts", "added", "gone", "codes",
    )

    def __init__(
        self, dirs, su=EMPTY, sv=EMPTY, albl=None, a_on=_NO,
        dlbl=None, d_on=_NO, added=EMPTY, gone=EMPTY, starts=None, codes=None,
    ) -> None:
        self.su, self.sv, self.albl, self.a_on = su, sv, albl, a_on
        self.dlbl, self.d_on = dlbl, d_on
        self.dirs, self.starts = dirs, starts
        self.added, self.gone, self.codes = added, gone, codes


def _int_pairs(edges):
    """``edges`` as a list of int label pairs in ``sorted_edges`` order,
    or None when a label is not an int."""
    uarr = getattr(edges, "u", None)
    if uarr is not None:  # _PairsView: canonical order already
        return list(zip(uarr.tolist(), edges.v.tolist()))
    pairs = sorted_edges(edges)
    if all(type(u) is int and type(v) is int for u, v in pairs):
        return pairs
    return None


class ArrayReplayTracker:
    """The replayed graph as an :class:`~repro.engine.edge_keys.EdgeKeys`
    state over interned slots, folded once per event.

    The array twin of ``_EdgeReplay``'s fold/snapshot surface: the
    offline audit's chained-baseline fold uses it bare to carry a
    segment's end state to the next segment (inline and pooled alike),
    and the array checkers read it.  The state is the one the bulk
    network holds, folded by the same
    :meth:`~repro.engine.edge_keys.EdgeKeys.fold`; the replay never
    reads the engine's, but may start from its arrays (folds build new
    ones) and counts its own degrees.

    Linked checkers (:meth:`_read`) share one fold per event: the first
    checker whose hook sees an event folds it, every other linked
    checker gets the same result.  Each checker counts its own events,
    and the replay refuses to fold ahead of a checker that has not read
    the previous event, or to hand a step to a checker that is not at
    it — linked checkers must observe the same stream in lockstep.
    """

    def __init__(self) -> None:
        self._links = 0  # checkers reading this replay
        self._seq = 0  # events folded so far
        self._pending = 0  # links yet to read event ``_seq``
        self._event = None  # event ``_seq``, while a link has yet to read it
        self._result = None

    def _read(self, seq: int, fold, event):
        """``fold(event)`` as event ``seq`` of one linked checker's
        stream: folded on first read, handed out unchanged after."""
        if seq == self._seq + 1 and not self._pending:
            result = fold(event)
            self._seq, self._pending = seq, self._links - 1
        elif seq == self._seq and self._pending and event is self._event:
            result = self._result
            self._pending -= 1
        else:
            raise RuntimeError(
                f"linked array checkers out of lockstep: a checker at event "
                f"{seq} read a replay at event {self._seq} that "
                f"{self._pending} of {self._links} checkers have yet to "
                f"read; every checker built by one make_checkers call must "
                f"observe the same events in the same order"
            )
        # Once every link has read it, drop the borrowed event and the
        # pre-round arrays the step holds.
        self._event = event if self._pending else None
        self._result = result if self._pending else None
        return result

    def on_run_start(self, network) -> None:
        arrays = getattr(network, "slot_key_arrays", None)
        arrays = arrays() if arrays is not None else None
        if arrays is None:
            self._start(list(network.nodes), list(network.edges()))
        else:  # the bulk network's own arrays start this replay's state
            self._start(*arrays)

    def _start(self, nodes, edges, dirs=None) -> None:
        """Intern ``nodes`` and load ``edges`` — label pairs, or when
        ``dirs`` (the directed key array) is given, the sorted slot-space
        key array itself."""
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
        if dirs is None:
            edges = self._pack_pairs(edges)
            dirs = both_dirs(edges)
        self._state = EdgeKeys(n, dirs, edges)

    def _pack_pairs(self, edges):
        """The sorted undirected slot keys of the label pairs ``edges``
        that name two known, distinct nodes."""
        su, sv, _ = self._to_slots(edges)
        valid = (su >= 0) & (sv >= 0) & (su != sv)
        return unique(pack(su[valid], sv[valid])) if valid.any() else EMPTY

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
        int tuples — and slot through ``searchsorted``).  Up to
        :data:`_FEW_EDGES` int pairs under identity interning sort and
        slot in Python instead, which costs less than the array passes'
        fixed cost."""
        if not edges:
            return EMPTY, EMPTY, None
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
        if self._ident and m <= _FEW_EDGES:
            pairs = _int_pairs(edges)
            if pairs is not None:
                n = self._n
                slots = np.array(
                    [x if 0 <= x < n else -1 for e in pairs for x in e], dtype=np.int64
                )
                return slots[0::2], slots[1::2], pairs.__getitem__
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

    def fold_round(self, record) -> _RoundStep:
        """Fold one round's effective sets, adds first, then drops (the
        dict loop order), with no legality checking; returns the
        round's :class:`_RoundStep`.

        Validity is ``_EdgeReplay.fold_round``'s: an add applies when
        both endpoints are known, it is no self-loop and its edge is not
        active; a drop, when its edge is active after the adds.  In-batch
        duplicates collapse, as in its edge-key sets.  An unknown node or
        a self-loop packs to a key no key array holds, so the membership
        probes need no masks.
        A round of at most :data:`_TINY` int-labelled requests under
        identity interning folds in :meth:`_fold_tiny` instead.
        """
        state = self._state
        dirs = state.dirs
        acts, deas = record.activations, record.deactivations
        if not acts and not deas:
            return _RoundStep(dirs)
        if self._ident and len(acts) + len(deas) <= _TINY:
            apairs, dpairs = _int_pairs(acts), _int_pairs(deas)
            if apairs is not None and dpairs is not None:
                return self._fold_tiny(apairs, dpairs)
        # The directed array holds every active edge's undirected key.
        su, sv, albl = self._to_slots(acts)
        du, dv, dlbl = self._to_slots(deas)
        apacked = pack(su, sv)
        a_on = member(dirs, apacked)
        added = unique(apacked[(su >= 0) & (sv >= 0) & (su != sv) & ~a_on])
        dpacked = pack(du, dv)
        d_on = member(dirs, dpacked)
        hit = (d_on | member(added, dpacked)) if added.size else d_on
        gone = unique(dpacked[hit])
        # The pre-round slice-start table, for the legality checker; a
        # bare replay (the audit's baseline fold) has no reader for it.
        starts = state.starts(su.size) if self._links else None
        state.fold(added, gone)
        return _RoundStep(dirs, su, sv, albl, a_on, dlbl, d_on, added, gone, starts)

    def _fold_tiny(self, apairs, dpairs) -> _RoundStep:
        """:meth:`fold_round` for a tiny round of int label pairs under
        identity interning, in Python ints.  One probe pass over the
        pre-round directed array answers every request's membership and
        finds both orientations' insertion points and every distance-2
        candidate's slice bounds; a second probes the candidates'
        ``(neighbor, other)`` keys.  The step carries the activations'
        legality codes, as :func:`classify` would give them."""
        n, dirs, m = self._n, self._state.dirs, int(MASK)

        def keys(pairs):  # packed keys; None: unknown node or self-loop
            return [
                ((u << SHIFT) | v if u < v else (v << SHIFT) | u)
                if 0 <= u < n and 0 <= v < n and u != v
                else None
                for u, v in pairs
            ]

        akeys, dkeys = keys(apairs), keys(dpairs)
        valid = {k for k in akeys + dkeys if k is not None}
        ends = {s for k in akeys if k is not None for s in (k >> SHIFT, k & m)}
        q = [*valid, *(((k & m) << SHIFT) | (k >> SHIFT) for k in valid)]
        q += [s << SHIFT for s in ends] + [(s + 1) << SHIFT for s in ends]
        pos = dirs.searchsorted(np.array(q, dtype=np.int64)).tolist()
        at = dict(zip(q, pos))
        got = dirs.take(pos, mode="clip").tolist() if dirs.size else ()
        on = {k for k, g in zip(q, got) if k == g}
        # Legality, in classify's precedence; distance-2 candidates
        # expand the smaller-degree endpoint's slice.
        codes, cands = [], []
        for (u, v), k in zip(apairs, akeys):
            if k is None:
                codes.append(SELF_LOOP if 0 <= u < n and 0 <= v < n else UNKNOWN)
            elif k in on:
                codes.append(ACTIVE)
            else:
                a, b = k >> SHIFT, k & m
                sa, sb = at[a << SHIFT], at[b << SHIFT]
                da, db = at[(a + 1) << SHIFT] - sa, at[(b + 1) << SHIFT] - sb
                cand = (sa, da, a, b) if da <= db else (sb, db, b, a)
                cands.append((len(codes), *cand))
                codes.append(NOT_DIST2)
        if any(c[2] for c in cands):
            # Slice rows ``x << 32 | w`` of the smaller endpoint ``x``
            # become ``other << 32 | w``: present exactly when ``w`` is
            # a common neighbor.
            probe = np.concatenate(
                [dirs[s : s + d] + ((o - x) << SHIFT) for _, s, d, x, o in cands]
            )
            hit = (dirs.take(dirs.searchsorted(probe), mode="clip") == probe).tolist()
            off = 0
            for i, _, d, _, _ in cands:
                if any(hit[off : off + d]):
                    codes[i] = 0
                off += d
        # The fold: adds first, then drops (a drop may undo an add).
        added = sorted({k for k in akeys if k is not None and k not in on})
        gone = sorted({k for k in dkeys if k in on or k in added})
        ins, dels = set(added).difference(gone), on.intersection(gone)
        events = sorted(
            (at[x], x in on, x)
            for k in ins | dels
            for x in (k, ((k & m) << SHIFT) | (k >> SHIFT))
        )
        if events:
            new = np.array([x for _, drop, x in events if not drop], np.int64)
            pieces, prev, j = [], 0, 0
            for p, drop, _ in events:
                pieces.append(dirs[prev:p])
                if not drop:
                    pieces.append(new[j : j + 1])
                    j += 1
                prev = p + drop
            pieces.append(dirs[prev:])
            self._state.fold(ins, dels, np.concatenate(pieces))
        return _RoundStep(
            dirs, albl=apairs.__getitem__, a_on=np.array([k in on for k in akeys], bool),
            dlbl=dpairs.__getitem__, d_on=np.array([k in on for k in dkeys], bool),
            added=np.array(added, np.int64), gone=np.array(gone, np.int64),
            codes=np.array(codes, np.int8),
        )

    def fold_strike(self, record) -> tuple:
        """Fold an external strike with ``Network.apply_external`` on a
        reference network built from the replayed graph, and re-intern
        the result.  Returns the pre-strike slot -> label list and the
        strike's applied ``(dropped, added)`` edge keys."""
        uids = self._uids
        net = _reference_network(*self.snapshot())
        dropped, added = _apply_strike(net, record)
        self._start(list(net.nodes), list(net.edges()))
        return uids, dropped, added

    def slot_keys(self) -> tuple:
        """The replayed graph as ``(uids, keys)``: its sorted labels and
        its sorted undirected key array over their positions."""
        return list(self._uids), self._state.keys

    def snapshot(self) -> tuple:
        """The replayed graph as ``(nodes, edges)`` lists."""
        uids = self._uids
        keys = self._state.keys
        lo = (keys >> SHIFT).tolist()
        hi = (keys & MASK).tolist()
        return list(uids), [(uids[a], uids[b]) for a, b in zip(lo, hi)]


class _ReplayChecker(InvariantChecker):
    """A structural checker reading an :class:`ArrayReplayTracker`:
    its own (``replay=None``) or one shared by ``make_checkers``."""

    def __init__(self, replay: ArrayReplayTracker | None = None) -> None:
        super().__init__()
        self._replay = ArrayReplayTracker() if replay is None else replay
        self._replay._links += 1
        self._seq = 0

    def _read(self, fold, event):
        self._seq += 1
        return self._replay._read(self._seq, fold, event)

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._read(self._replay.on_run_start, network)


class ArrayConnectivityChecker(_ReplayChecker):
    """Array twin of ``ConnectivityChecker`` (verdict-equal).

    Only the verdict ``components > 1`` matters, so the union-find
    tracks the replayed graph's *partition into components*, not its
    edges, and a *certificate* ``H`` — a subgraph of the replayed graph
    ``G`` with the same components, a spanning forest when built —
    says which dropped edges can matter.  A round maps ``G`` to
    ``G' = (G ∪ A) \\ D``:

    * a dropped edge outside ``H`` leaves ``H`` inside ``G'``, so it
      cannot split a component: nothing to check;
    * a dropped edge ``(a, b)`` of ``H`` is replaced in ``H`` by a path
      between ``a`` and ``b`` in ``G'`` — a common neighbor (one batched
      :func:`dist2_witness` over the post-round directed array), or
      failing that a walk ``a - x - y - b`` (:func:`walk3_witness`).
      Then ``H`` still has the components of ``G``, inside ``G'``, and
      the union-find folds the applied activations that join two
      components (into ``H`` too) — only while it has more than one,
      since a connected ``G`` makes ``G'`` connected;
    * a dropped ``H`` edge with neither detour rebuilds the union-find
      and ``H`` from the post-round key array.

    Strikes always rebuild.  Folds and rebuilds are O(n alpha(n)) array
    passes, no Python-level edge loop.  On a star run only the final
    termination fan-out drops certificate edges (the original ring the
    run-start forest was built from), so most drop rounds cost one
    membership probe of the dropped keys.
    """

    name = "connectivity"

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._rebuild()

    def _rebuild(self) -> None:
        keys = self._replay._state.keys
        self._parent, picked = uf_fold(
            np.arange(self._replay._n, dtype=np.int64),
            keys >> SHIFT, keys & MASK, forest=True,
        )
        self._cert = keys[picked]
        self._count()

    def _count(self) -> None:
        parent = self._parent
        self._components = int((parent == np.arange(parent.size)).sum())

    def on_round(self, record) -> None:
        step = self._read(self._replay.fold_round, record)
        added, gone = step.added, step.gone
        if gone.size:
            if added.size:
                added = added[~member(gone, added)]  # dropped the same round
            cut = gone[member(self._cert, gone)]
            if cut.size and not self._reroute(cut):
                self._rebuild()
                added = EMPTY
        if added.size and self._components > 1:
            parent = self._parent
            joins = added[parent[added >> SHIFT] != parent[added & MASK]]
            if joins.size:
                self._parent = uf_fold(parent, joins >> SHIFT, joins & MASK)
                self._cert = merge_in(self._cert, joins)
                self._count()
        if self._components > 1:
            self._fail(f"{self._where(record.round)}: network disconnected")

    def _reroute(self, cut) -> bool:
        """Replace the dropped certificate edges ``cut`` by 2- or 3-hop
        detours through the post-round graph; False when one has
        neither.  The 3-hop search gives up past the size of the
        directed array, where a rebuild costs less."""
        state = self._replay._state
        dirs = state.dirs
        a, b = cut >> SHIFT, cut & MASK
        w = dist2_witness(dirs, a, b, state.starts(a.size))
        two = w >= 0
        paths = [pack(a[two], w[two]), pack(w[two], b[two])]
        if not two.all():
            a, b = a[~two], b[~two]
            walk = walk3_witness(dirs, a, b, state.starts(a.size), budget=dirs.size)
            if walk is None or (walk[0] < 0).any():
                return False
            x, y = walk
            paths += [pack(a, x), pack(x, y), pack(y, b)]
        cert = delete_from(self._cert, cut)
        new = unique(np.concatenate(paths))
        self._cert = merge_in(cert, new[~member(cert, new)])
        return True

    def on_perturbation(self, record) -> None:
        self._read(self._replay.fold_strike, record)
        self._rebuild()
        if self._components > 1:
            self._fail(
                f"segment {self._segment}: adversary strike before round "
                f"{record.round} disconnected the network"
            )


class ArrayTemporalLegalityChecker(_ReplayChecker):
    """Array twin of ``TemporalLegalityChecker`` (verdict-equal).

    A whole round's activations are classified in one precedence chain
    of vectorized passes — unknown node, self-loop, already-active
    (membership in the key array), then batched distance-2 — against
    the step's pre-round arrays (a tiny round's step carries its codes
    from the fold), and failures are formatted lazily, in
    ``sorted_edges`` order, only up to the ``_MAX_DETAILS`` cap.
    """

    name = "temporal-legality"

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._orig = self._replay._state.keys  # E(1), in slot space
        self._n_activated = 0  # |E(i) \ E(1)|

    def on_round(self, record) -> None:
        where = self._where(record.round)
        step = self._read(self._replay.fold_round, record)
        # -- legality, all against the pre-round state ------------------
        code = step.codes
        if code is None:
            code = (
                classify(step.dirs, step.su, step.sv, step.a_on, step.starts)
                if step.su.size
                else _NO
            )
        for k in np.nonzero(code)[0]:
            if len(self._failures) >= _MAX_DETAILS:
                # Everything from here on is past the cap: count it
                # without formatting (exactly what per-pair _fail calls
                # would have accumulated).
                self._suppressed += int(np.count_nonzero(code[k:]))
                break
            u, v = step.albl(int(k))
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
        # An unknown node or a self-loop is never active (see fold_round).
        dbad = ~step.d_on
        for k in np.nonzero(dbad)[0]:
            if len(self._failures) >= _MAX_DETAILS:
                self._suppressed += int(np.count_nonzero(dbad[k:]))
                break
            u, v = step.dlbl(int(k))
            self._fail(f"{where}: deactivated inactive edge ({_lbl(u)}, {_lbl(v)})")
        # -- |E(i) \ E(1)|, counted against E(1) as the dict oracle does:
        # a re-activated E(1) edge is not activated, and a dropped edge
        # was active, so it was activated exactly when it is not in E(1).
        added, gone = step.added, step.gone
        if added.size or gone.size:
            orig = self._orig
            self._n_activated += int(
                np.count_nonzero(~member(orig, added))
                - np.count_nonzero(~member(orig, gone))
            )
        # -- the tamper check: committed counters vs the replay ---------
        n_active = self._replay._state.size
        if record.active_edges != n_active:
            self._fail(
                f"{where}: active_edges says {record.active_edges}, "
                f"replay says {n_active}"
            )
        if record.activated_edges != self._n_activated:
            self._fail(
                f"{where}: activated_edges says {record.activated_edges}, "
                f"replay says {self._n_activated}"
            )

    def on_perturbation(self, record) -> None:
        # Strikes fold into E(1) as Network.apply_external folds them:
        # applied drops and every edge of a crashed node leave it, the
        # applied adds and joins enter it.  E(1) decodes against the
        # pre-strike interning; the activated edges are the active ones
        # outside it.
        uids, dropped, added = self._read(self._replay.fold_strike, record)
        crashed = set(record.crashes)
        m = int(MASK)
        orig = {edge_key(uids[k >> SHIFT], uids[k & m]) for k in self._orig.tolist()}
        orig = {e for e in orig - dropped if e[0] not in crashed and e[1] not in crashed}
        replay = self._replay
        self._orig = replay._pack_pairs(orig | added)
        self._n_activated = int(np.count_nonzero(~member(self._orig, replay._state.keys)))
