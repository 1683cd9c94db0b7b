"""Edge sets as sorted packed-key arrays (numpy).

The one array statement of the model's edge rules, shared by the bulk
engine (:meth:`repro.engine.dense.DenseNetwork.apply_arrays`, the star
kernel, the metrics recorder) and the array conformance checkers
(:mod:`repro.conformance_arrays`).  The one per-edge statement is the
reference :meth:`repro.engine.network.Network.apply` (the oracle), which
the bulk backend's per-edge rounds inherit.

* An undirected edge between slots ``i`` and ``j`` packs to
  ``(min << 32) | max``.  An edge set is one sorted unique ``int64``
  array of such keys.
* A live edge set is held as :class:`EdgeKeys`: the sorted array of
  *directed* keys (both orientations), which answers membership too,
  and every slot's degree.  A slot's neighbor slice is two
  ``searchsorted`` probes, or two reads of the degrees' cumulative sum,
  and "do ``a`` and ``b`` share a neighbor" is a flat expansion of the
  smaller slice plus one membership pass.  The undirected half is
  derived only when read.
* Rounds update the directed array by one sorted merge and one delete
  (O(E + k) memcpy), never by rebuilding: :meth:`EdgeKeys.fold`, the
  one fold of the bulk network and the array replay.

A round's requests travel as :class:`~repro.engine.actions.RequestArrays`
and its committed sets as sorted key arrays; DESIGN.md, "Dense-activity
kernels", follows one round from the kernel to the checkers.
"""

from __future__ import annotations

import numpy as np

SHIFT = 32
MASK = np.int64((1 << SHIFT) - 1)

EMPTY = np.empty(0, dtype=np.int64)

#: Activation legality codes, in precedence order (0: legal).  An
#: already-active request is a no-op under the model, not a violation.
UNKNOWN, SELF_LOOP, ACTIVE, NOT_DIST2 = 1, 2, 3, 4

#: Query batches up to this size probe ``searchsorted`` directly, larger
#: ones in sorted order (:func:`positions`).  Measured on int64 keys
#: (numpy 2.4, x86-64), over base arrays of 2e3 to 3e6 keys: direct
#: probing is about 2x cheaper up to 256 queries and falls behind from
#: about 400-600 on.  The bulk star rounds' batches (thousands of
#: requests) sit above it, the near-idle wreath rounds' (1-4 edges)
#: below.
SMALL_BATCH = 256

#: A batch of ``k`` distance queries over ``n`` slots reads its slice
#: bounds off a :func:`slice_starts` table when ``k * STARTS_PER_QUERY
#: >= n`` (:meth:`EdgeKeys.starts`): one cumulative sum over the slots
#: (about 1 ns a slot) then costs less than the four ``searchsorted``
#: probes per query it saves (about 60 ns each on star rounds at
#: n=1e5).
STARTS_PER_QUERY = 256

#: Merges and deletes of at most this many keys splice slices of the
#: base array with one ``np.concatenate``; larger ones build a boolean
#: mask.  Measured as above: splicing one key into 2e3-3e4 keys costs
#: 1.3-2.5x less than the mask, and the two meet at 8-24 keys.
SPLICE_MAX = 8

#: Merges of at least ``base.size / MERGE_BY_SORT`` keys concatenate and
#: stable-sort instead of probing.  Measured as above: from 1/64 of the
#: base on, the sort's run merge beats a binary search per key, by 1.6x
#: at 1/16 and 3.5x at 1/4.
MERGE_BY_SORT = 64


def pack_pairs(pairs):
    """The sorted packed-key array of canonical ``(lo, hi)`` int pairs
    (slot pairs, or uids under identity interning)."""
    keys = np.fromiter(((u << SHIFT) | v for u, v in pairs), np.int64, len(pairs))
    keys.sort()
    return keys


def pack(su, sv):
    """Undirected packed keys for slot pairs (smaller slot high)."""
    lo = np.minimum(su, sv)
    hi = np.maximum(su, sv)
    return (lo << SHIFT) | hi


def both_dirs(keys):
    """Sorted directed keys (both orientations) for undirected keys."""
    if keys.size == 0:
        return keys
    swapped = ((keys & MASK) << SHIFT) | (keys >> SHIFT)
    out = np.concatenate((keys, swapped))
    out.sort()
    return out


def positions(base, vals):
    """``np.searchsorted(base, vals)``.

    A batch of more than :data:`SMALL_BATCH` queries probes in sorted
    query order: sorted probes walk ``base`` front to back, which makes a
    large unsorted batch several times cheaper, argsort included.  A
    small batch probes directly, since the argsort would cost more than
    it saves, and so would a batch that is sorted already."""
    if vals.size <= SMALL_BATCH or not (vals[1:] < vals[:-1]).any():
        return base.searchsorted(vals)
    order = vals.argsort()
    pos = np.empty(vals.shape, dtype=np.intp)
    pos[order] = base.searchsorted(vals[order])
    return pos


def member(base, vals):
    """Boolean membership of ``vals`` in the sorted array ``base``."""
    if base.size == 0 or vals.size == 0:
        return np.zeros(vals.shape, dtype=bool)
    return base.take(positions(base, vals), mode="clip") == vals


def unique(keys):
    """Sorted distinct ``keys`` (``np.unique`` without its hashing
    pass, which costs ~30x more on int64 keys)."""
    if keys.size < 2 or (keys[1:] > keys[:-1]).all():
        return keys
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def merge_in(base, add):
    """Sorted merge of ``add`` (sorted, disjoint from ``base``) into a
    new array."""
    if add.size == 0:
        return base
    if add.size * MERGE_BY_SORT >= base.size:
        # Two sorted runs: the stable sort (timsort) merges them in one
        # linear pass, where probing costs a binary search per key.
        out = np.concatenate((base, add))
        out.sort(kind="stable")
        return out
    at = base.searchsorted(add)  # sorted probes need no reordering
    if add.size <= SPLICE_MAX:
        pieces, prev = [], 0
        for i, p in enumerate(at.tolist()):
            pieces += (base[prev:p], add[i : i + 1])
            prev = p
        pieces.append(base[prev:])
        return np.concatenate(pieces)
    at += np.arange(add.size)
    out = np.empty(base.size + add.size, dtype=base.dtype)
    keep = np.ones(out.size, dtype=bool)
    keep[at] = False
    out[at] = add
    out[keep] = base
    return out


def delete_from(base, rem, at=None):
    """``base`` without ``rem`` (sorted, a sub-multiset of ``base``: a
    key ``base`` holds twice, as a directed array holds a self-loop, may
    be removed twice), as a new array.  ``at``: ``rem``'s positions in
    ``base``, when the caller has probed them already."""
    if rem.size == 0:
        return base
    if at is None:
        at = base.searchsorted(rem)  # sorted probes need no reordering
    if rem.size <= SPLICE_MAX:
        pieces, prev = [], 0
        for p in at.tolist():
            p = max(p, prev)  # a repeated key: the next copy
            pieces.append(base[prev:p])
            prev = p + 1
        pieces.append(base[prev:])
        return np.concatenate(pieces)
    # A repeated key probes to its first copy; the k-th repeat moves k on.
    steps = np.arange(rem.size)
    at = np.maximum.accumulate(at - steps) + steps
    keep = np.ones(base.size, dtype=bool)
    keep[at] = False
    return base[keep]


def identity_slots(labels, size: int):
    """Slots of int labels under identity interning (-1: unknown)."""
    return np.where((labels >= 0) & (labels < size), labels, np.int64(-1))


def slice_starts(degrees):
    """Where each slot's slice starts in a directed key array, given
    every slot's degree: ``starts[s]:starts[s + 1]`` is slot ``s``'s
    slice.  One cumulative sum; :class:`EdgeKeys` keeps the degrees
    current and hands it to :func:`dist2_ok` in place of two probes per
    endpoint."""
    starts = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=starts[1:])
    return starts


class EdgeKeys:
    """An active edge set over slots ``0..n-1``: the state the bulk
    network (:class:`~repro.engine.dense.DenseNetwork`) and the array
    replay (:class:`~repro.conformance_arrays.ArrayReplayTracker`) each
    hold, and its one fold.

    * ``dirs`` — the sorted directed key array: both orientations of
      every edge (a self-loop's one key twice).  An undirected key is in
      it exactly when its edge is active, so it answers membership too.
    * ``deg`` — every slot's degree, its slice length in ``dirs``; kept
      current by :meth:`fold`, in place.
    * :attr:`keys` — the sorted undirected keys, derived from ``dirs``
      and cached when read.
    * :meth:`starts` — the :func:`slice_starts` table, for distance
      batches large enough to want it.

    A fold builds a new ``dirs`` and never writes into the old one, so a
    directed or undirected array read before a fold stays valid after
    it, and two holders may start from the same arrays.  ``deg`` is
    written in place: each holder counts its own.
    """

    __slots__ = ("n", "dirs", "deg", "_keys", "_starts")

    def __init__(self, n: int, dirs, keys=None) -> None:
        self.n = n
        self.dirs = dirs
        self.deg = np.bincount(dirs >> SHIFT, minlength=n)
        #: The undirected half, when known (``keys`` as given, else
        #: derived on first read).
        self._keys = keys
        self._starts = None

    @property
    def size(self) -> int:
        """The number of active edges."""
        return self.dirs.size >> 1

    @property
    def keys(self):
        """The active edges as a sorted undirected key array."""
        if self._keys is None:
            dirs = self.dirs
            keys = dirs[(dirs >> SHIFT) <= (dirs & MASK)]
            if keys.size != dirs.size >> 1:  # a self-loop's key twice
                keys = unique(keys)
            self._keys = keys
        return self._keys

    def starts(self, k: int):
        """The :func:`slice_starts` table of ``dirs`` for a batch of
        ``k`` distance queries, or None when the batch is too small to
        want one (:data:`STARTS_PER_QUERY`)."""
        if k * STARTS_PER_QUERY < self.n:
            return None
        if self._starts is None:
            self._starts = slice_starts(self.deg)
        return self._starts

    def fold(self, added, gone, spliced=None) -> None:
        """Commit one round: add the undirected keys ``added`` (none of
        them active), then drop ``gone`` (each active after the adds;
        a drop may undo an add), both sorted ``int64`` arrays.

        ``spliced`` is the resulting directed array when the caller has
        built it already (the array replay splices a tiny round's few
        keys in one ``concatenate``); ``added``/``gone`` are then
        disjoint collections of int keys, and the degrees move by scalar
        writes."""
        deg = self.deg
        if spliced is None:
            self.dirs = delete_from(
                merge_in(self.dirs, both_dirs(added)), both_dirs(gone)
            )
            for ends, step in ((added, 1), (gone, -1)):
                if ends.size:
                    np.add.at(deg, ends >> SHIFT, step)
                    np.add.at(deg, ends & MASK, step)
        else:
            self.dirs = spliced
            m = int(MASK)
            for ends, step in ((added, 1), (gone, -1)):
                for k in ends:
                    deg[k >> SHIFT] += step
                    deg[k & m] += step
        self._keys = self._starts = None


def _smaller_slices(dirs, a, b, starts=None, budget=None):
    """Flatten, per pair, the adjacency slice of the endpoint with the
    smaller degree in the directed key array ``dirs``.  Returns ``(seg,
    nbrs, other)``: pair index, neighbor slot and the pair's other
    endpoint, one row per flattened neighbor — or None when that is
    more than ``budget`` rows.

    Slot ``s``'s slice is ``[s << SHIFT, (s + 1) << SHIFT)``: read off
    ``starts`` (:func:`slice_starts`) when given, else one
    :func:`positions` pass finds all four bounds of every pair."""
    k = a.size
    if k == 0:
        return EMPTY, EMPTY, EMPTY
    if starts is not None:
        sa, ea, sb, eb = starts[a], starts[a + 1], starts[b], starts[b + 1]
    else:
        lo = np.concatenate((a, b)) << SHIFT
        sa, sb, ea, eb = positions(
            dirs, np.concatenate((lo, lo + (1 << SHIFT)))
        ).reshape(4, k)
    da, db = ea - sa, eb - sb
    small_is_a = da <= db
    cnt = np.where(small_is_a, da, db)
    ends = cnt.cumsum()
    total = int(ends[-1])
    if budget is not None and total > budget:
        return None
    seg = np.arange(k).repeat(cnt)
    # The flat index of the j-th neighbor of pair s: start(s) + j.
    shift = np.where(small_is_a, sa, sb) - (ends - cnt)
    nbrs = dirs[np.arange(total) + shift[seg]] & MASK
    return seg, nbrs, np.where(small_is_a, b, a)[seg]


def dist2_witness(dirs, a, b, starts=None):
    """Per pair: a common neighbor of slots ``a[k]`` and ``b[k]`` in the
    directed key array ``dirs``, or -1.  Expands the smaller-degree
    endpoint's adjacency slice flat and probes ``dirs`` for (neighbor,
    other).  ``starts`` (:func:`slice_starts` of ``dirs``) saves the
    slice probes."""
    w = np.full(a.size, -1, dtype=np.int64)
    if a.size == 0:
        return w
    seg, nbrs, other = _smaller_slices(dirs, a, b, starts)
    if starts is not None and nbrs.size:
        # Probe each pair's likeliest witness first — the highest-degree
        # neighbor of its smaller side (a committee leader, on star
        # rounds: 92% of pairs) — and expand only the pairs it misses.
        first = np.flatnonzero(np.diff(seg, prepend=-1))
        deg = starts[nbrs + 1] - starts[nbrs]
        hub = np.maximum.reduceat((deg << SHIFT) | nbrs, first) & MASK
        hit = member(dirs, (hub << SHIFT) | other[first])
        w[seg[first[hit]]] = hub[hit]
        missed = np.zeros(a.size, dtype=bool)
        missed[seg[first[~hit]]] = True
        rows = np.flatnonzero(missed[seg])
        seg, nbrs, other = seg[rows], nbrs[rows], other[rows]
    hit = member(dirs, (nbrs << SHIFT) | other)
    w[seg[hit]] = nbrs[hit]  # any witness will do
    return w


def dist2_ok(dirs, a, b, starts=None):
    """Per pair: do slots ``a[k]`` and ``b[k]`` share a neighbor in
    ``dirs``?  (:func:`dist2_witness`)"""
    return dist2_witness(dirs, a, b, starts) >= 0


def walk3_witness(dirs, a, b, starts=None, budget=None):
    """Per pair: a walk ``a[k] - x - y - b[k]`` of length three through
    the directed key array ``dirs``, as ``(x, y)`` arrays (-1 where
    there is none).  Expands the smaller-degree endpoint's adjacency
    slice flat, then asks which of those neighbors shares a neighbor
    with the other endpoint.  For an edge just dropped, a hit is a
    3-hop detour.  Returns None instead when either expansion would
    flatten more than ``budget`` rows (around hubs it grows with the
    product of two degrees)."""
    x = np.full(a.size, -1, dtype=np.int64)
    y = x.copy()
    if a.size == 0:
        return x, y
    flat = _smaller_slices(dirs, a, b, starts, budget)
    if flat is None:
        return None
    seg, nbrs, other = flat
    inner = _smaller_slices(dirs, nbrs, other, starts, budget)
    if inner is None:
        return None
    iseg, mid, far = inner
    hit = np.flatnonzero(member(dirs, (mid << SHIFT) | far))
    # One walk per pair: its first hit.  ``nbrs`` neighbors the pair's
    # smaller-degree endpoint, ``mid`` neighbors both ``nbrs`` and the
    # other endpoint; orient the walk from ``a``.
    pairs, first = np.unique(seg[iseg[hit]], return_index=True)
    rows, hit = iseg[hit[first]], hit[first]
    from_a = other[rows] == b[pairs]
    x[pairs] = np.where(from_a, nbrs[rows], mid[hit])
    y[pairs] = np.where(from_a, mid[hit], nbrs[rows])
    return x, y


def classify(dirs, su, sv, active, starts=None):
    """Legality codes for activation requests whose already-active test
    is known: ``active`` is the membership of ``pack(su, sv)`` in the
    pre-round key array (``starts``: see :func:`dist2_ok`).  See
    :func:`legality_codes`."""
    # Later assignments take precedence.  ``active`` is never true for
    # an unknown node or a self-loop: their packed keys are negative or
    # have lo == hi, which no key array holds.
    codes = np.zeros(su.shape, dtype=np.int8)
    codes[active] = ACTIVE
    codes[su == sv] = SELF_LOOP
    codes[(su < 0) | (sv < 0)] = UNKNOWN
    cand = (codes == 0).nonzero()[0]
    codes[cand[~dist2_ok(dirs, su[cand], sv[cand], starts)]] = NOT_DIST2
    return codes


def legality_codes(state, su, sv):
    """Classify activation requests against the pre-round state.

    ``su``/``sv`` are endpoint slots (-1: unknown node); ``state`` the
    active edge set (:class:`EdgeKeys`).  Returns ``(codes, packed)``:
    one code per request with precedence unknown node → self-loop →
    already active → not at distance 2 (0 when legal), and the
    requests' packed keys (meaningful where the code is 0 or
    :data:`ACTIVE`).
    """
    packed = pack(su, sv)
    dirs = state.dirs
    codes = classify(dirs, su, sv, member(dirs, packed), state.starts(su.size))
    return codes, packed


def uf_fold(parent, uu, vv, forest=False):
    """Fold edges into a flat union-find: min-label hooking with full
    path compression, iterated to fixpoint.  Returns the fully
    compressed parent array (every entry points at its root) — with
    ``forest``, also the sorted indices (into ``uu``/``vv``) of a
    spanning forest of the folded edges: each pass hooks every root to
    a smaller one, and keeps one edge per hook."""
    p = parent
    idx = np.arange(uu.size) if forest else None
    picked = [EMPTY]
    while True:
        while True:
            q = p[p]
            if np.array_equal(q, p):
                break
            p = q
        ru, rv = p[uu], p[vv]
        diff = ru != rv
        if not diff.all():
            # Joined endpoints stay joined: later passes skip the edge.
            uu, vv, ru, rv = uu[diff], vv[diff], ru[diff], rv[diff]
            if forest:
                idx = idx[diff]
        if not uu.size:
            return (p, np.sort(np.concatenate(picked))) if forest else p
        hi, lo = np.maximum(ru, rv), np.minimum(ru, rv)
        np.minimum.at(p, hi, lo)
        if forest:
            won = np.flatnonzero(p[hi] == lo)
            _, first = np.unique(hi[won], return_index=True)
            picked.append(idx[won[first]])


def request_max(actors) -> int:
    """The largest per-actor request count (0 for no requests)."""
    if actors.size == 0:
        return 0
    return int(np.bincount(actors - actors.min()).max())
