"""Edge sets as sorted packed-key arrays (numpy).

The one array statement of the model's edge rules, shared by the bulk
engine (:meth:`repro.engine.dense.DenseNetwork.apply_arrays`, the star
kernel, the metrics recorder) and the array conformance checkers
(:mod:`repro.conformance_arrays`).  The per-edge statements are the
reference :meth:`repro.engine.network.Network.apply` (the oracle) and the
dense backend's :meth:`~repro.engine.dense.DenseNetwork.apply` loop.

* An undirected edge between slots ``i`` and ``j`` packs to
  ``(min << 32) | max`` — the same key the dense backend's packed-pair
  sets use.  An edge set is one sorted unique ``int64`` array.
* Adjacency is a second sorted array of *directed* keys (both
  orientations), so a slot's neighbor slice is two ``searchsorted``
  probes and "do ``a`` and ``b`` share a neighbor" is a flat expansion of
  the smaller slice plus one membership pass.
* Rounds update both by sorted merge/delete (O(E + k) memcpy), never by
  rebuilding.

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


def pack(su, sv):
    """Undirected packed keys for slot pairs (smaller slot high)."""
    lo = np.minimum(su, sv)
    hi = np.maximum(su, sv)
    return (lo << SHIFT) | hi


def both_dirs(keys):
    """Sorted directed keys (both orientations) for undirected keys."""
    swapped = ((keys & MASK) << SHIFT) | (keys >> SHIFT)
    return np.sort(np.concatenate([keys, swapped]))


def positions(base, vals):
    """``np.searchsorted(base, vals)``, probing in sorted query order.

    Sorted probes walk ``base`` front to back, which makes a large
    unsorted query batch several times cheaper, argsort included."""
    order = np.argsort(vals)
    pos = np.empty(vals.shape, dtype=np.intp)
    pos[order] = np.searchsorted(base, vals[order])
    return pos


def member(base, vals):
    """Boolean membership of ``vals`` in the sorted array ``base``."""
    if base.size == 0 or vals.size == 0:
        return np.zeros(vals.shape, dtype=bool)
    pos = positions(base, vals)
    pos[pos == base.size] = base.size - 1
    return base[pos] == vals


def unique(keys):
    """Sorted distinct ``keys`` (``np.unique`` without its hashing
    pass, which costs ~30x more on int64 keys)."""
    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def merge_in(base, add):
    """Sorted merge of ``add`` (sorted, disjoint from ``base``)."""
    if add.size == 0:
        return base
    return np.insert(base, np.searchsorted(base, add), add)


def delete_from(base, rem):
    """Remove ``rem`` (sorted, a subset of ``base``) from ``base``."""
    if rem.size == 0:
        return base
    return np.delete(base, np.searchsorted(base, rem))


def identity_slots(labels, size: int):
    """Slots of int labels under identity interning (-1: unknown)."""
    return np.where((labels >= 0) & (labels < size), labels, np.int64(-1))


def dist2_ok(dirs, a, b):
    """Per pair: do slots ``a[k]`` and ``b[k]`` share a neighbor in the
    directed key array ``dirs``?  Expands the smaller-degree endpoint's
    adjacency slice flat and probes ``dirs`` for (neighbor, other)."""
    ok = np.zeros(a.size, dtype=bool)
    if a.size == 0:
        return ok
    sa, ea = positions(dirs, a << SHIFT), positions(dirs, (a + 1) << SHIFT)
    sb, eb = positions(dirs, b << SHIFT), positions(dirs, (b + 1) << SHIFT)
    small_is_a = (ea - sa) <= (eb - sb)
    starts = np.where(small_is_a, sa, sb)
    cnt = np.where(small_is_a, ea - sa, eb - sb)
    other = np.where(small_is_a, b, a)
    total = int(cnt.sum())
    if total == 0:
        return ok
    seg = np.repeat(np.arange(a.size), cnt)
    offs = np.concatenate(([0], np.cumsum(cnt)))[:-1]
    flat = starts[seg] + (np.arange(total) - offs[seg])
    nbrs = dirs[flat] & MASK
    hits = member(dirs, (nbrs << SHIFT) | other[seg])
    ok[np.bincount(seg, weights=hits, minlength=a.size) > 0] = True
    return ok


def legality_codes(keys, dirs, su, sv):
    """Classify activation requests against the pre-round state.

    ``su``/``sv`` are endpoint slots (-1: unknown node); ``keys``/``dirs``
    the active undirected/directed key arrays.  Returns ``(codes,
    packed)``: one code per request with precedence unknown node →
    self-loop → already active → not at distance 2 (0 when legal), and
    the requests' packed keys (meaningful where the code is 0 or
    :data:`ACTIVE`).
    """
    unknown = (su < 0) | (sv < 0)
    selfloop = ~unknown & (su == sv)
    rem = ~(unknown | selfloop)
    packed = pack(su, sv)
    active = np.zeros(su.shape, dtype=bool)
    active[rem] = member(keys, packed[rem])
    cand = np.flatnonzero(rem & ~active)
    not2 = np.zeros(su.shape, dtype=bool)
    not2[cand[~dist2_ok(dirs, su[cand], sv[cand])]] = True
    codes = UNKNOWN * unknown + SELF_LOOP * selfloop + ACTIVE * active + NOT_DIST2 * not2
    return codes, packed


def request_max(actors) -> int:
    """The largest per-actor request count (0 for no requests)."""
    if actors.size == 0:
        return 0
    return int(np.bincount(actors - actors.min()).max())
