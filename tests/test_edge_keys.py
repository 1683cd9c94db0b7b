"""The packed-key primitives of :mod:`repro.engine.edge_keys` against
Python-set brute force.

These primitives are both the bulk engine's array apply and the array
checkers' replay, so every answer is held to a plain set computation:
sorted positions, membership, dedupe, sorted merge and delete, the
directed closure, the distance-2 and 3-walk tests (with and without a
slice-start table) and the legality codes.  Batches are drawn empty,
single-element, duplicate-heavy (endpoints come from a few slots) and on
both sides of the size switches:
:data:`~repro.engine.edge_keys.SMALL_BATCH`, where
:func:`~repro.engine.edge_keys.positions` moves from direct to
sorted-order probing, :data:`~repro.engine.edge_keys.SPLICE_MAX`,
where merges and deletes move from slice splicing to a boolean mask,
and :data:`~repro.engine.edge_keys.MERGE_BY_SORT`, where merges move
from probing to a stable sort.
"""

from bisect import bisect_left

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.engine import edge_keys as ek

SB, SM = ek.SMALL_BATCH, ek.SPLICE_MAX

#: Batch sizes: the edge cases, both sides of each switch, and anything
#: up to three times the larger one.
SIZES = st.one_of(
    st.sampled_from([0, 1, 2, SB - 1, SB, SB + 1]),
    st.integers(min_value=0, max_value=3 * SM),
    st.integers(min_value=0, max_value=3 * SB),
)


@st.composite
def slot_pairs(draw, n):
    """Two equal-length int64 slot arrays over ``0..n-1``; small ones are
    drawn value by value (so they shrink), large ones from a seeded
    generator."""
    size = draw(SIZES)
    if size <= 8:
        vals = draw(st.lists(st.integers(0, n - 1), min_size=2 * size, max_size=2 * size))
        flat = np.array(vals, dtype=np.int64)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        flat = rng.integers(0, n, 2 * size, dtype=np.int64)
    return flat[:size], flat[size:]


@st.composite
def key_sets(draw, n):
    """A sorted unique undirected key array over ``0..n-1``."""
    u, v = draw(slot_pairs(n))
    keep = u != v
    return np.array(sorted(set(ek.pack(u[keep], v[keep]).tolist())), dtype=np.int64)


def _adjacency(dirs):
    adj = {}
    for key in dirs.tolist():
        adj.setdefault(key >> ek.SHIFT, set()).add(key & int(ek.MASK))
    return adj


def _keys(values):
    return np.array(sorted(values), dtype=np.int64)


N = st.integers(min_value=2, max_value=12)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_positions_and_member(data, n):
    base = data.draw(key_sets(n))
    u, v = data.draw(slot_pairs(n))
    vals = ek.pack(u, v)  # duplicates, self-loops, members and not
    listed, present = base.tolist(), set(base.tolist())
    assert ek.positions(base, vals).tolist() == [bisect_left(listed, x) for x in vals.tolist()]
    assert ek.member(base, vals).tolist() == [x in present for x in vals.tolist()]


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_unique(data, n):
    u, v = data.draw(slot_pairs(n))
    keys = ek.pack(u, v)
    assert ek.unique(keys).tolist() == sorted(set(keys.tolist()))


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_merge_in_and_delete_from(data, n):
    base = data.draw(key_sets(n))
    other = data.draw(key_sets(2 * n))  # half its keys lie outside base's slots
    present = set(base.tolist())
    add = _keys(set(other.tolist()) - present)
    rem = _keys(set(other.tolist()) & present)
    merged = ek.merge_in(base, add)
    assert merged.tolist() == sorted(present | set(add.tolist()))
    assert ek.delete_from(base, rem).tolist() == sorted(present - set(rem.tolist()))
    # Both build new arrays (or hand back ``base`` untouched).
    assert base.tolist() == sorted(present)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_both_dirs(data, n):
    keys = data.draw(key_sets(n))
    pairs = [(k >> ek.SHIFT, k & int(ek.MASK)) for k in keys.tolist()]
    expected = sorted({(a << ek.SHIFT) | b for x, y in pairs for a, b in ((x, y), (y, x))})
    assert ek.both_dirs(keys).tolist() == expected


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_dist2_ok(data, n):
    dirs = ek.both_dirs(data.draw(key_sets(n)))
    a, b = data.draw(slot_pairs(n))
    adj = _adjacency(dirs)
    expected = [bool(adj.get(x, set()) & adj.get(y, set())) for x, y in zip(a.tolist(), b.tolist())]
    assert ek.dist2_ok(dirs, a, b).tolist() == expected


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_legality_codes(data, n):
    """Precedence unknown node → self-loop → already active → not at
    distance 2, with ``-1`` slots for unknown nodes."""
    keys = data.draw(key_sets(n))
    dirs = ek.both_dirs(keys)
    su, sv = data.draw(slot_pairs(n + 1))
    su, sv = np.where(su == n, -1, su), np.where(sv == n, -1, sv)
    active, adj = set(keys.tolist()), _adjacency(dirs)

    def code(x, y):
        if x < 0 or y < 0:
            return ek.UNKNOWN
        if x == y:
            return ek.SELF_LOOP
        if (min(x, y) << ek.SHIFT) | max(x, y) in active:
            return ek.ACTIVE
        return 0 if adj.get(x, set()) & adj.get(y, set()) else ek.NOT_DIST2

    codes, packed = ek.legality_codes(ek.EdgeKeys(n, dirs), su, sv)
    assert codes.tolist() == [code(x, y) for x, y in zip(su.tolist(), sv.tolist())]
    assert packed.tolist() == ek.pack(su, sv).tolist()


@settings(deadline=None, max_examples=60)
@given(data=st.data(), big=st.integers(min_value=40, max_value=90))
def test_merge_in_on_both_sides_of_the_sort_switch(data, big):
    """Bases of up to ~4000 keys take adds from a handful (probing,
    spliced or masked) to well past ``base.size / MERGE_BY_SORT``
    (sorting); deletes reuse positions the caller probed."""
    base = data.draw(key_sets(big))
    present = set(base.tolist())
    outside = sorted(
        (u << ek.SHIFT) | v for u in range(big, big + 40) for v in range(u + 1, big + 41)
    )
    k = data.draw(st.sampled_from(
        [1, SM, SM + 1, max(1, base.size // ek.MERGE_BY_SORT - 1),
         base.size // ek.MERGE_BY_SORT + 1, len(outside)]
    ))
    add = _keys(data.draw(st.permutations(outside))[:k])
    assert ek.merge_in(base, add).tolist() == sorted(present | set(add.tolist()))
    rem = _keys(data.draw(st.permutations(base.tolist()))[: min(k, base.size)])
    at = base.searchsorted(rem)
    expected = sorted(present - set(rem.tolist()))
    assert ek.delete_from(base, rem).tolist() == expected
    assert ek.delete_from(base, rem, at).tolist() == expected


def _walk3(adj, x, y):
    return any(adj.get(w, set()) & adj.get(y, set()) for w in adj.get(x, ()))


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_distance_witnesses_with_slice_starts(data, n):
    """``dist2_witness``/``dist2_ok`` and ``walk3_witness`` against brute
    force, reading slice bounds by probing and off a
    :func:`slice_starts` table alike: a witness exists exactly when the
    brute force finds one, and every witness is a real walk;
    ``walk3_witness`` gives up (None) exactly when an expansion tops its
    budget."""
    dirs = ek.both_dirs(data.draw(key_sets(n)))
    a, b = data.draw(slot_pairs(n))
    adj = _adjacency(dirs)
    pairs = list(zip(a.tolist(), b.tolist()))
    starts = ek.slice_starts(np.bincount(dirs >> ek.SHIFT, minlength=n))
    two = [bool(adj.get(x, set()) & adj.get(y, set())) for x, y in pairs]
    three = [_walk3(adj, x, y) for x, y in pairs]

    def edge(u, v):
        return v in adj.get(u, ())

    for table in (None, starts):
        assert ek.dist2_ok(dirs, a, b, table).tolist() == two
        w = ek.dist2_witness(dirs, a, b, table).tolist()
        assert [c >= 0 for c in w] == two
        assert all(edge(x, c) and edge(c, y) for (x, y), c in zip(pairs, w) if c >= 0)
        wx, wy = (arr.tolist() for arr in ek.walk3_witness(dirs, a, b, table))
        assert [c >= 0 for c in wx] == three == [c >= 0 for c in wy]
        assert all(
            edge(x, p) and edge(p, q) and edge(q, y)
            for (x, y), p, q in zip(pairs, wx, wy) if p >= 0
        )
    deg = {x: len(adj.get(x, ())) for x in range(n)}
    first = [min(deg[x], deg[y]) for x, y in pairs]
    inner = [
        min(deg[w], deg[y if deg[x] <= deg[y] else x])
        for x, y in pairs
        for w in sorted(adj.get(x if deg[x] <= deg[y] else y, ()))
    ]
    budget = data.draw(st.integers(min_value=0, max_value=max(sum(first), sum(inner), 1)))
    got = ek.walk3_witness(dirs, a, b, starts, budget)
    if a.size and (sum(first) > budget or sum(inner) > budget):
        assert got is None
    else:
        assert [c >= 0 for c in got[0].tolist()] == three


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_uf_fold_spanning_forest(data, n):
    """``uf_fold(..., forest=True)``: the roots label the components and
    the picked edges are a spanning forest of them — one edge per merge,
    no cycle, the same partition."""
    keys = data.draw(key_sets(n))
    uu, vv = keys >> ek.SHIFT, keys & ek.MASK
    roots, picked = ek.uf_fold(np.arange(n), uu, vv, forest=True)
    assert np.array_equal(roots, ek.uf_fold(np.arange(n), uu, vv))
    comps = {}
    for x, r in enumerate(roots.tolist()):
        comps.setdefault(r, set()).add(x)
    assert len(picked) == n - len(comps)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k in picked.tolist():
        x, y = find(int(uu[k])), find(int(vv[k]))
        assert x != y  # no cycle
        parent[x] = y
    assert len({find(x) for x in range(n)}) == len(comps)
    for members in comps.values():
        assert len({find(x) for x in members}) == 1


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=N)
def test_edge_keys_fold(data, n):
    """:meth:`~repro.engine.edge_keys.EdgeKeys.fold` is set arithmetic,
    vector and spliced alike: after each round the directed array, the
    degrees, the derived undirected half, the size and the slice-start
    table are those of the live set.  Start sets may hold self-loops,
    whose key the directed array holds twice, and rounds may drop them
    (or undo their own adds)."""
    loops = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
    live = set(data.draw(key_sets(n)).tolist()) | {(s << ek.SHIFT) | s for s in loops}
    state = ek.EdgeKeys(n, ek.both_dirs(_keys(live)), _keys(live))
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        outside = set(data.draw(key_sets(n)).tolist()) - live
        added = _keys(outside)
        gone = _keys(data.draw(st.sets(st.sampled_from(sorted(live | outside))))
                     if live | outside else ())
        after = (live | outside) - set(gone.tolist())
        if data.draw(st.booleans()):
            state.fold(added, gone)
        else:  # a splice: the caller built the directed array
            ins, dels = outside - set(gone.tolist()), live & set(gone.tolist())
            state.fold(ins, dels, ek.both_dirs(_keys(after)))
        live = after
        expected = ek.both_dirs(_keys(live))
        assert state.dirs.tolist() == expected.tolist()
        assert state.keys.tolist() == sorted(live)
        assert state.size == len(live)
        assert state.deg.tolist() == np.bincount(expected >> ek.SHIFT, minlength=n).tolist()
        assert state.starts(n).tolist() == ek.slice_starts(state.deg).tolist()
