"""The packed-key primitives of :mod:`repro.engine.edge_keys` against
Python-set brute force.

These primitives are both the bulk engine's array apply and the array
checkers' replay, so every answer is held to a plain set computation:
sorted positions, membership, dedupe, sorted merge and delete, the
directed closure, the distance-2 test and the legality codes.  Batches
are drawn empty, single-element, duplicate-heavy (endpoints come from a
few slots) and on both sides of the two size switches:
:data:`~repro.engine.edge_keys.SMALL_BATCH`, where
:func:`~repro.engine.edge_keys.positions` moves from direct to
sorted-order probing, and :data:`~repro.engine.edge_keys.SPLICE_MAX`,
where merges and deletes move from slice splicing to a boolean mask.
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

    codes, packed = ek.legality_codes(keys, dirs, su, sv)
    assert codes.tolist() == [code(x, y) for x, y in zip(su.tolist(), sv.tolist())]
    assert packed.tolist() == ek.pack(su, sv).tolist()
