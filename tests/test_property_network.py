"""Property suite: Network invariants under random action sequences.

Random connected graphs are driven through random *mixed* (legal and
illegal) ``RoundActions`` batches, checking after every round:

* adjacency symmetry — ``v in N(u)`` iff ``u in N(v)``;
* original-edge immutability — ``E(1)`` never changes under ``apply``;
* the incremental :class:`ConnectivityTracker` always agrees with a
  fresh networkx recomputation on the snapshot graph;
* strict mode rejects the first illegal action *atomically* — the
  network state (nodes, adjacency, active edges, round counter) is
  untouched by a rejected batch;
* the dense backend's :class:`DenseNetwork` stays observably equal to
  the reference :class:`Network` under the same action stream (the
  state-level arm of the cross-backend differential oracle);
* its array apply (the bulk backend's kernel rounds) commits the same
  sets, keeps both edge counters exact, and raises the same strict-mode
  violation as the reference on the same requests given as arrays;
* per-edge rounds, array rounds and strikes interleaved on one
  :class:`DenseNetwork` keep it equal to the reference step by step
  (the array state and the uid-keyed state hand over in both
  directions).
"""

from collections import Counter

import networkx as nx
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.engine import ConnectivityTracker, Network, RoundActions, edge_key  # noqa: E402
from repro.engine.actions import RequestArrays  # noqa: E402
from repro.engine.dense import DenseConnectivityTracker, DenseNetwork  # noqa: E402
from repro.engine.metrics import MetricsRecorder  # noqa: E402
from repro.errors import ProtocolViolation  # noqa: E402


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def connected_graphs(draw):
    """A random connected graph: random spanning tree + extra edges."""
    n = draw(st.integers(min_value=2, max_value=20))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, parents[i - 1]) for i in range(1, n))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=n,
        )
    )
    g.add_edges_from((u, v) for u, v in extra if u != v)
    return g


@st.composite
def action_rounds(draw, n):
    """A sequence of per-round request batches, legal and illegal mixed.

    Requests are raw ``(actor, u, v)`` triples over node ids ``0..n``
    (``n`` itself is an unknown node), so self-loops, unknown nodes,
    already-active edges, distance>2 pairs, and activate/deactivate
    conflicts all occur naturally.
    """
    node = st.integers(min_value=0, max_value=n)  # n is unknown on purpose
    request = st.tuples(node, node)
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(request, max_size=6),  # activation requests
                st.lists(request, max_size=4),  # deactivation requests
            ),
            min_size=1,
            max_size=8,
        )
    )
    return rounds


def _batch(acts, dacts) -> RoundActions:
    actions = RoundActions()
    for u, v in acts:
        actions.request_activation(u, u, v)
    for u, v in dacts:
        actions.request_deactivation(u, u, v)
    return actions


def _observable_state(net) -> tuple:
    """Everything a program or the runner can see of a network."""
    return (
        set(net.nodes),
        {u: set(net.neighbors(u)) for u in net.nodes},
        set(net.edges()),
        set(net.original_edges),
        set(net.activated_edges()),
        net.num_active_edges,
        net.round,
    )


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------


@given(data=st.data())
def test_invariants_under_random_actions(data):
    graph = data.draw(connected_graphs())
    rounds = data.draw(action_rounds(graph.number_of_nodes()))
    net = Network(graph)
    tracker = ConnectivityTracker(net)
    original = set(net.original_edges)

    for acts, dacts in rounds:
        activations, deactivations = net.apply(_batch(acts, dacts), strict=False)
        tracker.update(activations, deactivations)

        # Adjacency symmetry, and neighbors() consistency with edges().
        for u in net.nodes:
            for v in net.neighbors(u):
                assert u in net.neighbors(v)
                assert net.has_edge(u, v) and net.has_edge(v, u)
        assert {edge_key(u, v) for u in net.nodes for v in net.neighbors(u)} == set(
            net.edges()
        )

        # E(1) is immutable under model-rule application.
        assert set(net.original_edges) == original

        # Incremental connectivity agrees with a fresh recomputation.
        snapshot = net.snapshot_graph()
        assert tracker.is_connected() == nx.is_connected(snapshot)

        # The effective sets are disjoint and were applied.
        assert not activations & deactivations
        for e in activations:
            assert net.has_edge(*e)
        for e in deactivations:
            assert not net.has_edge(*e)


@given(data=st.data())
def test_strict_rejection_leaves_state_untouched(data):
    graph = data.draw(connected_graphs())
    n = graph.number_of_nodes()
    net = Network(graph)

    # Drive a few legal-ish rounds first so state is not pristine.
    for acts, dacts in data.draw(action_rounds(n)):
        net.apply(_batch(acts, dacts), strict=False)

    kind = data.draw(st.sampled_from(["unknown", "self-loop", "distance"]))
    actions = RoundActions()
    if kind == "unknown":
        actions.request_activation(0, 0, n + 5)
    elif kind == "self-loop":
        actions.request_activation(1, 1, 1)
    else:
        # Guaranteed illegal: a complete graph has no distance-2 pair, so
        # pick any currently inactive pair; if none exists, fall back to
        # an unknown node.
        inactive = [
            (u, v)
            for u in net.nodes
            for v in net.nodes
            if u < v and not net.has_edge(u, v) and not net.common_neighbor_exists(u, v)
        ]
        if inactive:
            u, v = inactive[0]
            actions.request_activation(u, u, v)
        else:
            actions.request_activation(0, 0, n + 5)

    before = _observable_state(net)
    with pytest.raises(ProtocolViolation):
        net.apply(actions, strict=True)
    assert _observable_state(net) == before


@given(data=st.data())
def test_dense_network_matches_reference(data):
    graph = data.draw(connected_graphs())
    rounds = data.draw(action_rounds(graph.number_of_nodes()))
    ref = Network(graph)
    dense = DenseNetwork(graph)
    ref_tracker = ConnectivityTracker(ref)
    dense_tracker = DenseConnectivityTracker(dense)

    assert _observable_state(dense) == _observable_state(ref)
    for acts, dacts in rounds:
        ra, rd = ref.apply(_batch(acts, dacts), strict=False)
        da, dd = dense.apply(_batch(acts, dacts), strict=False)
        assert set(da) == set(ra)
        assert set(dd) == set(rd)
        assert _observable_state(dense) == _observable_state(ref)
        # Canonical neighbor views must agree element-for-element in
        # iteration order, not just as sets (the trace-identity keystone).
        for u in ref.nodes:
            assert list(ref.neighbors(u)) == list(dense.neighbors(u))
        assert dense_tracker.update(da, dd) == ref_tracker.update(ra, rd)
        assert dense_tracker.components == ref_tracker.components

    # Strict mode raises the same violation text on both backends.
    actions = RoundActions()
    actions.request_activation(0, 0, graph.number_of_nodes() + 7)
    with pytest.raises(ProtocolViolation) as ref_exc:
        ref.apply(actions, strict=True)
    with pytest.raises(ProtocolViolation) as dense_exc:
        dense.apply(actions, strict=True)
    assert str(ref_exc.value) == str(dense_exc.value)


# ----------------------------------------------------------------------
# the array apply (bulk kernel rounds) against the reference
# ----------------------------------------------------------------------


@st.composite
def request_rounds(draw, n):
    """Per-round request batches for the array apply: labels ``-1`` and
    ``n`` are unknown nodes, and each round repeats some activation
    requests verbatim (duplicates) and asks the other endpoint to
    deactivate some (act/deact conflicts), on top of the random
    self-loops, already-active edges and distance>2 pairs."""
    node = st.integers(min_value=-1, max_value=n)
    pair = st.tuples(node, node)
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        acts = draw(st.lists(pair, max_size=8))
        dacts = draw(st.lists(pair, max_size=4))
        if acts:
            acts += draw(st.lists(st.sampled_from(acts), max_size=3))
            dacts += [(v, u) for u, v in draw(st.lists(st.sampled_from(acts), max_size=3))]
        rounds.append((acts, dacts))
    return rounds


def _arrays(acts, dacts) -> RequestArrays:
    np = pytest.importorskip("numpy")
    a = np.array(acts, dtype=np.int64).reshape(-1, 2)
    d = np.array(dacts, dtype=np.int64).reshape(-1, 2)
    return RequestArrays(a[:, 0], a[:, 0], a[:, 1], d[:, 0], d[:, 0], d[:, 1])


def _pairs(keys) -> set:
    return {(k >> 32, k & 0xFFFFFFFF) for k in keys.tolist()}


@given(data=st.data())
def test_array_apply_matches_reference(data):
    """Committed sets, both edge counters and the per-actor request max
    agree every round (without touching the Python views); the full
    observable state agrees once the views are read at the end."""
    request_max = pytest.importorskip("repro.engine.edge_keys").request_max
    graph = data.draw(connected_graphs())
    n = graph.number_of_nodes()
    ref = Network(graph)
    dense = DenseNetwork(graph)
    ref_tracker = ConnectivityTracker(ref)
    dense_tracker = DenseConnectivityTracker(dense)
    for acts, dacts in data.draw(request_rounds(n)):
        batch = _batch(acts, dacts)
        requests = _arrays(acts, dacts)
        ra, rd = ref.apply(batch, strict=False)
        da, dd = dense.apply_arrays(requests, strict=False)
        assert (_pairs(da), _pairs(dd)) == (ra, rd)
        assert dense.num_active_edges == ref.num_active_edges
        assert dense.num_activated_edges == ref.num_activated_edges
        assert request_max(requests.act_actor) == max(
            batch.activation_count_by_actor().values(), default=0
        )
        assert dense_tracker.update_keys(da, dd) == ref_tracker.update(ra, rd)
        assert dense_tracker.components == ref_tracker.components
    assert _observable_state(dense) == _observable_state(ref)
    for u in ref.nodes:
        assert list(ref.neighbors(u)) == list(dense.neighbors(u))


def test_array_round_drops_a_self_loop_of_g_s():
    """A self-loop of G_s sits twice in the directed key array; an array
    round that drops it removes both copies, as the reference drops the
    edge."""
    np = pytest.importorskip("numpy")
    graph = nx.Graph([(0, 1), (1, 2), (2, 3), (1, 1)])
    ref, dense = Network(graph), DenseNetwork(graph)
    acts, dacts = [(0, 2)], [(1, 1)]
    ra, rd = ref.apply(_batch(acts, dacts), strict=False)
    da, dd = dense.apply_arrays(_arrays(acts, dacts), strict=False)
    assert (_pairs(da), _pairs(dd)) == (ra, rd) == ({(0, 2)}, {(1, 1)})
    assert sorted(dense.edges()) == sorted(ref.edges())
    assert dense.num_active_edges == ref.num_active_edges == 4
    assert dense.key_state().deg.tolist() == np.bincount(
        dense.key_state().dirs >> 32, minlength=4
    ).tolist() == [2, 2, 3, 1]
    assert _observable_state(dense) == _observable_state(ref)


@given(data=st.data())
def test_array_apply_strict_matches_reference(data):
    """Strict mode: the same first offender, the same message, and the
    same atomic rejection — or, for a legal batch, the same commit."""
    graph = data.draw(connected_graphs())
    ref = Network(graph)
    dense = DenseNetwork(graph)
    for acts, dacts in data.draw(request_rounds(graph.number_of_nodes())):
        try:
            expected = ref.apply(_batch(acts, dacts), strict=True)
        except ProtocolViolation as exc:
            expected = str(exc)
        try:
            da, dd = dense.apply_arrays(_arrays(acts, dacts), strict=True)
            got = (_pairs(da), _pairs(dd))
        except ProtocolViolation as exc:
            got = str(exc)
        assert got == expected
        assert dense.num_active_edges == ref.num_active_edges
    assert _observable_state(dense) == _observable_state(ref)


@given(data=st.data())
def test_dense_external_mutation_matches_reference(data):
    graph = data.draw(connected_graphs())
    n = graph.number_of_nodes()
    ref = Network(graph)
    dense = DenseNetwork(graph)
    node = st.integers(min_value=0, max_value=n + 2)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        drops = data.draw(st.lists(st.tuples(node, node), max_size=3))
        adds = data.draw(st.lists(st.tuples(node, node), max_size=3))
        crashes = data.draw(st.lists(node, max_size=2))
        joins = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=n, max_value=n + 4),
                    st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3),
                ),
                max_size=2,
            )
        )
        drops = [edge_key(u, v) for u, v in drops if u != v]
        joins = [(uid, tuple(att)) for uid, att in joins]
        rd, ra = ref.apply_external(drops=drops, adds=adds, crashes=crashes, joins=joins)
        dd, da = dense.apply_external(drops=drops, adds=adds, crashes=crashes, joins=joins)
        assert (set(dd), set(da)) == (set(rd), set(ra))
        assert _observable_state(dense) == _observable_state(ref)
        for u in ref.nodes:
            assert list(ref.neighbors(u)) == list(dense.neighbors(u))


# ----------------------------------------------------------------------
# per-edge rounds, array rounds and strikes interleaved on one network
# ----------------------------------------------------------------------


@st.composite
def mixed_steps(draw, n, near=()):
    """A sequence of per-edge rounds, array rounds and strikes.  Labels
    run from ``-1`` to ``n + 3``, so requests name unknown, crashed and
    joined nodes; a join of uid ``len(uids)`` keeps the interning the
    identity (array rounds stay possible), any other uid or a crash
    ends it.  Round requests also draw from the pairs ``near``, so
    that legal activations, and drops of them, are common."""
    node = st.integers(min_value=-1, max_value=n + 3)
    pair = st.tuples(node, node)
    request = st.sampled_from(near) | pair if near else pair
    join = st.tuples(st.integers(min_value=n, max_value=n + 3), st.lists(node, max_size=3))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(["edge", "arrays", "arrays", "strike"]))
        if kind == "strike":
            drops = draw(st.lists(pair, max_size=3))
            steps.append((kind, {
                "drops": [edge_key(u, v) for u, v in drops if u != v],
                "adds": draw(st.lists(pair, max_size=3)),
                "crashes": draw(st.lists(node, max_size=1)),
                "joins": [(uid, tuple(att)) for uid, att in draw(st.lists(join, max_size=2))],
            }))
        else:
            acts = draw(st.lists(request, max_size=8))
            steps.append((kind, acts, draw(st.lists(request, max_size=4))))
    return steps


def _strict_outcome(apply):
    try:
        return apply(True)
    except ProtocolViolation as exc:
        return str(exc)


@given(data=st.data())
def test_mixed_modes_match_reference(data):
    """After every step: the edge sets, both edge counters, ``E(1)``
    membership, the canonical neighbor views in iteration order, the
    connectivity components, and the strict-mode outcome (the commit or
    the violation text) agree with the reference."""
    graph = data.draw(connected_graphs())
    n = graph.number_of_nodes()
    ref, dense = Network(graph), DenseNetwork(graph)
    ref_tracker, dense_tracker = ConnectivityTracker(ref), DenseConnectivityTracker(dense)
    for step in data.draw(mixed_steps(n)):
        kind = step[0]
        if kind == "strike":
            events = step[1]
            assert dense.apply_external(**events) == ref.apply_external(**events)
            assert dense_tracker.rebuild() == ref_tracker.rebuild()
        else:
            acts, dacts = step[1], step[2]
            arrays = kind == "arrays" and dense._identity and (
                len(dense._idx_of) == len(dense._uid_of)
            )

            def ref_apply(strict):
                return ref.apply(_batch(acts, dacts), strict=strict)

            def dense_apply(strict):
                if arrays:
                    return dense.apply_arrays(_arrays(acts, dacts), strict=strict)
                return dense.apply(_batch(acts, dacts), strict=strict)

            expected, got = _strict_outcome(ref_apply), _strict_outcome(dense_apply)
            assert isinstance(got, str) is isinstance(expected, str), (got, expected)
            if isinstance(expected, str):  # rejected atomically: commit leniently
                assert got == expected
                expected, got = ref_apply(False), dense_apply(False)
            (ra, rd), (da, dd) = expected, got
            if arrays:
                assert (_pairs(da), _pairs(dd)) == (ra, rd)
                updated = dense_tracker.update_keys(da, dd)
            else:
                assert (da, dd) == (ra, rd)
                updated = dense_tracker.update(da, dd)
            assert updated == ref_tracker.update(ra, rd)
        assert dense_tracker.components == ref_tracker.components
        assert set(dense.edges()) == set(ref.edges())
        assert dense.num_active_edges == ref.num_active_edges
        assert dense.num_activated_edges == ref.num_activated_edges
        labels = range(-1, n + 4)
        assert [dense.is_original(u, v) for u in labels for v in labels] == [
            ref.is_original(u, v) for u in labels for v in labels
        ]
        assert _observable_state(dense) == _observable_state(ref)
        for u in ref.nodes:
            assert list(dense.neighbors(u)) == list(ref.neighbors(u))


@given(data=st.data())
def test_activated_edge_counter_is_exact(data):
    """The O(1) ``num_activated_edges`` counter equals a recount of
    ``E(i) \\ E(1)`` after every per-edge round, array round and strike,
    on the reference network and on ``DenseNetwork``; so do a
    :class:`MetricsRecorder`'s two activated-subgraph watermarks, fed
    each step as the runners feed it (``record_round``, ``record_keys``
    on array rounds, ``record_external`` on strikes).  The degree
    watermark is the recorder's: read between a round's activations and
    its deactivations, over ``E(i-1) | E(i)`` outside ``E(1)``.  The
    recorder's per-node degree tally itself (its array form, then its
    dict form) must equal the recount after every step, so a wrong
    decrement shows even where no watermark moves."""
    graph = data.draw(connected_graphs())
    ref, dense = Network(graph), DenseNetwork(graph)
    near = sorted({  # the pairs at distance 2 in G_s
        (u, w) for u in graph for v in graph[u] for w in graph[v]
        if w != u and w not in graph[u]
    })
    recorders = {ref: MetricsRecorder(ref), dense: MetricsRecorder(dense)}
    tops = {ref: (0, 0), dense: (0, 0)}
    before = {ref: set(), dense: set()}
    for step in data.draw(mixed_steps(graph.number_of_nodes(), near)):
        kind = step[0]
        if kind == "strike":
            for net in (ref, dense):
                dropped, added = net.apply_external(**step[1])
                recorders[net].record_external(
                    dropped, added, step[1]["crashes"], step[1]["joins"]
                )
        else:
            recorders[ref].record_round(*ref.apply(_batch(step[1], step[2]), strict=False))
            if kind == "arrays" and dense._identity and (
                len(dense._idx_of) == len(dense._uid_of)
            ):
                akeys, dkeys = dense.apply_arrays(_arrays(step[1], step[2]), strict=False)
                recorders[dense].record_keys(akeys, dkeys, 0)
            else:
                recorders[dense].record_round(
                    *dense.apply(_batch(step[1], step[2]), strict=False)
                )
        for net in (ref, dense):
            activated = net.activated_edges()
            assert net.num_activated_edges == len(activated)
            degree = Counter(u for e in activated | before[net] for u in e)
            before[net] = activated
            edges_top, degree_top = tops[net]
            tops[net] = (
                max(edges_top, len(activated)),
                max(degree_top, max(degree.values(), default=0)),
            )
            recorder = recorders[net]
            m = recorder.metrics
            assert (m.max_activated_edges, m.max_activated_degree) == tops[net]
            tally = (
                recorder._activated_degree
                if recorder._np is None
                else dict(enumerate(recorder._degree_arr.tolist()))
            )
            assert {u: d for u, d in tally.items() if d} == Counter(
                u for e in activated for u in e
            )
