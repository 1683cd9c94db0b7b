"""Differential: the conformance replays' folds vs the engine.

Both replays fold adversary strikes with ``Network.apply_external``
itself: ``_EdgeReplay`` on its own reference ``Network``, and
``ArrayReplayTracker`` on a reference ``Network`` built from its arrays
for the strike and re-interned afterwards.  This suite holds both to
the engine through their public surface — after every fold,
``snapshot()`` must give the engine network's nodes and edges — three
ways:

* **named regressions** — one test per divergence the PR 10 sweep
  found in the replay's old restatement of the strike fold (each failed
  against it): the engine never crashes the last remaining node, skips
  a duplicate join *entirely* (no attach edges onto the existing
  node), and silently drops self-loop adds / self-attach joins;
* **round folds between strikes** — rounds that drop original edges
  and re-add them, and activate new ones, fold identically, and both
  temporal-legality checkers count ``|E(i) \\ E(1)|`` exactly as
  ``Network.num_activated_edges`` does (a re-activated original edge is
  not an activated edge);
* **hypothesis sweep** — random strike batches mixing same-batch
  crash+join uid interactions, joins attaching to crashed or unknown
  uids, duplicate joins, drops naming crashed endpoints and self-loop
  adds, each after a round pair that cycles edges off and on.
"""

import networkx as nx
import pytest

from repro.conformance import TemporalLegalityChecker, _EdgeReplay
from repro.conformance_arrays import ArrayReplayTracker, ArrayTemporalLegalityChecker
from repro.engine.actions import RoundActions
from repro.engine.network import Network
from repro.engine.trace import PerturbationRecord, RoundRecord

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


def _net(nodes, edges):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return Network(g, require_connected=False)


def _ring(n):
    return _net(range(n), [(i, (i + 1) % n) for i in range(n)])


def _pert(*, drops=(), adds=(), crashes=(), joins=()):
    return PerturbationRecord(
        round=1,
        drops=frozenset(drops),
        adds=frozenset(adds),
        crashes=tuple(crashes),
        joins=tuple(joins),
    )


class _Replays:
    """Every replay and legality checker, started on ``net`` and fed the
    events the engine applies to it."""

    def __init__(self, net):
        self.replays = [_EdgeReplay(), ArrayReplayTracker()]
        self.checkers = [TemporalLegalityChecker(), ArrayTemporalLegalityChecker()]
        for r in (*self.replays, *self.checkers):
            r.on_run_start(net)

    def strike(self, net, record):
        net.apply_external(
            drops=record.drops,
            adds=record.adds,
            crashes=record.crashes,
            joins=record.joins,
        )
        for r in self.replays:
            r.fold_strike(record)
        for c in self.checkers:
            c.on_perturbation(record)
        _assert_match(net, self)

    def round(self, net, activations=(), deactivations=()):
        """One engine round of requests by their first endpoint, legality
        filtered; the replays fold its effective sets."""
        actions = RoundActions()
        for u, v in activations:
            actions.request_activation(u, u, v)
        for u, v in deactivations:
            actions.request_deactivation(u, u, v)
        acts, deacts = net.apply(actions, strict=False)
        record = RoundRecord(
            round=net.round - 1,
            activations=frozenset(acts),
            deactivations=frozenset(deacts),
            active_edges=net.num_active_edges,
            activated_edges=net.num_activated_edges,
            connected=True,
        )
        for r in self.replays:
            r.fold_round(record)
        for c in self.checkers:
            c.on_round(record)
        _assert_match(net, self)


def _canon(edges):
    return {tuple(sorted(e)) for e in edges}


def _assert_match(net, replays):
    for replay in replays.replays:
        nodes, edges = replay.snapshot()
        assert set(nodes) == set(net.nodes)
        assert len(edges) == net.num_active_edges
        assert _canon(edges) == _canon(net.edges())
    dict_checker, array_checker = replays.checkers
    assert dict_checker._n_activated == net.num_activated_edges
    assert array_checker._n_activated == net.num_activated_edges
    for c in replays.checkers:
        assert c.ok, c.verdict().detail


def _fold_both(net, record):
    _Replays(net).strike(net, record)


# ----------------------------------------------------------------------
# named regressions (each diverged before the PR 10 fixes)
# ----------------------------------------------------------------------


def test_crash_never_removes_the_last_node():
    """The engine skips a crash that would empty the network; the
    pre-fix replay applied it and ended up with zero nodes."""
    net = _net([7], [])
    _fold_both(net, _pert(crashes=[7]))
    # And the sequential form: crash everyone, one at a time — the
    # engine's guard re-evaluates per event, leaving exactly one node.
    net = _ring(3)
    record = _pert(crashes=[0, 1, 2])
    _fold_both(net, record)
    assert len(net.nodes) == 1


def test_duplicate_join_attaches_no_edges():
    """A join whose uid already exists is skipped *entirely* — the
    pre-fix replay fell through and attached the edges anyway."""
    net = _ring(4)
    _fold_both(net, _pert(joins=[(0, (2,))]))
    assert not net.has_edge(0, 2)


def test_same_batch_duplicate_joins_keep_first_attach():
    """Two joins of the same new uid in one batch: the second is the
    duplicate (the first already added the node)."""
    net = _ring(4)
    _fold_both(net, _pert(joins=[(9, (0,)), (9, (1, 2))]))
    assert net.has_edge(9, 0) and not net.has_edge(9, 1)


def test_self_loop_add_is_skipped():
    """The engine drops self-loop adds; the pre-fix replay stored ``u``
    in its own adjacency set and diverged on the folded edge count."""
    net = _ring(4)
    _fold_both(net, _pert(adds=[(2, 2)]))


def test_join_attaching_to_itself_is_skipped():
    net = _ring(4)
    _fold_both(net, _pert(joins=[(9, (9, 0))]))
    assert net.has_edge(9, 0)


def test_join_attaching_to_crashed_uid_in_same_batch():
    """Crashes fold first, so a join attaching to the crashed uid gets
    no edge — but an attach to a surviving node still lands."""
    net = _ring(4)
    _fold_both(net, _pert(crashes=[1], joins=[(9, (1, 2))]))
    assert net.has_edge(9, 2) and 1 not in net.nodes


def test_drop_naming_crashed_endpoint_is_noop():
    net = _ring(4)
    _fold_both(net, _pert(crashes=[1], drops=[(1, 2), (2, 3)]))


def test_legality_checker_inherits_the_fold():
    """The temporal-legality checker's perturbation hook folds with the
    engine's own strike semantics (a crash, then a re-join of the same
    uid) and recounts its activated edges from the engine's ``E(1)``."""
    checker = TemporalLegalityChecker()
    checker.on_run_start(_ring(4))
    checker.on_perturbation(_pert(crashes=[0], joins=[(0, (1,))]))
    net = _ring(4)
    net.apply_external(crashes=[0], joins=[(0, (1,))])
    _, edges = checker.snapshot()
    assert _canon(edges) == _canon(net.edges())
    assert checker._n_activated == net.num_activated_edges == 0


# ----------------------------------------------------------------------
# round folds between strikes: E(1) edges off and on again
# ----------------------------------------------------------------------


def test_reactivated_original_edge_is_not_activated():
    """Triangle 0-1-2 plus pendant 3: dropping the original edge (0, 1)
    and re-activating it through 2 leaves ``|E(i) \\ E(1)| = 0``.  Once
    a strike has dropped it, it has left ``E(1)``, and re-activating it
    makes an activated edge."""
    net = _net(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    replays = _Replays(net)
    replays.round(net, deactivations=[(0, 1)])
    replays.round(net, activations=[(0, 1)])
    assert net.has_edge(0, 1) and net.num_activated_edges == 0
    replays.strike(net, _pert(drops=[(0, 1)]))
    replays.round(net, activations=[(0, 1)])
    assert net.has_edge(0, 1) and net.num_activated_edges == 1


def test_crash_purges_a_crashed_nodes_inactive_original_edges():
    """A crash takes the node's *inactive* original edges out of
    ``E(1)`` too: after node 0 crashes and re-joins, re-activating its
    old original edge (0, 1) makes an activated edge."""
    net = _ring(4)
    replays = _Replays(net)
    replays.round(net, deactivations=[(0, 1)])
    replays.strike(net, _pert(crashes=[0], joins=[(0, (2,))]))
    replays.round(net, activations=[(0, 1)])
    assert net.has_edge(0, 1) and net.num_activated_edges == 1


def test_round_cycles_between_strikes_keep_the_count():
    """Activated edges, original edges cycled off and on, and strikes
    that drop, crash and add in between: the replays and both legality
    checkers track the engine after every event."""
    net = _ring(6)
    replays = _Replays(net)
    replays.round(net, activations=[(0, 2), (3, 5)])  # two activated edges
    replays.round(net, deactivations=[(0, 1), (3, 5)])
    replays.strike(net, _pert(drops=[(0, 2)], adds=[(0, 3)]))
    replays.round(net, activations=[(1, 5)], deactivations=[(4, 5)])
    replays.round(net, activations=[(0, 1), (4, 5), (3, 5)])  # (0, 1): back via 5
    replays.strike(net, _pert(crashes=[4], joins=[(9, (0, 5))]))
    replays.round(net, activations=[(9, 1)], deactivations=[(0, 1)])
    replays.round(net, activations=[(0, 1)])
    assert net.num_activated_edges > 0


# ----------------------------------------------------------------------
# hypothesis sweep over random strike batches
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    _uid = st.integers(min_value=0, max_value=11)
    _new_uid = st.integers(min_value=8, max_value=15)
    _pair = st.tuples(_uid, _uid)
    _batch = st.fixed_dictionaries(
        {
            "drops": st.lists(_pair, max_size=4),
            "adds": st.lists(_pair, max_size=4),
            "crashes": st.lists(_uid, max_size=4),
            "joins": st.lists(
                st.tuples(_new_uid, st.lists(_uid, max_size=3).map(tuple)),
                max_size=3,
            ),
        }
    )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        batches=st.lists(_batch, min_size=1, max_size=3),
        cycles=st.lists(st.lists(_pair, max_size=3), min_size=3, max_size=3),
        fresh=st.lists(_pair, max_size=3),
    )
    def test_random_strike_batches_match_engine(n, batches, cycles, fresh):
        """Each strike batch follows a round pair that drops some edges
        and then re-activates them (legal ones only, as the engine
        filters), with some new activations riding along."""
        net = _ring(n) if n >= 3 else _net(
            range(n), [(i, i + 1) for i in range(n - 1)]
        )
        replays = _Replays(net)
        for batch, cycle in zip(batches, cycles):
            replays.round(net, activations=fresh, deactivations=cycle)
            replays.round(net, activations=cycle)
            replays.strike(net, _pert(**batch))
else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_random_strike_batches_match_engine():
        pass
