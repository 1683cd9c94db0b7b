"""Tests for the synchronous runner: round order, messaging, metrics, barriers."""

import copy
import gc
import weakref

import networkx as nx
import pytest

from repro.engine import (
    CentralizedStrategy,
    NodeProgram,
    SynchronousRunner,
    run_centralized,
    run_program,
)
from repro.errors import ExecutionError, ProtocolViolation


class Idle(NodeProgram):
    """Halts immediately."""

    def transition(self, ctx, inbox):
        self.halt()


class PingOnce(NodeProgram):
    """Sends its uid to all neighbors in round 1 and records round-1 inbox."""

    def __init__(self, uid):
        super().__init__(uid)
        self.seen = {}

    def compose(self, ctx):
        if ctx.round == 1:
            return {v: ("ping", self.uid) for v in ctx.neighbors}
        return None

    def transition(self, ctx, inbox):
        if ctx.round == 1:
            self.seen = dict(inbox)
        self.halt()


class ActivateDistance2(NodeProgram):
    """Node 0 activates an edge to its distance-2 node, then halts."""

    def transition(self, ctx, inbox):
        if self.uid == 0 and ctx.round == 1:
            ctx.activate(2)
        self.halt()


class BadSender(NodeProgram):
    def compose(self, ctx):
        return {999: "hello"}

    def transition(self, ctx, inbox):
        self.halt()


class NeverHalts(NodeProgram):
    pass


class TestBasics:
    def test_all_halt(self):
        res = run_program(nx.path_graph(3), Idle)
        assert res.rounds == 1
        assert res.metrics.total_activations == 0

    def test_same_round_message_delivery(self):
        res = run_program(nx.path_graph(3), PingOnce)
        assert res.program(1).seen == {0: ("ping", 0), 2: ("ping", 2)}
        assert res.program(0).seen == {1: ("ping", 1)}

    def test_activation_applied(self):
        res = run_program(nx.path_graph(3), ActivateDistance2)
        assert res.network.has_edge(0, 2)
        assert res.metrics.total_activations == 1

    def test_message_to_non_neighbor_rejected(self):
        with pytest.raises(ProtocolViolation):
            run_program(nx.path_graph(3), BadSender)

    def test_round_limit(self):
        with pytest.raises(ExecutionError):
            run_program(nx.path_graph(3), NeverHalts, max_rounds=5)

    def test_uid_consistency_checked(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SynchronousRunner(nx.path_graph(2), lambda uid: Idle(uid + 1))


class PublicReader(NodeProgram):
    """Reads neighbor publics; checks they reflect start-of-round state."""

    def __init__(self, uid):
        super().__init__(uid)
        self.value = 0
        self.observed = {}

    def public(self):
        return {"value": self.value}

    def transition(self, ctx, inbox):
        self.observed[ctx.round] = {
            v: ctx.neighbor_public(v)["value"] for v in ctx.neighbors
        }
        self.value = ctx.round * 10 + self.uid
        if ctx.round == 2:
            self.halt()


class TestPublics:
    def test_publics_are_start_of_round_snapshots(self):
        res = run_program(nx.path_graph(2), PublicReader)
        p0 = res.program(0)
        # Round 1 sees initial values; round 2 sees values set in round 1.
        assert p0.observed[1] == {1: 0}
        assert p0.observed[2] == {1: 11}

    def test_reading_non_neighbor_public_rejected(self):
        class Bad(NodeProgram):
            def transition(self, ctx, inbox):
                ctx.neighbor_public(self.uid + 2)

        with pytest.raises(ProtocolViolation):
            run_program(nx.path_graph(4), Bad)


class BarrierProgram(NodeProgram):
    """Raises barrier_ready at staggered rounds; counts epochs observed."""

    def __init__(self, uid):
        super().__init__(uid)
        self.epochs_seen = []

    def transition(self, ctx, inbox):
        self.epochs_seen.append(ctx.barrier_epoch)
        if ctx.round >= self.uid + 1:
            self.barrier_ready = True
        if ctx.barrier_epoch >= 1:
            self.halt()

    def on_barrier(self, epoch):
        super().on_barrier(epoch)
        self.last_epoch = epoch


class TestBarrier:
    def test_barrier_fires_when_all_ready(self):
        res = run_program(nx.path_graph(3), BarrierProgram, use_barrier=True)
        # Node 2 becomes ready in round 3; barrier fires at end of round 3.
        assert res.barrier_epochs == 1
        assert res.program(2).last_epoch == 1

    def test_no_barrier_without_flag(self):
        class Ready(NodeProgram):
            def transition(self, ctx, inbox):
                self.barrier_ready = True
                if ctx.round == 3:
                    self.halt()

        res = run_program(nx.path_graph(3), Ready)
        assert res.barrier_epochs == 0


class TestBarrierGlobalHalt:
    def test_barrier_does_not_fire_when_all_halt_same_round(self):
        """All programs raise barrier_ready AND halt in the same round: the
        barrier condition becomes true exactly as the run globally halts,
        and must not fire."""
        fired = []

        class ReadyAndHalt(NodeProgram):
            def transition(self, ctx, inbox):
                if ctx.round == 2:
                    self.barrier_ready = True
                    self.halt()

            def on_barrier(self, epoch):
                fired.append((self.uid, epoch))

        res = run_program(nx.path_graph(3), ReadyAndHalt, use_barrier=True)
        assert res.barrier_epochs == 0
        assert fired == []
        assert res.rounds == 2

    def test_barrier_skips_halted_stragglers(self):
        """Nodes that halted earlier don't block (or receive) the barrier."""
        fired = []

        class HaltOrReady(NodeProgram):
            def transition(self, ctx, inbox):
                if self.uid == 0:
                    self.halt()  # halts in round 1, never barrier_ready
                else:
                    self.barrier_ready = True
                    if ctx.barrier_epoch >= 1:
                        self.halt()

            def on_barrier(self, epoch):
                super().on_barrier(epoch)
                fired.append(self.uid)

        res = run_program(nx.path_graph(3), HaltOrReady, use_barrier=True)
        assert res.barrier_epochs >= 1
        assert 0 not in fired
        assert set(fired) >= {1, 2}


class TestHaltInHooks:
    def test_halt_in_on_barrier_stops_next_round(self):
        """A program halting inside on_barrier must not receive compose or
        transition in later rounds, and the round count must not inflate."""
        post_halt_calls = []

        class HaltAtBarrier(NodeProgram):
            def transition(self, ctx, inbox):
                if self.halted:
                    post_halt_calls.append(self.uid)
                self.barrier_ready = True

            def on_barrier(self, epoch):
                super().on_barrier(epoch)
                self.halt()

        res = run_program(nx.path_graph(2), HaltAtBarrier, use_barrier=True)
        assert post_halt_calls == []
        assert res.rounds == 1
        assert res.barrier_epochs == 1

    def test_halt_in_setup_skips_all_rounds(self):
        calls = []

        class HaltInSetup(NodeProgram):
            def setup(self, ctx):
                self.halt()

            def transition(self, ctx, inbox):
                calls.append(self.uid)

        res = run_program(nx.path_graph(3), HaltInSetup)
        assert calls == []
        assert res.rounds == 0


class TestReadOnlyContext:
    def test_program_cannot_mutate_adjacency(self):
        """Regression: ctx.neighbors used to hand out the live adjacency
        set, letting a buggy program bypass the legality rules."""

        class Evil(NodeProgram):
            def transition(self, ctx, inbox):
                self.blocked = 0
                target = next(iter(ctx.neighbors))
                for attack in (
                    lambda: ctx.neighbors.add(99),
                    lambda: ctx.neighbors.discard(target),
                    lambda: ctx.neighbor_adjacency(target).add(self.uid),
                ):
                    try:
                        attack()
                    except AttributeError:
                        self.blocked += 1
                self.halt()

        res = run_program(nx.path_graph(3), Evil)
        assert res.program(0).blocked == 3
        # The network was not corrupted: still the original path.
        assert set(res.final_graph().edges()) == {(0, 1), (1, 2)}

    def test_context_reuse_tracks_round(self):
        class Keeper(NodeProgram):
            def __init__(self, uid):
                super().__init__(uid)
                self.ctxs = []
                self.rounds_seen = []

            def transition(self, ctx, inbox):
                self.ctxs.append(ctx)
                self.rounds_seen.append(ctx.round)
                if ctx.round == 3:
                    self.halt()

        res = run_program(nx.path_graph(2), Keeper)
        prog = res.program(0)
        assert prog.rounds_seen == [1, 2, 3]
        # One reusable context per node, refreshed in place each round.
        assert len({id(c) for c in prog.ctxs}) == 1


class TestPublicDirtyTracking:
    def test_halted_programs_not_resnapshotted(self):
        calls = {}

        class Counting(NodeProgram):
            def public(self):
                calls[self.uid] = calls.get(self.uid, 0) + 1
                return {"uid": self.uid}

            def transition(self, ctx, inbox):
                if self.uid == 0:
                    self.halt()  # halts in round 1
                elif ctx.round == 5:
                    self.halt()

        run_program(nx.path_graph(2), Counting)
        # Node 0: initial + round-1 (post-setup) + final post-halt snapshot;
        # no per-round calls while halted.  Node 1 pays one call per round.
        assert calls[0] <= 3
        assert calls[1] >= 5

    def test_managed_dirty_program_skips_resnapshots(self):
        calls = {}

        class Cached(NodeProgram):
            manages_public_dirty = True

            def public(self):
                calls[self.uid] = calls.get(self.uid, 0) + 1
                return {"value": getattr(self, "value", 0)}

            def transition(self, ctx, inbox):
                if ctx.round == 2:
                    self.value = 42
                    self.touch_public()
                if ctx.round == 4:
                    self.halt()

        res = run_program(nx.path_graph(2), Cached)
        # initial + post-setup + the one touch_public: three calls, not one
        # per round.
        assert all(c <= 3 for c in calls.values())
        assert res.rounds == 4

    def test_managed_dirty_updates_visible_to_neighbors(self):
        class Sender(NodeProgram):
            manages_public_dirty = True

            def __init__(self, uid):
                super().__init__(uid)
                self.value = 0
                self.seen = {}

            def public(self):
                return {"value": self.value}

            def transition(self, ctx, inbox):
                other = 1 - self.uid
                self.seen[ctx.round] = ctx.neighbor_public(other)["value"]
                if ctx.round == 1:
                    self.value = 7
                    self.touch_public()
                if ctx.round == 3:
                    self.halt()

        res = run_program(nx.path_graph(2), Sender)
        # Round 1 sees initial 0; the touched update is visible from round 2.
        assert res.program(0).seen == {1: 0, 2: 7, 3: 7}


class TestMetricsIntegration:
    def test_max_activated_degree(self):
        class Hub(NodeProgram):
            def transition(self, ctx, inbox):
                if self.uid == 0:
                    if ctx.round == 1:
                        ctx.activate(2)
                    elif ctx.round == 2:
                        ctx.activate(3)
                if ctx.round == 2:
                    self.halt()

        res = run_program(nx.path_graph(4), Hub)
        assert res.metrics.total_activations == 2
        assert res.metrics.max_activated_degree == 2  # node 0 in D(i) \ D(1)
        assert res.metrics.max_activated_edges == 2

    def test_per_node_activation_counts(self):
        res = run_program(nx.path_graph(3), ActivateDistance2)
        assert res.metrics.max_activations_per_node_round == 1

    def test_trace_collection(self):
        res = run_program(nx.path_graph(3), ActivateDistance2, collect_trace=True)
        assert len(res.trace) == 1
        assert res.trace[0].activations == {(0, 2)}
        assert res.trace.all_connected()

    def test_connectivity_guard(self):
        class Cut(NodeProgram):
            def transition(self, ctx, inbox):
                if self.uid == 0:
                    ctx.deactivate(1)
                self.halt()

        with pytest.raises(ProtocolViolation):
            run_program(nx.path_graph(3), Cut, check_connectivity=True)


# ---------------------------------------------------------------------------
# the run heap and the cyclic collector (DESIGN.md, "Engine hot path")
# ---------------------------------------------------------------------------


class FreezeProbe(NodeProgram):
    """Records the permanent generation's size as seen from round 1."""

    seen: list = []

    def transition(self, ctx, inbox):
        if self.uid == 0:
            FreezeProbe.seen.append(gc.get_freeze_count())
        self.halt()


class FrozenFleetProbe(NodeProgram):
    """Records whether the heap is frozen while it is built and while
    its ``setup()`` runs."""

    seen: list = []

    def __init__(self, uid):
        super().__init__(uid)
        FrozenFleetProbe.seen.append(("init", gc.get_freeze_count() > 0))

    def setup(self, ctx):
        FrozenFleetProbe.seen.append(("setup", gc.get_freeze_count() > 0))

    def transition(self, ctx, inbox):
        self.halt()


class CyclePerRound(NodeProgram):
    """Builds reference cycles every round; at the last round, collects
    and records whether the earlier rounds' cycles are gone."""

    LAST = 6
    refs: list = []
    dead: list = []

    def transition(self, ctx, inbox):
        for _ in range(200):
            cycle = []
            cycle.append(cycle)
        CyclePerRound.refs.append(weakref.ref(_Cycle()))
        if ctx.round == self.LAST:
            gc.collect()
            CyclePerRound.dead.append(all(r() is None for r in CyclePerRound.refs))
            self.halt()


class _Cycle:
    def __init__(self):
        self.me = self


class Crash(NodeProgram):
    """Breaks connectivity in round 1."""

    def transition(self, ctx, inbox):
        if self.uid == 0:
            ctx.deactivate(1)
        self.halt()


class _TwoRounds(CentralizedStrategy):
    def plan_round(self, network, actions):
        return network.round < 2


class _Forever(CentralizedStrategy):
    def plan_round(self, network, actions):
        return True


@pytest.mark.parametrize("backend", ["reference", "bulk"])
class TestFrozenHeap:
    def test_run_freezes_the_prebuilt_heap(self, backend):
        assert gc.get_freeze_count() == 0
        FreezeProbe.seen = []
        run_program(nx.path_graph(3), FreezeProbe, backend=backend)
        assert FreezeProbe.seen and FreezeProbe.seen[0] > 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(
        "program, kwargs, error",
        [
            (Idle, {}, None),
            (Crash, {"check_connectivity": True}, ProtocolViolation),
            (NeverHalts, {"max_rounds": 5}, ExecutionError),
        ],
        ids=["returns", "protocol-violation", "round-limit"],
    )
    def test_freeze_count_is_restored(self, backend, program, kwargs, error):
        before = gc.get_freeze_count()
        if error is None:
            run_program(nx.path_graph(3), program, backend=backend, **kwargs)
        else:
            with pytest.raises(error):
                run_program(nx.path_graph(3), program, backend=backend, **kwargs)
        assert gc.get_freeze_count() == before

    def test_a_callers_freeze_is_left_alone(self, backend):
        gc.freeze()
        try:
            FreezeProbe.seen = []
            run_program(nx.path_graph(3), FreezeProbe, backend=backend)
            assert FreezeProbe.seen[0] > 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_fleet_construction_and_setup_run_frozen(self, backend):
        # A full collection while the fleet is built or set up would walk
        # the caller's whole heap.
        FrozenFleetProbe.seen = []
        run_program(nx.path_graph(3), FrozenFleetProbe, backend=backend)
        assert FrozenFleetProbe.seen == [("init", True)] * 3 + [("setup", True)] * 3
        assert gc.get_freeze_count() == 0

    def test_run_garbage_is_still_collected(self, backend):
        young = []

        def hook(phase, info):
            if phase == "stop" and info["generation"] == 0:
                young.append(1)

        CyclePerRound.refs = []
        CyclePerRound.dead = []
        gc.callbacks.append(hook)
        try:
            run_program(nx.path_graph(4), CyclePerRound, backend=backend)
        finally:
            gc.callbacks.remove(hook)
        assert young, "no young collection ran during the run"
        assert CyclePerRound.dead and all(CyclePerRound.dead)


@pytest.mark.parametrize(
    "strategy, kwargs, error",
    [(_TwoRounds, {}, None), (_Forever, {"max_rounds": 5}, ExecutionError)],
    ids=["returns", "round-limit"],
)
def test_centralized_freeze_count_is_restored(strategy, kwargs, error):
    before = gc.get_freeze_count()
    if error is None:
        run_centralized(nx.path_graph(3), strategy(), **kwargs)
    else:
        with pytest.raises(error):
            run_centralized(nx.path_graph(3), strategy(), **kwargs)
    assert gc.get_freeze_count() == before


# ---------------------------------------------------------------------------
# bulk sparse path: halt batches compact the slot arrays
# ---------------------------------------------------------------------------


class BarrierHalts(NodeProgram):
    """A sparse barrier family whose halts come both from ``transition``
    and from ``on_barrier``, with barrier-ready flags that on_barrier
    resets behind the runner's arrays."""

    bulk_sparse = True

    def __init__(self, uid):
        super().__init__(uid)
        self._pub = {"uid": uid}

    def public(self):
        return self._pub

    def transition(self, ctx, inbox):
        self.barrier_ready = ctx.round % 3 != 0
        if ctx.round > 2 and self.uid % 7 == ctx.round % 7:
            self.halt()

    def on_barrier(self, epoch):
        super().on_barrier(epoch)
        if self.uid % 5 == epoch % 5:
            self.halt()


def _slot_state(runner, ready: bool = True) -> dict:
    state = {
        name: list(getattr(runner, name))
        for name in (
            "_uids", "_progs", "_ctxs", "_composes", "_transitions",
            "_publicfns", "_next_wakes", "_net_idx", "_live",
        )
    }
    state["_pub_objs"] = [id(p) for p in runner._pub_objs]
    state["_pos_of_uid"] = dict(runner._pos_of_uid)
    state["_slot_of_idx"] = runner._slot_of_idx.tolist()
    state["_wake"] = runner._wake.tolist()
    state["_stale"] = runner._stale.tolist()
    state["_sparse"] = runner._sparse
    if ready:
        state["_ready"] = list(runner._ready)
        state["_ready_count"] = runner._ready_count
    return state


def _oracle_checked(monkeypatch, BulkRunner) -> dict:
    """Check every halt batch against a from-scratch slot-array refresh.

    At the compaction itself every array but the ready flags must equal
    what ``_refresh_slot_arrays()`` builds from the surviving slots, with
    each survivor's wake state carried over by uid.  The ready flags are
    checked at round end, after any ``on_barrier`` sweep, against the
    programs themselves.
    """
    seen = {"partial": 0, "rounds": 0}
    rebuild, run_round = BulkRunner._rebuild_batch, BulkRunner._run_round

    def checked_rebuild(self):
        sparse = self._sparse
        oracle = copy.copy(self)
        oracle._slots = [s for s in self._slots if not s[1].halted]
        oracle._refresh_slot_arrays()
        carried = [self._pos_of_uid[s[0]] for s in oracle._slots]
        oracle._wake = self._wake[carried]
        oracle._stale = self._stale[carried]
        before = len(self._progs)
        rebuild(self)
        if sparse:
            assert _slot_state(self, ready=False) == _slot_state(oracle, ready=False)
            if 0 < len(self._progs) < before:
                seen["partial"] += 1

    def checked_round(self, recorder, observers):
        run_round(self, recorder, observers)
        if self._sparse:
            seen["rounds"] += 1
            assert self._ready == [p.barrier_ready for p in self._progs]
            assert self._ready_count == sum(self._ready)

    monkeypatch.setattr(BulkRunner, "_rebuild_batch", checked_rebuild)
    monkeypatch.setattr(BulkRunner, "_run_round", checked_round)
    return seen


class TestBulkHaltCompaction:
    @pytest.mark.parametrize("family, seed", [("gnp", 3), ("increasing_ring", 0)])
    def test_wreath_halting_wave(self, monkeypatch, family, seed):
        from repro.core.graph_to_wreath import GraphToWreathProgram
        from repro.engine import BulkRunner
        from repro.graphs import families

        seen = _oracle_checked(monkeypatch, BulkRunner)
        graph = families.make(family, 64, seed=seed)
        res = SynchronousRunner(
            graph, GraphToWreathProgram, use_barrier=True, backend="bulk"
        ).run()
        assert seen["partial"] >= 2 and seen["rounds"]
        ref = SynchronousRunner(graph, GraphToWreathProgram, use_barrier=True).run()
        assert res.metrics == ref.metrics and res.rounds == ref.rounds

    def test_halts_inside_the_barrier(self, monkeypatch):
        from repro.engine import BulkRunner

        seen = _oracle_checked(monkeypatch, BulkRunner)
        barrier = BulkRunner._barrier_block
        in_barrier = []

        def counting_barrier(self, next_round):
            before = len(self._progs)
            wakes = barrier(self, next_round)
            if 0 < len(self._progs) < before:
                in_barrier.append(before - len(self._progs))
            return wakes

        monkeypatch.setattr(BulkRunner, "_barrier_block", counting_barrier)
        graph = nx.cycle_graph(40)
        res = SynchronousRunner(
            graph, BarrierHalts, use_barrier=True, collect_trace=True, backend="bulk"
        ).run()
        assert in_barrier and seen["partial"] > len(in_barrier)
        ref = SynchronousRunner(graph, BarrierHalts, use_barrier=True, collect_trace=True).run()
        assert res.trace.to_jsonl() == ref.trace.to_jsonl()
        assert res.barrier_epochs == ref.barrier_epochs and res.rounds == ref.rounds
