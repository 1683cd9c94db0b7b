"""The synchronous round executor for distributed node programs.

Hot-path design (see DESIGN.md, "Engine hot path"):

* the runner keeps an explicit ordered set of *live* (non-halted) uids, so
  halted nodes cost nothing per round;
* public records are persistent and re-snapshotted only for programs whose
  state may have changed (:attr:`NodeProgram.public_dirty`);
* one :class:`Context` per node is built lazily and reused across rounds;
* one :class:`RoundActions` batch is reused (cleared) across rounds;
* the optional connectivity guard is incremental: activations fold into a
  union-find, and only rounds with deactivations pay a full recheck;
* the caller's heap is frozen while the network and fleet are built
  and for the whole run, setup included (:func:`frozen_heap`), so the
  cyclic collector walks only what the runner itself allocates.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping

import networkx as nx

from ..errors import ConfigurationError, ExecutionError, ProtocolViolation
from .actions import RoundActions
from .metrics import Metrics, MetricsRecorder
from .network import ConnectivityTracker, Network
from .observers import RawRound, TraceObserver
from .program import Context, NodeProgram
from .trace import PerturbationRecord, RoundRecord, Trace

#: The available engine backends (see DESIGN.md, "Engine backends").
BACKENDS = ("reference", "bulk")


def resolve_backend(backend: str | None = None) -> str:
    """Resolve an explicit backend name, the ``REPRO_BACKEND`` environment
    default, or the built-in ``"reference"`` default — in that order."""
    name = backend if backend is not None else os.environ.get("REPRO_BACKEND") or "reference"
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown engine backend {name!r}; known backends: {BACKENDS}"
        )
    return name


@contextmanager
def frozen_heap():
    """Keep the cyclic collector off every object that exists on entry.

    ``gc.freeze()`` moves the tracked heap — imported modules, the graph,
    the network, the fleet, the checkers — into the permanent generation,
    so the collections a round loop triggers walk only the objects the
    run allocates; ``gc.unfreeze()`` hands them back on exit, whether the
    body returns or raises.  A heap someone else already froze (a
    pre-fork server, an enclosing run) is left exactly as it is.  See
    DESIGN.md, "Engine hot path".
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@dataclass
class RunResult:
    """Everything produced by one execution.

    ``programs`` maps every uid to its final program, in the order the
    network's nodes had at construction.  On a bulk whole-run kernel run
    it is a read-only lazy mapping that builds a program from the
    kernel's state row on first read (:class:`repro.engine.bulk.KernelFleet`).
    A centralized run has no programs: the mapping is empty.
    """

    network: Network
    programs: Mapping
    metrics: Metrics
    trace: Trace | None
    rounds: int
    barrier_epochs: int

    def program(self, uid) -> NodeProgram:
        return self.programs[uid]

    def final_graph(self) -> nx.Graph:
        return self.network.snapshot_graph()

    def final_keys(self):
        """The final graph as ``(uids, keys)``, read from the network's
        own state (:meth:`Network.slot_keys`)."""
        return self.network.slot_keys()


class SynchronousRunner:
    """Drives node programs through synchronous rounds.

    Parameters
    ----------
    graph:
        The initial network ``G_s``.
    program_factory:
        Callable ``uid -> NodeProgram`` building each node's program.
    knows_n:
        Expose ``n`` to programs through the context (the paper assumes this
        for GraphToThinWreath; see DESIGN.md note 6).
    use_barrier:
        Enable the global segment barrier (DESIGN.md note 2): when every
        program has ``barrier_ready`` set at the end of a round, the barrier
        epoch is advanced and each program's ``on_barrier`` hook runs.  The
        barrier never fires in a round in which the last programs halt.
    check_connectivity:
        Verify after every round that the active graph stays connected
        (our algorithms never break connectivity).  Incremental: near-O(1)
        in activation-only rounds, O(n + m) after deactivations.
    strict:
        Raise :class:`ProtocolViolation` on illegal actions instead of
        dropping them (DESIGN.md, "Strict vs. non-strict legality").
    collect_trace:
        Record a per-round :class:`Trace` (implemented as one
        :class:`~repro.engine.observers.TraceObserver` on the observer
        pipeline).
    observers:
        Extra :class:`~repro.engine.observers.RoundObserver` hooks fed
        by the round loop — streaming JSONL sinks, online conformance
        checkers (:mod:`repro.conformance`), activity summarizers.
        Observers see the identical records on every backend; with no
        observers and no trace the round loop skips record construction
        entirely (the hot path is untouched).
    adversary:
        An external perturbation schedule (see ``repro.dynamics``):
        its per-round :class:`Perturbation` batches are applied at round
        boundaries, outside the model's legality rules.  Crashed nodes'
        programs are retired from the live set; joined nodes' programs
        are spawned through ``program_factory``.  ``None`` (the default)
        keeps the round loop on the unperturbed hot path — the only cost
        is one ``is None`` test per round.
    backend:
        ``"reference"`` (this class) or ``"bulk"`` (the index-interned,
        array-native backend in :mod:`repro.engine.bulk`).  The two
        backends produce byte-identical traces and equal :class:`Metrics`
        for every program; ``None`` falls back to the ``REPRO_BACKEND``
        environment variable, then to ``"reference"``.  See DESIGN.md,
        "Engine backends".
    """

    #: Which backend this runner class implements (subclasses override).
    backend_name = "reference"
    #: Cached observer payload partition for :meth:`_emit_round`
    #: (``(observers, per-observer raw flags, any_raw, any_record)``).
    _obs_partition = None

    def _emit_round(self, observers, round_no, activations, deactivations) -> None:
        """Deliver a committed (hence connected) round to every observer.

        Observers declaring ``accepts_raw_rounds`` receive a borrowed
        :class:`~repro.engine.observers.RawRound` over the runner's own
        effective collections — no ``frozenset`` materialization on
        their behalf; everyone else receives the exact
        :class:`RoundRecord` as before.  Each payload is built at most
        once per round, and not at all when no observer wants it.  The
        partition is cached per observers list (identity-checked), so
        steady-state cost is one list lookup.
        """
        cached = self._obs_partition
        if cached is None or cached[0] is not observers:
            flags = [bool(getattr(o, "accepts_raw_rounds", False)) for o in observers]
            cached = (observers, flags, any(flags), not all(flags))
            self._obs_partition = cached
        _, flags, any_raw, any_record = cached
        net = self.network
        active_edges = net.num_active_edges
        activated_edges = net.num_activated_edges
        record = (
            RoundRecord(
                round=round_no,
                activations=frozenset(activations),
                deactivations=frozenset(deactivations),
                active_edges=active_edges,
                activated_edges=activated_edges,
                connected=True,
                barrier_epoch=self.barrier_epoch,
            )
            if any_record
            else None
        )
        raw = (
            RawRound(
                round_no,
                activations,
                deactivations,
                active_edges,
                activated_edges,
                True,
                self.barrier_epoch,
            )
            if any_raw
            else None
        )
        for obs, is_raw in zip(observers, flags):
            obs.on_round(raw if is_raw else record)

    def __new__(cls, *args, backend: str | None = None, **kwargs):
        if cls is SynchronousRunner:
            if resolve_backend(backend) == "bulk":
                from .bulk import BulkRunner

                return object.__new__(BulkRunner)
        return object.__new__(cls)

    def __init__(
        self,
        graph: nx.Graph,
        program_factory: Callable,
        *,
        knows_n: bool = False,
        use_barrier: bool = False,
        check_connectivity: bool = False,
        strict: bool = True,
        collect_trace: bool = False,
        max_rounds: int | None = None,
        adversary=None,
        backend: str | None = None,
        observers=(),
    ) -> None:
        if backend is not None and resolve_backend(backend) != self.backend_name:
            raise ConfigurationError(
                f"backend {backend!r} does not match this runner class "
                f"({self.backend_name!r}); pass backend= to SynchronousRunner"
            )
        self.backend = self.backend_name
        self.knows_n = knows_n
        self.use_barrier = use_barrier
        self.check_connectivity = check_connectivity
        self.strict = strict
        self.collect_trace = collect_trace
        self.observers = tuple(observers)
        self.max_rounds = max_rounds
        self.adversary = adversary
        self.program_factory = program_factory
        self.barrier_epoch = 0
        self._publics: Mapping = {}
        self._contexts: dict = {}
        self._dirty: set = set()
        self._actions = RoundActions()
        # The network and the fleet are built off the collector's books,
        # as the run is: a full collection here would walk the caller's
        # whole heap.
        with frozen_heap():
            self.network = self._make_network(graph)
            self._init_fleet()
        self._conn = self._make_tracker() if check_connectivity else None
        self._n_dynamic = adversary is not None
        # Telemetry probe (repro.telemetry): discovered from the observer
        # pipeline in run().  None keeps every probe site on the hot path
        # at one `is None` test per round, like the adversary hook.
        self._probe = None

    @property
    def program_class(self) -> type | None:
        """The fleet's program class: the factory itself when it is a
        class, else the class of the first program (a mixed population
        is described by its first member)."""
        factory = self.program_factory
        if isinstance(factory, type):
            return factory
        programs = self.programs
        return type(next(iter(programs.values()))) if programs else None

    # -- backend hooks (overridden by the bulk backend) -----------------

    @staticmethod
    def _make_network(graph: nx.Graph) -> Network:
        return Network(graph)

    def _make_tracker(self):
        return ConnectivityTracker(self.network)

    def _init_fleet(self) -> None:
        """Build every node's program and the live set."""
        factory = self.program_factory
        self.programs: Mapping = {uid: factory(uid) for uid in self.network.nodes}
        for uid, prog in self.programs.items():
            if prog.uid != uid:
                raise ConfigurationError(f"program for node {uid} reports uid {prog.uid}")
        # Ordered set of non-halted uids (dict for deterministic iteration).
        self._live: dict = {
            uid: None for uid, prog in self.programs.items() if not prog.halted
        }
        self._live_built = len(self._live)

    def _setup(self, adversary) -> None:
        """Run every program's ``setup()`` before round 1."""
        self._setup_programs(list(self.programs))

    def _setup_programs(self, uids) -> None:
        """Run the ``setup()`` of the programs of ``uids`` (all of them
        before round 1, a strike's joins after it) with read-only
        contexts.

        Stale records are flushed and every record of ``uids`` is
        snapshotted before any ``setup()`` runs, so each reads its
        neighbors' current broadcast state, even a neighbor that joined
        in the same strike.  ``setup()`` may change public-visible state,
        so the next round re-snapshots them.  A program that halted in
        it runs no round; the others join the live set.
        """
        net = self.network
        programs = self.programs
        publics = self._publics
        self._flush_dirty()
        for uid in uids:
            publics[uid] = programs[uid].public()
        setup_actions = RoundActions()
        n = net.n if self.knows_n else None
        for uid in uids:
            ctx = Context(uid, net.round, publics, setup_actions, net, n, self.barrier_epoch)
            programs[uid].setup(ctx)
        if setup_actions:
            raise ProtocolViolation("setup() must not request edge actions")
        self._dirty.update(uids)
        live = self._live
        for uid in uids:
            if programs[uid].halted:
                live.pop(uid, None)
            else:
                live[uid] = None

    def _flush_dirty(self) -> None:
        """Re-snapshot the public records that went stale."""
        programs = self.programs
        publics = self._publics
        for uid in self._dirty:
            prog = programs[uid]
            publics[uid] = prog.public()
            prog.public_dirty = False
        self._dirty.clear()

    # ------------------------------------------------------------------

    def _context(self, uid) -> Context:
        """The node's reusable context, refreshed for the current round."""
        ctx = self._contexts.get(uid)
        if ctx is None:
            ctx = Context(
                uid=uid,
                round_no=self.network.round,
                publics=self._publics,
                actions=self._actions,
                network=self.network,
                n=self.network.n if self.knows_n else None,
                barrier_epoch=self.barrier_epoch,
            )
            self._contexts[uid] = ctx
        else:
            ctx.round = self.network.round
            ctx.barrier_epoch = self.barrier_epoch
            if self._n_dynamic:
                ctx.n = self.network.n if self.knows_n else None
        return ctx

    @frozen_heap()
    def run(self, adversary=None) -> RunResult:
        net = self.network
        limit = self.max_rounds if self.max_rounds is not None else _default_round_limit(net.n)
        # The in-memory trace is just one observer on the record stream.
        pipeline = list(self.observers)
        trace_observer = None
        if self.collect_trace:
            trace_observer = TraceObserver()
            pipeline.append(trace_observer)
        observers = tuple(pipeline) if pipeline else None
        # Telemetry probes (repro.telemetry) are discovered here and then
        # *removed* from the per-round record stream: they receive one
        # probe_round() call per round instead, so a profile-only run
        # skips RoundRecord construction entirely.  Run-level hooks
        # (on_run_start/on_run_end/on_perturbation) still reach them.
        probe = None
        round_observers = observers
        if observers is not None:
            for obs in observers:
                if getattr(obs, "telemetry_probe", False):
                    probe = obs
            if probe is not None:
                round_observers = tuple(
                    o for o in observers if not getattr(o, "telemetry_probe", False)
                ) or None
        self._probe = probe
        adversary = adversary if adversary is not None else self.adversary
        # Joins/crashes change n mid-run; contexts only re-read it then.
        self._n_dynamic = adversary is not None

        # Setup hooks (before round 1).
        self._setup(adversary)

        if probe is not None:
            probe.bind_runner(self, limit=limit)
        try:
            if observers is not None:
                for obs in observers:
                    obs.on_run_start(net)
            recorder = MetricsRecorder(net)
            while self._live:
                if net.round > limit:
                    raise ExecutionError(
                        f"round limit {limit} exceeded; "
                        f"{len(self._live)} nodes still running"
                    )
                self._run_round(recorder, round_observers)
                if adversary is not None and self._live:
                    self._apply_adversary(adversary, recorder, observers)
        finally:
            if probe is not None:
                probe.unbind_runner()

        recorder.metrics.rounds = net.round - 1
        if observers is not None:
            for obs in observers:
                obs.on_run_end(recorder.metrics)
        return RunResult(
            network=net,
            programs=self.programs,
            metrics=recorder.metrics,
            trace=trace_observer.trace if trace_observer is not None else None,
            rounds=net.round - 1,
            barrier_epochs=self.barrier_epoch,
        )

    # ------------------------------------------------------------------

    def _run_round(self, recorder: MetricsRecorder, observers: tuple | None) -> None:
        net = self.network
        programs = self.programs
        live = self._live
        if 2 * len(live) < self._live_built:
            # CPython never shrinks a dict: iterating one scans every slot
            # it ever held, so rebuild it, in order, once half is gone.
            live = self._live = dict.fromkeys(live)
            self._live_built = len(live)
        actions = self._actions
        actions.clear()

        if observers is not None:
            for obs in observers:
                obs.on_round_start(net.round)

        # Re-snapshot the public records that went stale last round; every
        # other node's snapshot (notably every halted node's) is current.
        if self._dirty:
            self._flush_dirty()

        batch = [(uid, programs[uid], self._context(uid)) for uid in live]

        # 1. Send.  Only live programs send; a message to a halted neighbor
        # is legal but can never be read, so it is not enqueued.
        inboxes: dict = {uid: {} for uid in live}
        adj = net._adj
        for uid, prog, ctx in batch:
            out = prog.compose(ctx)
            if not out:
                continue
            sendable = adj[uid]
            for dst, payload in out.items():
                if dst not in sendable:
                    raise ProtocolViolation(f"{uid} sent a message to non-neighbor {dst}")
                box = inboxes.get(dst)
                if box is not None:
                    box[uid] = payload

        # 2. Receive + 3./4. activate/deactivate + 5. update state.
        for uid, prog, ctx in batch:
            prog.transition(ctx, inboxes[uid])
            if not prog.manages_public_dirty:
                prog.public_dirty = True

        round_no = net.round
        activations, deactivations = self._commit_round(recorder, observers)

        # Mark stale publics (including a halting program's final state,
        # which neighbors may still read in later rounds) and retire the
        # newly halted from the live set.
        for uid, prog, _ in batch:
            if prog.public_dirty:
                self._dirty.add(uid)
            if prog.halted:
                del live[uid]

        # Global segment barrier (DESIGN.md note 2).  ``live`` is already
        # post-transition, so the barrier cannot fire after a global halt.
        if self.use_barrier and live and all(
            programs[uid].barrier_ready for uid in live
        ):
            self.barrier_epoch += 1
            for uid in live:
                prog = programs[uid]
                prog.on_barrier(self.barrier_epoch)
                if not prog.manages_public_dirty:
                    prog.public_dirty = True
                if prog.public_dirty:
                    self._dirty.add(uid)
            # on_barrier() may halt; those programs must not run next round.
            for uid in list(live):
                if programs[uid].halted:
                    del live[uid]

        if self._probe is not None:
            self._probe.probe_round(
                round_no, live=len(batch), dispatch="pernode",
                acts=len(activations), deacts=len(deactivations),
            )

    def _commit_round(self, recorder: MetricsRecorder, observers: tuple | None):
        """Commit the round's requested actions and return the effective
        ``(activations, deactivations)``.

        The one commit of every per-edge round — the reference round,
        bulk's sparse and per-node rounds, the wreath rebuild assist and
        the centralized executor: apply under the legality rules, record
        the metrics, then :meth:`_guard_and_emit`.
        """
        actions = self._actions
        round_no = self.network.round
        per_node = actions.activation_count_by_actor() if actions.activations else None
        activations, deactivations = self.network.apply(actions, strict=self.strict)
        recorder.record_round(activations, deactivations, per_node)
        connected = self._conn is None or self._conn.update(activations, deactivations)
        self._guard_and_emit(observers, round_no, activations, deactivations, connected)
        return activations, deactivations

    def _guard_and_emit(
        self, observers, round_no, activations, deactivations, connected
    ) -> None:
        """The tail of every committed round, bulk's array kernel rounds
        included: fail a round that disconnected the network, then
        deliver it to the observers."""
        if not connected:
            raise ProtocolViolation(f"round {round_no} broke connectivity")
        if observers is not None:
            self._emit_round(observers, round_no, activations, deactivations)

    # ------------------------------------------------------------------
    # external dynamics (see repro.dynamics and DESIGN.md note 8)
    # ------------------------------------------------------------------

    def _apply_adversary(self, adversary, recorder: MetricsRecorder, observers: tuple | None) -> None:
        """Apply one adversary strike at the current round boundary.

        The perturbation becomes visible at the beginning of the next
        round: crashed nodes' programs are retired immediately (their
        neighbors simply see the edges gone), joined nodes' programs are
        spawned via the program factory, set up together
        (:meth:`_setup_programs`) and run from the next round on.
        """
        net = self.network
        pert = adversary.perturb(net, net.round)
        if not pert:
            return
        programs = self.programs
        live = self._live

        # A join whose uid ever had a program (alive or crashed), or that
        # repeats a uid within this batch, is skipped entirely — uids are
        # never reused, and the network must not gain a node the program
        # layer refuses to animate.
        joins = []
        join_uids = []
        for uid, att in pert.joins:
            if uid in programs or uid in net.nodes or uid in join_uids:
                continue
            joins.append((uid, att))
            join_uids.append(uid)

        dropped, added = net.apply_external(
            drops=pert.drops, adds=pert.adds, crashes=pert.crashes, joins=joins
        )
        crashed = [
            u for u in pert.crashes
            if u in programs and u not in net.nodes and not programs[u].crashed
        ]
        recorder.record_external(dropped, added, crashed, [(u, ()) for u in join_uids])

        for uid in crashed:
            prog = programs[uid]
            prog.crashed = True
            prog.halted = True
            live.pop(uid, None)
            self._contexts.pop(uid, None)
            self._dirty.discard(uid)

        for uid in join_uids:
            prog = self.program_factory(uid)
            if prog.uid != uid:
                raise ConfigurationError(f"program for joined node {uid} reports uid {prog.uid}")
            programs[uid] = prog
        if join_uids:
            self._setup_programs(join_uids)

        if self._conn is not None and not self._conn.rebuild():
            raise ExecutionError(
                f"adversary disconnected the network at the round-{net.round} boundary"
            )

        if observers is not None:
            record = PerturbationRecord(
                round=net.round,
                drops=frozenset(dropped),
                adds=frozenset(added),
                crashes=tuple(crashed),
                joins=tuple(joins),
            )
            for obs in observers:
                obs.on_perturbation(record)


def _default_round_limit(n: int) -> int:
    """A generous default: far above any of our algorithms' bounds."""
    import math

    logn = max(1, math.ceil(math.log2(max(2, n))))
    return 200 * logn * logn + 500


def run_program(graph: nx.Graph, program_factory: Callable, **kwargs) -> RunResult:
    """One-shot convenience wrapper around :class:`SynchronousRunner`.

    Accepts every runner keyword, including ``backend="bulk"`` to run
    on the index-interned, array-native backend (same traces, same
    metrics, faster).
    """
    return SynchronousRunner(graph, program_factory, **kwargs).run()
