"""The bulk engine backend: index-interned state, array-native rounds.

Selected with ``SynchronousRunner(..., backend="bulk")`` or
``REPRO_BACKEND=bulk``.  The contract is strict: for every program,
every scenario and every adversary schedule it produces a
**byte-identical JSONL trace** and **equal Metrics** to the reference
backend (``tests/test_backend_differential`` is the oracle).  The model
is stated once, in the reference engine, and inherited here:

* network state is :class:`~repro.engine.dense.DenseNetwork`, the
  reference network plus sorted key arrays: kernel rounds commit
  through its array apply, every other round through the inherited
  :meth:`~repro.engine.network.Network.apply`, and strikes through the
  inherited :meth:`~repro.engine.network.Network.apply_external`;
* programs see the network through the reference
  :class:`~repro.engine.program.Context`;
* setup and strikes run the reference runner's handlers, after which
  the runner only rebuilds its slot arrays;
* the connectivity guard is the reference union-find over interned
  indices (:class:`~repro.engine.dense.DenseConnectivityTracker`).

What the runner adds is that the per-round cost follows the *activity*
of the round, not ``n``.  Each round takes one of four paths, reported
as the telemetry ``dispatch`` label:

* **kernel** — when the program factory is a
  :class:`~repro.engine.program.NodeProgram` subclass with the base
  no-op ``setup()`` whose
  :attr:`~repro.engine.program.NodeProgram.phase_kernel` accepts the
  run (no adversary, no barrier), rounds execute as single array
  dispatches over struct-of-arrays state and the fleet *is* that
  state: no program, context or public record is built unless a
  caller reads one (:class:`KernelFleet`).  The flooding kernel in
  :mod:`repro.problems.token_dissemination` is the reference
  implementation.
* **sparse** — programs whose class declares
  :attr:`~repro.engine.program.NodeProgram.bulk_sparse` promise that a
  round in which no wake condition holds is a no-op for them (no
  messages, no actions, no state or public-record change).  The runner
  keeps the fleet's wake state as numpy arrays — one vectorized
  due-filter per round — and runs only due nodes.  Wake conditions are
  tracked exactly: a received message, a neighbor re-binding its public
  record (rebind-on-change records make ``is`` the change test), a
  change to the node's own adjacency, a barrier, or a perturbation; in
  addition each program schedules its own unconditional wakes through
  :meth:`~repro.engine.program.NodeProgram.bulk_next_wake`.
* **assist** — a barrier family's kernel may volunteer to simulate
  individual sparse rounds as arrays (the wreath rebuild assist,
  :mod:`repro.core.rebuild_arrays`).
* **pernode** — any population that is not uniformly ``bulk_sparse``
  (custom programs, mixed classes, manual dirty tracking) runs every
  live program every round over persistent slot arrays.  The backend
  is *correct* for every program and merely *fast* for the declared
  ones.

The observer stream (JSONL sinks, online conformance, traces) is emitted
exactly as on the reference backend.  DESIGN.md, "Phase kernels & bulk
backend" spells out the skip-soundness argument.
"""

from __future__ import annotations

import types
from collections.abc import Mapping
from itertools import compress
from operator import attrgetter, not_

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - numpy is a core dependency
    raise ImportError(
        "the 'bulk' engine backend requires numpy (a core dependency of this "
        "package); install it with `pip install numpy` or select "
        "backend='reference' instead"
    ) from exc

import networkx as nx

from ..errors import ConfigurationError, ProtocolViolation
from .actions import RequestArrays
from .dense import DenseConnectivityTracker, DenseNetwork
from .edge_keys import EMPTY, request_max
from .observers import _PairsView
from .program import NodeProgram
from .runner import SynchronousRunner

#: Sentinel wake round for "parked until an external wake condition".
_NEVER = np.iinfo(np.int64).max // 2

#: A quiescent kernel round's requests: none.
_NO_REQUESTS = RequestArrays(EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY)

#: The inbox of every program that received no message: one immutable
#: empty mapping instead of a fresh dict per program.  Inboxes are
#: read-only by contract; a program that tried to mutate one fails
#: loudly here rather than silently diverging.
_EMPTY_INBOX: types.MappingProxyType = types.MappingProxyType({})

_HALTED = attrgetter("halted")
_BARRIER_READY = attrgetter("barrier_ready")


class KernelFleet(Mapping):
    """The programs of a whole-run kernel run, built on first read.

    A read-only mapping over the run's uids, iterating in the order the
    reference backend's program dict has (``network.nodes`` at
    construction).  Reading a node builds ``factory(uid)``, has the
    kernel materialize it from the node's state row once the run has
    state (:meth:`~repro.engine.program.PhaseKernel.materialize`), and
    caches it; ``len``, iteration and membership build nothing.
    """

    __slots__ = ("_order", "_factory", "_kernel", "_state", "_built")

    def __init__(self, order, factory, kernel) -> None:
        self._order = order
        self._factory = factory
        self._kernel = kernel
        self._state = None
        self._built: dict = {}

    def __getitem__(self, uid):
        prog = self._built.get(uid)
        if prog is None:
            if uid not in self._order:
                raise KeyError(uid)
            prog = self._factory(uid)
            if prog.uid != uid:
                raise ConfigurationError(f"program for node {uid} reports uid {prog.uid}")
            if self._state is not None:
                self._kernel.materialize(self._state, uid, prog)
            self._built[uid] = prog
        return prog

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, uid) -> bool:
        return uid in self._order

    def bind(self, state) -> None:
        """Materialize from ``state`` from now on, and bring every
        program already built up to it (the runner calls this when the
        run starts and again when it ends)."""
        self._state = state
        for uid, prog in self._built.items():
            self._kernel.materialize(state, uid, prog)


class _FleetPublics(Mapping):
    """The public records of a :class:`KernelFleet`, read through it."""

    __slots__ = ("_fleet",)

    def __init__(self, fleet: KernelFleet) -> None:
        self._fleet = fleet

    def __getitem__(self, uid):
        return self._fleet[uid].public()

    def __iter__(self):
        return iter(self._fleet)

    def __len__(self) -> int:
        return len(self._fleet)


class BulkRunner(SynchronousRunner):
    """The bulk backend's round executor.

    Inherits construction, setup, strikes and the outer run loop from
    :class:`SynchronousRunner`; replaces the per-round machinery with
    persistent parallel slot arrays — uids, programs, pre-bound
    ``compose`` / ``transition`` / ``public`` / ``bulk_next_wake``
    methods, contexts — rebuilt only when the live set changes.  The
    wake state lives in flat numpy arrays parallel to the slot arrays:

    * ``_wake[i]`` — the earliest round slot ``i`` must run again;
    * ``_stale[i]`` — an external wake condition fired since the
      program's last ``bulk_next_wake`` acknowledgement.

    Halt batches compact the arrays by a keep mask, so the survivors
    keep their wake state; a rebuild (setup, strikes, the per-node path)
    starts everyone due — a strike wakes the whole fleet anyway.
    """

    backend_name = "bulk"
    #: The whole-run array kernel and its state (None: per-node rounds).
    _kernel = None
    _kstate = None

    @staticmethod
    def _make_network(graph: nx.Graph) -> DenseNetwork:
        return DenseNetwork(graph)

    def _make_tracker(self) -> DenseConnectivityTracker:
        return DenseConnectivityTracker(self.network)

    # ------------------------------------------------------------------
    # the fleet: kernel state columns, or programs over slot arrays
    # ------------------------------------------------------------------

    def _init_fleet(self) -> None:
        """Decide the whole-run array path before any program exists.

        It needs a :class:`NodeProgram` subclass as the factory (so the
        population is uniform), the base no-op ``setup()`` (so the
        kernel's initial state is the constructed one), no adversary,
        no barrier, and a ``phase_kernel`` whose ``accepts`` holds.
        Then the kernel's state columns are the fleet; otherwise every
        program is built as on the reference backend."""
        factory = self.program_factory
        kernel = (
            factory.phase_kernel
            if isinstance(factory, type) and issubclass(factory, NodeProgram)
            else None
        )
        if (
            kernel is None
            or self.adversary is not None
            or self.use_barrier
            or factory.setup is not NodeProgram.setup
            or not kernel.accepts(self)
        ):
            super()._init_fleet()
            return
        self._kernel = kernel
        self.programs = KernelFleet(self.network.nodes, factory, kernel)
        self._publics = _FleetPublics(self.programs)
        self._live = dict.fromkeys(self.network._uid_of)

    def _setup(self, adversary) -> None:
        """Start the kernel, or run ``setup()`` and build the per-node
        machinery: snapshot every post-setup public, build the slot
        arrays, and arm the rebuild assist if a kernel offers one."""
        if self._kernel is not None:
            if adversary is None:
                self._kstate = self._kernel.init_state(self)
                self.programs.bind(self._kstate)
                return
            # An adversary handed to run() rules the array path out
            # after construction: build the fleet per node after all.
            fleet = self.programs
            self.programs = {uid: fleet[uid] for uid in fleet}
            self._live = {
                uid: None for uid, prog in self.programs.items() if not prog.halted
            }
            self._publics = {}
            self._kernel = None
        # The per-node paths read the network's uid-keyed state directly.
        self.network.views()
        super()._setup(adversary)
        self._rebuild_slots()
        self._assist = None
        progs = self._progs
        if progs and adversary is None and self.use_barrier:
            # Barrier families can't take the whole-run array path, but a
            # kernel may still volunteer to simulate individual rounds
            # (the wreath splice kernel's rebuild assist).
            cls = type(progs[0])
            kernel = cls.phase_kernel
            if (
                kernel is not None
                and kernel.assist_rounds
                and all(type(p) is cls for p in progs)
            ):
                self._assist = kernel

    # ------------------------------------------------------------------
    # slot arrays and wake-state bookkeeping
    # ------------------------------------------------------------------

    def _rebuild_slots(self) -> None:
        """Snapshot every stale record at once (the per-node paths keep
        records eager, never dirty) and rebuild the slot arrays from the
        live set, everyone due."""
        self._flush_dirty()
        programs = self.programs
        self._slots = [(uid, programs[uid], self._context(uid)) for uid in self._live]
        self._refresh_slot_arrays()

    def _refresh_slot_arrays(self) -> None:
        slots = self._slots
        self._uids = [s[0] for s in slots]
        self._progs = progs = [s[1] for s in slots]
        self._composes = [s[1].compose for s in slots]
        self._transitions = [s[1].transition for s in slots]
        self._publicfns = [s[1].public for s in slots]
        self._next_wakes = [s[1].bulk_next_wake for s in slots]
        self._ctxs = [s[2] for s in slots]
        self._all_plain = not any(p.manages_public_dirty for p in progs)

        sparse = bool(progs) and all(
            type(p).bulk_sparse and not type(p).manages_public_dirty for p in progs
        )
        size = len(progs)
        net = self.network
        self._sparse = sparse
        self._wake = np.full(size, net.round, dtype=np.int64)
        self._stale = np.ones(size, dtype=bool)
        self._ready = [p.barrier_ready for p in progs]
        self._ready_count = sum(self._ready)
        # Current public-record object per slot (identity = change test).
        publics = self._publics
        self._pub_objs = [publics.get(uid) for uid in self._uids]
        idx_of = net._idx_of
        self._net_idx = [idx_of[uid] for uid in self._uids]
        self._index_slots()

    def _index_slots(self) -> None:
        """Derive the live set and the two slot-position maps: uid ->
        position, and network index -> position for trigger propagation
        along interned adjacency (-1: halted or crashed, nothing to wake)."""
        uids = self._uids
        self._live = dict.fromkeys(uids)
        self._pos_of_uid = {u: i for i, u in enumerate(uids)}
        spos = np.full(len(self.network._uid_of), -1, dtype=np.int64)
        spos[self._net_idx] = np.arange(len(uids))
        self._slot_of_idx = spos

    def _rebuild_batch(self) -> None:
        """Drop the halted slots.

        On the sparse path every slot array is compacted by one keep
        mask: survivors keep their order, wake state, ready flags and
        record identities, so nothing is re-derived from the programs
        (a halting wave comes in many small batches).  Callers that
        changed ready flags behind the arrays (``on_barrier``) re-read
        ``_ready`` themselves.  The per-node path keeps no wake state
        and rebuilds from ``_slots``.
        """
        if not self._sparse:
            self._slots = [s for s in self._slots if not s[1].halted]
            self._refresh_slot_arrays()
            return
        keep = list(map(not_, map(_HALTED, self._progs)))
        self._slots = list(compress(self._slots, keep))
        self._uids = list(compress(self._uids, keep))
        self._progs = list(compress(self._progs, keep))
        self._composes = list(compress(self._composes, keep))
        self._transitions = list(compress(self._transitions, keep))
        self._publicfns = list(compress(self._publicfns, keep))
        self._next_wakes = list(compress(self._next_wakes, keep))
        self._ctxs = list(compress(self._ctxs, keep))
        self._ready = list(compress(self._ready, keep))
        self._ready_count = sum(self._ready)
        self._pub_objs = list(compress(self._pub_objs, keep))
        self._net_idx = list(compress(self._net_idx, keep))
        mask = np.array(keep, dtype=bool)
        self._wake = self._wake[mask]
        self._stale = self._stale[mask]
        self._sparse = bool(self._progs)
        self._index_slots()

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------

    def _run_round(self, recorder, observers) -> None:
        if self._kernel is not None:
            self._kernel_round(recorder, observers)
            return
        if not self._sparse:
            self._pernode_round(recorder, observers)
            return
        assist = self._assist
        if assist is not None and assist.assist_round(self, recorder, observers):
            return

        net = self.network
        publics = self._publics
        actions = self._actions
        actions.clear()
        live = self._live
        ctxs = self._ctxs
        progs = self._progs
        wake = self._wake
        stale = self._stale
        round_no = net.round
        next_round = round_no + 1

        if observers is not None:
            for obs in observers:
                obs.on_round_start(round_no)

        due = wake <= round_no
        due_list = np.nonzero(due)[0].tolist()
        # Telemetry occupancy/wake accounting (repro.telemetry): the
        # unprofiled hot path pays these integer initializations and the
        # per-endpoint adjacency increment; everything else is guarded.
        nlive = len(progs)
        msg_wakes = rebind_wakes = adj_wakes = barrier_wakes = 0

        # 1. Send.  Only due programs run compose(); a parked program's
        # compose() would return a falsy value (the sparse contract).
        inboxes: dict | None = None
        composes = self._composes
        for i in due_list:
            ctx = ctxs[i]
            ctx.round = round_no
            out = composes[i](ctx)
            if not out:
                continue
            uid = ctx.uid
            sendable = ctx.neighbors
            for dst, payload in out.items():
                if dst not in sendable:
                    raise ProtocolViolation(f"{uid} sent a message to non-neighbor {dst}")
                if dst in live:
                    if inboxes is None:
                        inboxes = {}
                    box = inboxes.get(dst)
                    if box is None:
                        box = inboxes[dst] = {}
                    box[uid] = payload

        # 2. Receive + act + update, for due programs plus this round's
        # message recipients (a message is itself a wake condition).
        if inboxes is not None:
            pos_of_uid = self._pos_of_uid
            extra = [
                pos
                for pos in (pos_of_uid[dst] for dst in inboxes)
                if not due[pos]
            ]
            if extra:
                stale[extra] = True
                due[extra] = True
                due_list = np.nonzero(due)[0].tolist()
            if self._probe is not None:
                msg_wakes = len(extra)
        get_box = inboxes.get if inboxes is not None else None
        ndue = len(due_list)

        transitions = self._transitions
        publicfns = self._publicfns
        next_wakes = self._next_wakes
        ready = self._ready
        ready_count = self._ready_count
        pub_objs = self._pub_objs
        stale_list = stale[due_list].tolist()
        new_wakes: list = []
        staged: list = []
        halted_any = False
        for k, i in enumerate(due_list):
            ctx = ctxs[i]
            ctx.round = round_no
            transitions[i](ctx, get_box(ctx.uid) or _EMPTY_INBOX if get_box else _EMPTY_INBOX)
            prog = progs[i]
            new_pub = publicfns[i]()
            if new_pub is not pub_objs[i]:
                staged.append((i, new_pub))
            if prog.halted:
                halted_any = True
                new_wakes.append(_NEVER)
                continue
            b = prog.barrier_ready
            if b != ready[i]:
                ready[i] = b
                ready_count += 1 if b else -1
            nw = next_wakes[i](next_round, stale_list[k])
            if nw is None:
                new_wakes.append(_NEVER)
            else:
                new_wakes.append(nw if nw > next_round else next_round)
        self._ready_count = ready_count
        if due_list:
            wake[due_list] = new_wakes
            stale[due_list] = False

        activations, deactivations = self._commit_round(recorder, observers)

        # Commit re-bound public records (visible from next round) and
        # propagate the wake condition to the broadcasting node's
        # neighborhood — a record that is the same object carries the
        # same contents, so its readers' decisions cannot change.
        uids = self._uids
        if staged:
            adj = net._adj
            touched: list = []
            for i, pub in staged:
                uid = uids[i]
                pub_objs[i] = pub
                publics[uid] = pub
                touched.extend(adj[uid])
            if not net._identity:  # identity interning: uids are indices
                touched = list(map(net._idx_of.__getitem__, touched))
            pos = self._slot_of_idx[touched]
            pos = pos[pos >= 0]
            if len(pos):
                wake[pos] = np.minimum(wake[pos], next_round)
                stale[pos] = True
                if self._probe is not None:
                    rebind_wakes = len(pos)

        # An adjacency change is a wake condition for both endpoints.
        if activations or deactivations:
            pos_of_uid = self._pos_of_uid
            for edge_set in (activations, deactivations):
                for u, v in edge_set:
                    for uid in (u, v):
                        pos = pos_of_uid.get(uid)
                        if pos is not None:
                            if wake[pos] > next_round:
                                wake[pos] = next_round
                            stale[pos] = True
                            adj_wakes += 1

        if halted_any:
            self._rebuild_batch()
            progs = self._progs

        # Global segment barrier: all-ready is tracked as a counter.
        if self.use_barrier and progs and self._ready_count == len(progs):
            barrier_wakes = self._barrier_block(next_round)

        if self._probe is not None:
            self._probe.probe_round(
                round_no, live=nlive, due=ndue, dispatch="sparse",
                acts=len(activations), deacts=len(deactivations),
                msg_wakes=msg_wakes, rebind_wakes=rebind_wakes,
                adj_wakes=adj_wakes, barrier_wakes=barrier_wakes,
            )

    def _pernode_round(self, recorder, observers) -> None:
        """Run every live program this round (the ``pernode`` dispatch).

        Two C-driven ``zip`` passes (send, then transition) stage the
        fresh public records in transition order and commit them with a
        single bulk ``dict.update`` once every program has transitioned —
        the staging is what preserves the lockstep rule that a program
        never sees a same-round neighbor update.  Calling ``public()``
        right after the program's own ``transition`` is legal because
        ``public()`` is a pure getter of post-transition state; programs
        that opt into manual dirty tracking (``manages_public_dirty``)
        drop the whole batch onto a per-entry pass that honors their
        contract.
        """
        net = self.network
        publics = self._publics
        actions = self._actions
        actions.clear()
        live = self._live
        ctxs = self._ctxs
        progs = self._progs

        if observers is not None:
            for obs in observers:
                obs.on_round_start(net.round)

        # 1. Send.  Only live programs send; a message to a halted
        # neighbor is legal but can never be read, so it is not enqueued.
        # Inboxes materialize lazily — most rounds carry no messages.
        inboxes: dict | None = None
        for compose, ctx in zip(self._composes, ctxs):
            out = compose(ctx)
            if not out:
                continue
            uid = ctx.uid
            sendable = ctx.neighbors
            for dst, payload in out.items():
                if dst not in sendable:
                    raise ProtocolViolation(f"{uid} sent a message to non-neighbor {dst}")
                if dst in live:
                    if inboxes is None:
                        inboxes = {}
                    box = inboxes.get(dst)
                    if box is None:
                        box = inboxes[dst] = {}
                    box[uid] = payload

        # 2. Receive + 3./4. activate/deactivate + 5. update state.  The
        # fresh public records are staged afterwards in one C-driven pass
        # (legal: nothing reads a node's context or record between its
        # transition and the bulk commit below).
        if inboxes is None:
            for transition, ctx in zip(self._transitions, ctxs):
                transition(ctx, _EMPTY_INBOX)
        else:
            get_box = inboxes.get
            for transition, ctx in zip(self._transitions, ctxs):
                transition(ctx, get_box(ctx.uid) or _EMPTY_INBOX)
        staged = [public() for public in self._publicfns] if self._all_plain else None
        next_round = net.round + 1
        for ctx in ctxs:
            ctx.round = next_round

        round_no = net.round
        activations, deactivations = self._commit_round(recorder, observers)

        # Commit the pooled snapshots in one bulk pass (including a
        # halting program's final state, which neighbors may still read).
        if self._all_plain:
            publics.update(zip(self._uids, staged))
        else:
            for uid, prog, public in zip(self._uids, progs, self._publicfns):
                if prog.manages_public_dirty:
                    if prog.public_dirty:
                        publics[uid] = public()
                        prog.public_dirty = False
                else:
                    publics[uid] = public()

        if True in map(_HALTED, progs):
            self._rebuild_batch()
            progs = self._progs

        # Global segment barrier (DESIGN.md note 2).  The batch is already
        # post-transition, so the barrier cannot fire after a global halt.
        if self.use_barrier and progs and False not in map(_BARRIER_READY, progs):
            self._barrier_block(next_round)

        if self._probe is not None:
            self._probe.probe_round(
                round_no, live=len(ctxs), dispatch="pernode",
                acts=len(activations), deacts=len(deactivations),
            )

    def _barrier_block(self, next_round: int) -> int:
        """Fire the global segment barrier: bump the epoch, run every
        program's ``on_barrier``, re-snapshot publics (honoring manual
        dirty tracking), and wake the whole fleet for the next round.
        Returns the barrier wake count.  Callers have already verified
        the all-ready condition."""
        publics = self._publics
        progs = self._progs
        self.barrier_epoch += 1
        epoch = self.barrier_epoch
        for uid, prog, public, ctx in zip(
            self._uids, progs, self._publicfns, self._ctxs
        ):
            prog.on_barrier(epoch)
            if prog.manages_public_dirty:
                if prog.public_dirty:
                    publics[uid] = public()
                    prog.public_dirty = False
            else:
                publics[uid] = public()
            ctx.barrier_epoch = epoch
        # Every program runs again after a barrier (wake condition),
        # and on_barrier() may halt — those must not run again.
        self._wake[:] = next_round
        self._stale[:] = True
        barrier_wakes = len(self._wake)
        self._pub_objs = [publics[uid] for uid in self._uids]
        if True in map(_HALTED, progs):
            self._rebuild_batch()
        # on_barrier() moved the ready flags behind the arrays' back.
        self._ready = [p.barrier_ready for p in self._progs]
        self._ready_count = sum(self._ready)
        return barrier_wakes

    # ------------------------------------------------------------------
    # array-kernel path (uniform populations, no barrier, no adversary)
    # ------------------------------------------------------------------

    def _kernel_round(self, recorder, observers) -> None:
        net = self.network
        kernel = self._kernel
        round_no = net.round
        nlive = len(self._live)
        if observers is not None:
            for obs in observers:
                obs.on_round_start(round_no)

        # Dense-activity kernels return the round's raw requests as int64
        # arrays alongside the halting wave, and the round stays in array
        # form from there on: the network's array legality pipeline
        # commits sorted packed keys, which the recorder, the
        # connectivity guard and (as pair views) the observers read
        # directly.  Quiescent-phase kernels touch no edges and return
        # only the halting wave: they commit no requests the same way.
        if kernel.produces_actions:
            newly_halted, requests = kernel.step_round(self._kstate, round_no)
        else:
            newly_halted = kernel.step_round(self._kstate, round_no)
            requests = _NO_REQUESTS
        akeys, dkeys = net.apply_arrays(requests, strict=self.strict)
        recorder.record_keys(akeys, dkeys, request_max(requests.act_actor))
        connected = self._conn is None or self._conn.update_keys(akeys, dkeys)
        activations = _PairsView.of_keys(akeys)
        deactivations = _PairsView.of_keys(dkeys)
        self._guard_and_emit(observers, round_no, activations, deactivations, connected)

        live = self._live
        for uid in newly_halted:
            del live[uid]
        if not live:
            self.programs.bind(self._kstate)

        if self._probe is not None:
            self._probe.probe_round(
                round_no, live=nlive, dispatch="kernel",
                acts=len(activations), deacts=len(deactivations),
            )

    # ------------------------------------------------------------------
    # external dynamics (see repro.dynamics and DESIGN.md note 8)
    # ------------------------------------------------------------------

    def _apply_adversary(self, adversary, recorder, observers) -> None:
        """Apply one adversary strike through the reference handler, then
        catch the slot arrays up: a strike is a wake condition for
        everyone (adjacency, membership and n may all have changed), so
        they are rebuilt from the live set with every slot due."""
        before = recorder.metrics.adversary_events
        super()._apply_adversary(adversary, recorder, observers)
        if recorder.metrics.adversary_events == before:
            return
        self._rebuild_slots()
        if self._probe is not None and self._sparse:
            self._probe.probe_wake("perturbation", len(self._wake))
