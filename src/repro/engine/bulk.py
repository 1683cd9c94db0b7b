"""The bulk engine backend: array-native execution for n >= 1e5.

Third engine backend, selected with ``SynchronousRunner(..., backend="bulk")``
or ``REPRO_BACKEND=bulk``.  Same strict contract as the dense backend —
byte-identical JSONL traces and equal Metrics for every program on every
scenario (``tests/test_backend_differential`` is the oracle) — with the
per-round cost proportional to the *activity* of the round, not to ``n``:

* **Sparse wake scheduling.**  Programs whose class declares
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
* **Array kernels.**  When the whole population shares one program class
  whose :attr:`~repro.engine.program.NodeProgram.phase_kernel` accepts
  the run, rounds execute as single array dispatches over
  struct-of-arrays state (numpy bitsets; no per-node Python at all).
  The flooding kernel in :mod:`repro.problems.token_dissemination` is
  the reference implementation.
* **Generic fallback.**  Any population that is not uniformly
  ``bulk_sparse`` (custom programs, mixed classes) runs on the inherited
  dense round loop unchanged — the bulk backend is *correct* for every
  program and merely *fast* for the declared ones.

The observer stream (JSONL sinks, online conformance, traces) is emitted
exactly as on the other backends.  DESIGN.md, "Phase kernels & bulk
backend" spells out the skip-soundness argument.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - numpy is a core dependency
    raise ImportError(
        "the 'bulk' engine backend requires numpy (a core dependency of this "
        "package since PR 6); install it with `pip install numpy` or select "
        "backend='reference'/'dense' instead"
    ) from exc

from ..errors import ProtocolViolation
from .dense import _EMPTY_INBOX, DenseRunner
from .edge_keys import request_max
from .observers import _PairsView

#: Sentinel wake round for "parked until an external wake condition".
_NEVER = np.iinfo(np.int64).max // 2


class BulkRunner(DenseRunner):
    """The bulk backend's round executor.

    Subclasses :class:`DenseRunner`: network state, connectivity
    tracking, contexts, the adversary path, and the slot-array machinery
    are inherited; what changes is *which* nodes run each round.  The
    wake state lives in flat numpy arrays parallel to the slot arrays:

    * ``_wake[i]`` — the earliest round slot ``i`` must run again;
    * ``_stale[i]`` — an external wake condition fired since the
      program's last ``bulk_next_wake`` acknowledgement.

    Rebuilds (halt waves, joins, crashes) carry wake state over by uid.
    """

    backend_name = "bulk"

    # ------------------------------------------------------------------
    # wake-state bookkeeping
    # ------------------------------------------------------------------

    def _refresh_slot_arrays(self) -> None:
        super()._refresh_slot_arrays()
        self._bulk_refresh()

    def _bulk_refresh(self) -> None:
        progs = self._progs
        sparse = bool(progs) and all(
            type(p).bulk_sparse and not type(p).manages_public_dirty for p in progs
        )
        carry = sparse and getattr(self, "_sparse", False)
        prev = getattr(self, "_bulk_state", None)
        self._sparse = sparse
        size = len(progs)
        net = self.network
        wake = np.full(size, net.round, dtype=np.int64)
        stale = np.ones(size, dtype=bool)
        if carry and prev is not None:
            prev_pos, prev_wake, prev_stale = prev
            for pos, uid in enumerate(self._uids):
                j = prev_pos.get(uid)
                if j is not None:
                    wake[pos] = prev_wake[j]
                    stale[pos] = prev_stale[j]
        self._wake = wake
        self._stale = stale
        self._pos_of_uid = {u: i for i, u in enumerate(self._uids)}
        self._bulk_state = (self._pos_of_uid, wake, stale)
        self._ready = [p.barrier_ready for p in progs]
        self._ready_count = sum(self._ready)
        # Current public-record object per slot (identity = change test).
        publics = self._publics
        self._pub_objs = [publics.get(uid) for uid in self._uids]
        # Network index -> slot position, for trigger propagation along
        # interned adjacency (-1: halted or crashed, nothing to wake).
        idx_of = net._idx_of
        spos = np.full(len(net._uid_of), -1, dtype=np.int64)
        for pos, uid in enumerate(self._uids):
            spos[idx_of[uid]] = pos
        self._slot_of_idx = spos
        self._net_idx = [idx_of[uid] for uid in self._uids]

    def _post_setup(self) -> None:
        super()._post_setup()
        # Publics were snapshotted after the slot arrays were built.
        publics = self._publics
        self._pub_objs = [publics[uid] for uid in self._uids]
        self._kernel = None
        self._kstate = None
        self._assist = None
        progs = self._progs
        if progs and self.adversary is None and not self.use_barrier:
            cls = type(progs[0])
            kernel = cls.phase_kernel
            if (
                kernel is not None
                and all(type(p) is cls for p in progs)
                and kernel.accepts(self)
            ):
                self._kernel = kernel
                self._kstate = kernel.init_state(self)
        elif progs and self.adversary is None and self.use_barrier:
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
    # round execution
    # ------------------------------------------------------------------

    def _run_round(self, recorder, observers) -> None:
        if self._kernel is not None:
            self._kernel_round(recorder, observers)
            return
        if not self._sparse:
            super()._run_round(recorder, observers)
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

        per_node = actions.activation_count_by_actor() if actions.activations else None
        activations, deactivations = net.apply(actions, strict=self.strict)
        recorder.record_round(activations, deactivations, per_node)

        if self._conn is not None:
            connected = self._conn.update(activations, deactivations)
            if not connected:
                raise ProtocolViolation(f"round {round_no} broke connectivity")
        else:
            connected = True

        if observers is not None:
            self._emit_round(
                observers, net, round_no, activations, deactivations, connected
            )

        # Commit re-bound public records (visible from next round) and
        # propagate the wake condition to the broadcasting node's
        # neighborhood — a record that is the same object carries the
        # same contents, so its readers' decisions cannot change.
        uids = self._uids
        if staged:
            net_idx = self._net_idx
            iadj = net._iadj
            touched: list = []
            for i, pub in staged:
                pub_objs[i] = pub
                publics[uids[i]] = pub
                touched.extend(iadj[net_idx[i]])
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

    def _barrier_block(self, next_round: int) -> int:
        """Fire the global segment barrier: bump the epoch, run every
        program's ``on_barrier``, re-snapshot publics, and wake the whole
        fleet for the next round.  Returns the barrier wake count.
        Callers have already verified the all-ready condition."""
        publics = self._publics
        progs = self._progs
        self.barrier_epoch += 1
        epoch = self.barrier_epoch
        for uid, prog, public, ctx in zip(
            self._uids, progs, self._publicfns, self._ctxs
        ):
            prog.on_barrier(epoch)
            publics[uid] = public()
            ctx.barrier_epoch = epoch
        # Every program runs again after a barrier (wake condition),
        # and on_barrier() may halt — those must not run again.
        self._wake[:] = next_round
        self._stale[:] = True
        barrier_wakes = len(self._wake)
        self._pub_objs = [publics[uid] for uid in self._uids]
        if True in map(_halted, progs):
            self._rebuild_batch()
        else:
            self._ready = [p.barrier_ready for p in progs]
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
        # only the halting wave.
        if kernel.produces_actions:
            newly_halted, requests = kernel.step_round(self._kstate, round_no)
            akeys, dkeys = net.apply_arrays(requests, strict=self.strict)
            recorder.record_keys(akeys, dkeys, request_max(requests.act_actor))
            connected = self._conn is None or self._conn.update_keys(akeys, dkeys)
            activations = _PairsView.of_keys(akeys)
            deactivations = _PairsView.of_keys(dkeys)
        else:
            newly_halted = kernel.step_round(self._kstate, round_no)
            self._actions.clear()
            activations, deactivations = net.apply(self._actions, strict=self.strict)
            recorder.record_round(activations, deactivations, None)
            connected = self._conn is None or self._conn.update(activations, deactivations)
        if not connected:
            raise ProtocolViolation(f"round {round_no} broke connectivity")

        if observers is not None:
            self._emit_round(
                observers, net, round_no, activations, deactivations, connected
            )

        live = self._live
        for uid in newly_halted:
            del live[uid]
        if not live:
            self._kernel.finalize(self._kstate, self)

        if self._probe is not None:
            self._probe.probe_round(
                round_no, live=nlive, dispatch="kernel",
                acts=len(activations), deacts=len(deactivations),
            )

    def _apply_adversary(self, adversary, recorder, observers) -> None:
        before = recorder.metrics.adversary_events
        super()._apply_adversary(adversary, recorder, observers)
        # A perturbation is a wake condition for everyone: adjacency,
        # membership, and n may all have changed.
        if (
            recorder.metrics.adversary_events != before
            and self._sparse
            and len(self._wake)
        ):
            self._wake[:] = self.network.round
            self._stale[:] = True
            if self._probe is not None:
                self._probe.probe_wake("perturbation", len(self._wake))


def _halted(prog) -> bool:
    return prog.halted
