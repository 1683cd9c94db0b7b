"""The node-program interface: how distributed algorithms are written.

A distributed algorithm is a :class:`NodeProgram` subclass.  One instance
runs at every node.  Each synchronous round the engine drives, for every
node, the paper's sequence *send → receive → activate/deactivate → update*:

1. :meth:`NodeProgram.compose` — build the messages to send this round
   (may inspect the start-of-round context but not this round's inbox);
2. :meth:`NodeProgram.transition` — receive this round's inbox, request
   edge activations/deactivations through the context, update local state.

Because the model does not restrict message sizes, the engine additionally
broadcasts every node's *public record* (:meth:`NodeProgram.public`) and its
adjacency list to its neighbors each round; programs read them through
:meth:`Context.neighbor_public` and :meth:`Context.neighbor_adjacency`.
This is the standing "send your state to your neighbors" convention
documented in DESIGN.md (faithfulness note 1).

Public records are re-snapshotted lazily: the engine only calls
:meth:`NodeProgram.public` again for programs whose state may have changed
(see :attr:`NodeProgram.public_dirty` and DESIGN.md, "Engine hot path").
"""

from __future__ import annotations

from ..errors import ProtocolViolation
from .actions import edge_key


class Context:
    """Per-node view of the network for one round.

    All reads reflect the *beginning* of the current round; all writes
    (activation/deactivation requests) take effect at the end of the round.
    The engine reuses one :class:`Context` per node across rounds (updating
    :attr:`round`, :attr:`barrier_epoch` and, under an adversary,
    :attr:`n` in place), so holding on to a context between rounds is
    safe — it always describes the current round.

    Reads go straight to the network's state: the per-node snapshot
    cache ``_frozen`` (:meth:`Network.neighbors` fills it on a miss),
    ``_adj`` and ``_original``.  Neighborhoods are immutable snapshots:
    programs cannot mutate adjacency and thereby bypass the model's
    legality rules.
    """

    __slots__ = (
        "uid",
        "round",
        "n",
        "barrier_epoch",
        "_publics",
        "_network",
        "_frozen",
        "_request_act",
        "_request_dact",
    )

    def __init__(self, uid, round_no, publics, actions, network, n, barrier_epoch):
        self.uid = uid
        self.round = round_no
        self.n = n
        self.barrier_epoch = barrier_epoch
        self._publics = publics
        self._network = network
        self._frozen = network._frozen
        self._request_act = actions.activations.append
        self._request_dact = actions.deactivations.append

    # -- reads ---------------------------------------------------------

    @property
    def neighbors(self) -> frozenset:
        """``N_1(uid)`` at the beginning of the round (immutable)."""
        view = self._frozen.get(self.uid)
        return view if view is not None else self._network.neighbors(self.uid)

    def neighbor_public(self, v) -> dict:
        """The public record broadcast by neighbor ``v`` this round."""
        view = self._frozen.get(self.uid)
        if view is None:
            view = self._network.neighbors(self.uid)
        if v in view:
            return self._publics[v]
        raise ProtocolViolation(f"{self.uid} read public state of non-neighbor {v}")

    def neighbor_publics(self) -> list:
        """All of this round's broadcasts, as ``(neighbor, record)`` pairs.

        The bulk equivalent of looping ``ctx.neighbor_public(y)`` over
        ``ctx.neighbors``: every read is within the neighborhood by
        construction, so the per-read neighbor check is dropped.  Pairs
        follow the canonical neighbor-view order.
        """
        view = self._frozen.get(self.uid)
        if view is None:
            view = self._network.neighbors(self.uid)
        publics = self._publics
        return [(v, publics[v]) for v in view]

    def public_of(self, v) -> dict:
        """Unchecked public-record access (engine/analysis use only)."""
        return self._publics[v]

    def neighbor_adjacency(self, v) -> frozenset:
        """Neighbor ``v``'s adjacency at the beginning of the round."""
        view = self._frozen.get(self.uid)
        if view is None:
            view = self._network.neighbors(self.uid)
        if v in view:
            view = self._frozen.get(v)
            return view if view is not None else self._network.neighbors(v)
        raise ProtocolViolation(f"{self.uid} read adjacency of non-neighbor {v}")

    def is_original(self, v, u=None) -> bool:
        """Whether edge ``(u or uid, v)`` belongs to ``E(1)``."""
        return edge_key(self.uid if u is None else u, v) in self._network._original

    @property
    def degree(self) -> int:
        return len(self._network._adj[self.uid])

    # -- writes --------------------------------------------------------

    def activate(self, v) -> None:
        """Request activation of edge ``(uid, v)`` this round."""
        self._request_act((self.uid, self.uid, v))

    def deactivate(self, v) -> None:
        """Request deactivation of edge ``(uid, v)`` this round."""
        self._request_dact((self.uid, self.uid, v))


class NodeProgram:
    """Base class for per-node algorithm code.

    Subclasses override :meth:`setup`, :meth:`compose`, :meth:`transition`,
    and :meth:`public`.  Set :attr:`halted` when the node has terminated and
    :attr:`barrier_ready` when the node has finished the current global
    segment (barrier-synchronized algorithms only; see DESIGN.md note 2).

    Public-record snapshotting
    --------------------------
    The engine re-calls :meth:`public` only when :attr:`public_dirty` is
    set.  By default the engine conservatively re-sets the flag after every
    :meth:`transition`/:meth:`on_barrier` of a live program, so plain
    programs behave exactly as if ``public()`` were called every round —
    while halted programs cost nothing.  Programs whose public record
    changes rarely can opt in to manual tracking by setting the class
    attribute :attr:`manages_public_dirty` to ``True`` and calling
    :meth:`touch_public` whenever public-visible state changes.
    """

    #: When True, the engine never sets :attr:`public_dirty` itself; the
    #: program must call :meth:`touch_public` after changing public state.
    manages_public_dirty = False

    #: Set by the runner when an external adversary crashes this node
    #: (see ``repro.dynamics``); a crashed program is also halted.
    crashed = False

    def __init__(self, uid) -> None:
        self.uid = uid
        self.halted = False
        self.barrier_ready = False
        self.public_dirty = True

    # -- lifecycle hooks -------------------------------------------------

    def setup(self, ctx: Context) -> None:
        """Called once before round 1 with a read-only context."""

    def compose(self, ctx: Context) -> dict | None:
        """Return ``{neighbor_uid: payload}`` messages for this round."""
        return None

    def transition(self, ctx: Context, inbox: dict) -> None:
        """Receive ``inbox`` (``{sender_uid: payload}``), act, update state."""

    def public(self) -> dict:
        """The record broadcast to neighbors each round (may be shared)."""
        return {}

    def on_barrier(self, epoch: int) -> None:
        """Called when a global barrier fires; reset :attr:`barrier_ready`."""
        self.barrier_ready = False

    # -- conveniences ------------------------------------------------------

    def halt(self) -> None:
        self.halted = True

    def touch_public(self) -> None:
        """Mark the public record stale (manual dirty-tracking programs)."""
        self.public_dirty = True

    # -- bulk-backend contract (phase kernels) ----------------------------

    #: A :class:`PhaseKernel` describing this program family's phase-level
    #: bulk semantics, or None.  Class attribute; shared by all instances.
    phase_kernel = None

    #: Whether instances obey the sparse-activity contract below, letting
    #: the bulk backend skip their compose/transition on rounds where no
    #: wake condition holds.  Leave False (the safe default) unless every
    #: round skipped under the contract is provably a no-op.
    bulk_sparse = False

    def bulk_next_wake(self, next_round: int, stale: bool):
        """Earliest future round this node must run again, or ``None``.

        Called by the bulk backend immediately after each transition of a
        :attr:`bulk_sparse` program.  ``next_round`` is the upcoming round
        number; ``stale`` reports whether an external wake condition fired
        since the previous call (a message arrived, a neighbor's public
        record was re-bound, the node's adjacency changed, a barrier or
        perturbation occurred).  Returning ``None`` parks the node until
        the next external wake condition; returning a round number
        schedules an unconditional wake no later than that round.

        The sparse-activity contract (DESIGN.md, "Phase kernels & bulk
        backend"): on any round where a program is parked, its
        ``compose()`` would return a falsy value and its ``transition()``
        would change no state, request no actions, and re-bind no public
        record.  Programs may only depend on their own state, their inbox,
        their neighbors' public records, and their own adjacency — never
        on a non-neighbor or on a neighbor's adjacency list — so the wake
        conditions above cover every input that could change a decision.
        """
        return next_round


class PhaseKernel:
    """Phase-level bulk semantics of one uniform program family (Layer 1).

    The transformations' per-node logic is uniform within each phase —
    the observation that lets nodes be modeled as identical finite-state
    machines — so a program family can declare that logic once, at the
    phase level, as pure functions over struct-of-arrays state instead of
    per-object method calls.  The per-node :class:`NodeProgram` methods
    stay the single source of truth for reference and per-node bulk
    execution and become thin wrappers over the same pure functions, so
    per-node behavior is unchanged by construction.

    Kernels come in two capability levels:

    * **Scheduling kernels** (every kernel) expose the family's wake
      discipline — pure functions deciding, from a node's extracted
      state tuple, when it must next run.  The bulk backend keeps the
      fleet-wide wake state as numpy arrays (:attr:`state_fields`) and
      dispatches one vectorized due-filter per round, running only due
      nodes through the wrapped per-node methods.
    * **Array kernels** additionally implement
      :meth:`accepts`/:meth:`init_state`/:meth:`step_round`/
      :meth:`materialize`: whole rounds execute as single array
      dispatches over struct-of-arrays program state with no per-node
      Python at all.  The flooding kernel is the reference
      implementation.

    On the bulk backend the whole-run array path is decided before any
    program exists, and the kernel's state columns *are* the fleet:
    the factory must be the program class itself, that class must keep
    :meth:`NodeProgram.setup` as the base no-op (the kernel's initial
    state is what the constructor builds, with nothing run in between),
    and the run must have no adversary and no barrier.  No program,
    context or public record is built during such a run;
    ``RunResult.programs`` builds a node's program on first read and
    has the kernel :meth:`materialize` it from the node's row.

    Array kernels come in two flavors, distinguished by
    :attr:`produces_actions`:

    * *Quiescent-phase kernels* (``produces_actions = False``, the
      flooding kernel) cover families whose rounds never touch the edge
      set; ``step_round`` returns only the newly halted uids.
    * *Dense-activity kernels* (``produces_actions = True``, the star
      kernel) cover families whose rounds request edge actions;
      ``step_round`` returns ``(newly_halted_uids, RequestArrays)`` and
      the runner pushes the requests through the network's array
      legality pipeline (:meth:`DenseNetwork.apply_arrays`, the same
      rules the per-node round paths apply edge by edge).  The kernel reads
      adjacency from the network's directed key array
      (:meth:`DenseNetwork.key_state`) rather than keeping its own.

    Either way the observable execution — raw action requests, effective
    action sets, round records, metrics, halting rounds — must be
    *identical* to the per-node semantics; the cross-backend
    differential harness holds kernels to byte-identical JSONL traces.
    """

    #: Struct-of-arrays layout of the kernel's bulk state:
    #: ``(field_name, dtype_str, per_node_description)`` triples.
    state_fields = ()

    #: Whether :meth:`step_round` returns ``(newly_halted, RoundActions)``
    #: instead of just the newly halted uids (dense-activity kernels).
    produces_actions = False

    #: Whether the kernel can take over *individual rounds* of a run that
    #: is otherwise driven per-node (barrier families whose protocol
    #: structure rules out the whole-run array path).  When set, the bulk
    #: backend calls :meth:`assist_round` at the top of every sparse
    #: round; the kernel either simulates that round entirely in array
    #: form (returning True) or declines (returning False) and the
    #: per-node path proceeds untouched.  Assisted rounds are held to the
    #: same oracle as array kernels: byte-identical traces and metrics.
    assist_rounds = False

    #: Optional pure mapping ``round_no -> (phase, position)`` of a
    #: 1-based round into the family's repeating phase structure (the
    #: star kernel's 5-round phase is the canonical example).  None
    #: means the family has no phase structure.  The telemetry layer
    #: (repro.telemetry) keys its per-phase timing breakdown off this;
    #: kernels that define it as a staticmethod expose it unchanged.
    phase_of = None

    # -- array-kernel level (optional) ------------------------------------

    def accepts(self, runner) -> bool:
        """Whether the array path may drive this run (size/feature
        limits).  Called before any program exists: read the runner's
        network and flags only, never its programs.  Scheduling-only
        kernels return False."""
        return False

    def assist_round(self, runner, recorder, observers) -> bool:
        """Simulate the runner's current round entirely in array form.

        Only called when :attr:`assist_rounds` is set.  Returns True if
        the round was executed (trace/metrics emitted, wake state left
        consistent), False to fall through to the per-node path."""
        return False

    def init_state(self, runner):
        """The whole population's initial program state, in
        struct-of-arrays form (from the network alone: no program
        exists yet)."""
        raise NotImplementedError

    def step_round(self, state, round_no: int):
        """Execute one full round as array ops.

        Returns the newly halted uids — or, when
        :attr:`produces_actions` is set, ``(newly_halted_uids, requests)``
        with ``requests`` the round's raw
        :class:`~repro.engine.actions.RequestArrays` (the exact per-actor
        multiset the per-node programs would have issued, so
        request-count metrics match to the unit).
        """
        raise NotImplementedError

    def materialize(self, state, uid, prog) -> None:
        """Write node ``uid``'s row of ``state`` into ``prog``, a freshly
        constructed program (or one materialized from an earlier state),
        so that after the run it is indistinguishable from the program a
        per-node run leaves behind."""
        raise NotImplementedError
