"""GraphToWreath (Section 4): bounded-degree Depth-log n Tree.

Transforms any connected bounded-degree ``G_s`` into a spanning binary
tree of depth ``O(log n)`` rooted at the maximum-UID node, with
``O(n log² n)`` total activations, ``O(n)`` active edges per round, and
**constant** maximum activated degree — Theorem 4.2's corner of the
time/edge trade-off.  Theorem 4.2 also claims ``O(log² n)`` rounds on
every input; this implementation misses that bound on inputs whose
selection forest is deep.  On ``increasing_ring`` it takes Θ(n) rounds
(316 at n=128, 4184 at n=2048), because ASSIGN and SPLICE_A below walk
the selection tree one hop per round.  That is a known defect, not the
paper's claim (DESIGN.md, faithfulness note 9).

Committees are *wreaths*: a spanning ring (merged with O(1) structural
splices) plus a spanning binary tree (internal communication, diameter
``O(log size)``).  Each phase every committee selects its maximum-UID
neighboring committee; each tree of the selection forest merges
**wholesale** into its root: every committee splices its ring into its
parent's ring at its gateway, and the root's leader cuts the merged
cycle into a line over which the asynchronous LineToCompleteBinaryTree
subroutine rebuilds the tree component.

Ring splicing follows a walk/slot formulation (DESIGN.md note 4): the
merged cycle is the recursive Euler-style walk of the selection tree.
A committee's walk enters at its gateway contact ``x`` and ends at
``ring_prev(x)`` (its *walk end*).  A member ``g`` of the parent hosting
attachments owns the *slot* after ``g`` in the walk: the chain
``g -> x_1 -> (child_1 ring) -> e_1 -> x_2 -> ... -> e_k -> next``,
where ``next`` is ``ring_next(g)`` — or, when ``g`` is itself the
committee's walk end, the committee's own exit, forwarded down the
nesting (the RESOLVE segment).  Chain edges lie at bounded distance and
are activated with stepping stones, one hop per round.

Phases are synchronized with the engine barrier (DESIGN.md note 2) and
pass through nine fixed segments:

    REPORT -> DECIDE -> REQUEST -> ASSIGN -> RESOLVE ->
    SPLICE_A -> SPLICE_B -> REBUILD -> NEWCID

Edges carry roles (original / ring / tree / transient); an edge is only
physically deactivated when no role needs it (note 5), which is what
keeps the activated degree constant.
"""

from __future__ import annotations

import networkx as nx

from ..engine import NodeProgram, PhaseKernel, RunResult, SynchronousRunner
from ..subroutines.line_to_kary import AsyncLineToKaryTreeProgram

SEGMENTS = (
    "REPORT",
    "DECIDE",
    "REQUEST",
    "ASSIGN",
    "RESOLVE",
    "SPLICE_A",
    "SPLICE_B",
    "REBUILD",
    "NEWCID",
)


_ASLEEP = {
    "awake": False,
    "ea": 0,
    "dea": 0,
    "parent": None,
    "pending": None,
    "terminated": False,
    "settled": False,
    "child_count": 0,
    "full_final": False,
    "parent_obs": None,
    "pending_obs": None,
    "ladder_dead": False,
    "pending_ladder_dead": False,
}


class _EmbeddedCtx:
    """Context proxy giving the embedded line-to-tree program its own
    public namespace (nested under ``"l2t"`` in the wreath publics).
    Neighbors outside the merge group present as permanently asleep."""

    __slots__ = ("_ctx",)

    def __init__(self, ctx) -> None:
        self._ctx = ctx

    @property
    def round(self):
        return self._ctx.round

    @property
    def neighbors(self):
        return self._ctx.neighbors

    def neighbor_public(self, v):
        return self._ctx.neighbor_public(v)["l2t"] or _ASLEEP

    def neighbor_publics(self):
        return [(v, pub["l2t"] or _ASLEEP) for v, pub in self._ctx.neighbor_publics()]

    def activate(self, v):
        self._ctx.activate(v)

    def deactivate(self, v):
        self._ctx.deactivate(v)


class WreathSpliceKernel(PhaseKernel):
    """Scheduling kernel for the splice-walk wreath families (Layer 1).

    GraphToWreath is barrier-synchronized (DESIGN.md note 2), so whole
    rounds can never collapse into one array dispatch the way the star
    and flooding kernels do — the bulk backend's array path requires a
    barrier-free run.  What *is* uniform at phase level is the wake
    discipline of the nine fixed segments, and this kernel is its
    declaration point: per segment, how many opening rounds every member
    must run unconditionally (:attr:`SEG_FORCED`), with all later
    progress driven by messages, neighbor-record rebinds, adjacency
    changes, and three explicit in-segment schedules (stepping-stone
    splices, the splice-commit countdown, and the embedded
    line-to-tree program's three-beat cadence with its quiet-parking
    certificate — see ``AsyncLineToKaryTreeProgram``).

    ``GraphToWreathProgram.bulk_next_wake`` *is* the per-node evaluation
    of this discipline; the cross-backend differential corpus holds it
    to byte-identical traces against the per-round backends.
    """

    #: Forced opening rounds per segment (indexed like ``SEGMENTS``).
    #: The barrier already wakes the whole fleet for each segment's
    #: first round; entries above 1 cover the two decisions scheduled
    #: on a fixed later beat with no message trigger — a childless
    #: member flushes its attach list at segment round 2 (REQUEST) and
    #: every participant scans neighbor records for its rebuilt-tree
    #: children at segment round 2 (NEWCID).
    SEG_FORCED = (1, 1, 2, 1, 1, 1, 1, 1, 2)

    state_fields = (
        ("segment", "int8[n]", "current segment index (0..8)"),
        ("seg_start", "int64[n]", "anchor round of the current segment"),
        ("wake", "int64[n]", "next unconditional wake round"),
    )

    #: The REBUILD segment — the run's dominant cost — additionally
    #: executes as whole-round segment-array surgery on the bulk
    #: backend; see :mod:`repro.core.rebuild_arrays`.
    assist_rounds = True

    def assist_round(self, runner, recorder, observers) -> bool:
        sim = getattr(runner, "_wreath_assist", None)
        if sim is not None and sim.epoch == runner.barrier_epoch:
            if sim.next_round != runner.network.round:  # pragma: no cover
                runner._wreath_assist = None
                return False
            sim.step_round(runner, recorder, observers)
            return True
        runner._wreath_assist = None
        # Arm at most once per phase: from the REBUILD segment's third
        # round on, the only activity is the embedded line-to-tree
        # programs (no wreath messages in flight), which is exactly what
        # the array simulation covers.  The O(n) precondition scan runs
        # once — either it arms or the segment is already past it.
        progs = runner._progs
        p0 = progs[0]
        if p0.segment != 7:
            return False
        start = p0._seg_start_round
        if start is None or runner.network.round < start + 2:
            return False
        from .rebuild_arrays import try_arm

        sim = try_arm(runner)
        if sim is None:
            return False
        runner._wreath_assist = sim
        sim.step_round(runner, recorder, observers)
        return True


def _segment_table(cls) -> tuple:
    """The ``(step, done)`` functions per segment, indexed like
    ``SEGMENTS``.  Read off the class once, so a subclass's overrides win
    and no program holds bound methods of itself (which would make every
    node a reference cycle that only the cyclic collector can free)."""
    return tuple(
        (getattr(cls, f"_seg_{seg.lower()}"), getattr(cls, f"_done_{seg.lower()}"))
        for seg in SEGMENTS
    )


class GraphToWreathProgram(NodeProgram):
    """One node of GraphToWreath."""

    tree_arity = 2  # GraphToThinWreath raises this to ~log n
    phase_kernel = WreathSpliceKernel()

    def __init__(self, uid) -> None:
        super().__init__(uid)
        self.cid = uid
        self.is_leader = True
        self.ring_next = None
        self.ring_prev = None
        self.tree_parent = None
        self.tree_children: set = set()
        self.status = None

        self.segment = 0
        self._seg_round = 0
        self._seg_start_round = None
        self._outbox: list = []
        self._halt_at = None
        self._orig_neighbors: set = set()
        self._public: dict | None = None
        self._reset_phase_state()
        self._refresh_public()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._seg_table = _segment_table(cls)

    # ------------------------------------------------------------------
    # lifecycle / bookkeeping
    # ------------------------------------------------------------------

    def setup(self, ctx) -> None:
        self._orig_neighbors = set(ctx.neighbors)

    def _reset_phase_state(self) -> None:
        # REPORT
        self._local_foreign: dict = {}
        self._agg_foreign: dict = {}
        self._pending_report = set(self.tree_children)
        self._sensed = False
        self._report_sent = False
        # DECIDE
        self._decided = False
        self._target_cid = None
        self._own_gateway_x = None
        self._is_contact = False
        self._contact_peer = None
        self._selected = False
        self._participating = False
        # REQUEST
        self._pending_attach = set(self.tree_children)
        self._attaches_local: list = []
        self._attaches_agg: list = []
        self._attach_sent = False
        # ASSIGN / RESOLVE
        self._slots_received = False
        self._slot_chain = None
        self._pending_forward = False
        self._assignment = None  # (target_or_None, path)
        self._await_real = False
        self._succ = None
        self._succ_changed = False
        self._conn_target = None  # (target, path) for SPLICE_A
        # SPLICE
        self._old_ring = (self.ring_next, self.ring_prev)
        self._stones: list = []
        self._stones_activated: list = []
        self._splice_step = 0
        self._pinged = False
        self._ping_round = None
        self._new_prev = None
        self._committed = False
        # REBUILD / NEWCID
        self._embedded: AsyncLineToKaryTreeProgram | None = None
        self._new_root = None
        self._tree_published = False
        self._children_scanned = False
        self._got_newcid = False

    def _refresh_public(self) -> None:
        emb = self._embedded
        l2t = emb._public if emb is not None else None
        pub = self._public
        if (
            pub is not None
            and pub["l2t"] is l2t
            and pub["cid"] == self.cid
            and pub["is_leader"] == self.is_leader
            and pub["ring_next"] == self.ring_next
            and pub["ring_prev"] == self.ring_prev
            and pub["tree_parent"] == self.tree_parent
        ):
            return
        self._public = {
            "cid": self.cid,
            "is_leader": self.is_leader,
            "ring_next": self.ring_next,
            "ring_prev": self.ring_prev,
            "tree_parent": self.tree_parent,
            "l2t": l2t,
        }

    def public(self) -> dict:
        return self._public

    def on_barrier(self, epoch: int) -> None:
        super().on_barrier(epoch)
        self._seg_round = 0
        self._seg_start_round = None
        self.segment += 1
        if self.segment >= len(SEGMENTS):
            self.segment = 0
            self._reset_phase_state()

    # ------------------------------------------------------------------
    # messaging plumbing
    # ------------------------------------------------------------------

    def _send(self, dst, payload) -> None:
        self._outbox.append((dst, payload))

    def _broadcast_down(self, payload) -> None:
        for c in self.tree_children:
            self._send(c, payload)

    def compose(self, ctx) -> dict | None:
        if not self._outbox:
            return None
        out: dict = {}
        for dst, payload in self._outbox:
            out.setdefault(dst, []).append(payload)
        self._outbox = []
        return out

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def transition(self, ctx, inbox) -> None:
        # The segment round is derived from the segment's first round
        # rather than counted, so a program that sits out a round (bulk
        # backend) stays in step.  The anchor is well-defined: the engine
        # runs every program in the round after a barrier (and in round
        # 1), so all members of a segment anchor to the same round.
        if self._seg_start_round is None:
            self._seg_start_round = ctx.round
        self._seg_round = ctx.round - self._seg_start_round + 1
        if inbox:
            messages = [(src, m) for src, ms in inbox.items() for m in ms]
        else:
            messages = []
        step, done = self._seg_table[self.segment]
        step(self, ctx, messages)
        if self._halt_at is not None and ctx.round >= self._halt_at:
            self._refresh_public()
            self.halt()
            return
        self.barrier_ready = not self._outbox and done(self, ctx)
        self._refresh_public()

    #: Parked rounds are no-ops: a node with an empty outbox past a
    #: segment's opening beats only reacts to messages and to neighbor
    #: record changes, which are tracked wake conditions; the segment
    #: round is derived from the round number, not counted.
    bulk_sparse = True

    #: Forced opening rounds per segment: how many rounds from a
    #: segment's first one every member must run unconditionally.  The
    #: barrier already wakes the whole fleet for each segment's first
    #: round; entries above 1 cover the two decisions scheduled on a
    #: fixed later beat with no message trigger — a childless member
    #: flushes its attach list at segment round 2 (REQUEST) and every
    #: participant scans neighbor records for its rebuilt-tree children
    #: at segment round 2 (NEWCID).  All other progress is driven by
    #: messages, neighbor-record rebinds, or the explicit per-segment
    #: conditions below (stepping stones, the splice commit countdown,
    #: the embedded rebuild program's own schedule).
    _SEG_FORCED = WreathSpliceKernel.SEG_FORCED

    def bulk_next_wake(self, next_round: int, stale: bool):
        if self._outbox or self._halt_at is not None:
            return next_round
        start = self._seg_start_round
        seg = self.segment
        if start is None or next_round - start < self._SEG_FORCED[seg]:
            return next_round
        if seg == 5:  # SPLICE_A: one stepping stone per round
            if self._conn_target is not None and (
                not self._stones or self._splice_step < len(self._stones)
            ):
                return next_round
        elif seg == 6:  # SPLICE_B: ping, settle, commit
            if not self._committed:
                return next_round
        elif seg == 7:  # REBUILD: the embedded program sets the pace
            emb = self._embedded
            if self._participating and emb is not None:
                return emb.bulk_next_wake(next_round, stale)
        # Parked.  Reports, decisions, slot chains, splice pings and the
        # new committee id all arrive as messages; rebuild progress at a
        # terminated member arrives as a neighbor record change.
        return None

    # ------------------------------------------------------------------
    # REPORT
    # ------------------------------------------------------------------

    def _seg_report(self, ctx, messages) -> None:
        if not self._sensed:
            self._sensed = True
            foreign: dict = {}
            for y in ctx.neighbors:
                rec = ctx.neighbor_public(y)
                if rec["cid"] != self.cid:
                    cand = (self.uid, y)
                    if rec["cid"] not in foreign or cand > foreign[rec["cid"]]:
                        foreign[rec["cid"]] = cand
            self._local_foreign = foreign
            self._agg_foreign = dict(foreign)
        for src, m in messages:
            if m[0] == "report":
                for cid, cand in m[1].items():
                    if cid not in self._agg_foreign or cand > self._agg_foreign[cid]:
                        self._agg_foreign[cid] = cand
                self._pending_report.discard(src)
        if not self._pending_report and not self._report_sent:
            self._report_sent = True
            if not self.is_leader:
                self._send(self.tree_parent, ("report", self._agg_foreign))

    def _done_report(self, ctx) -> bool:
        return self._report_sent

    # ------------------------------------------------------------------
    # DECIDE
    # ------------------------------------------------------------------

    def _seg_decide(self, ctx, messages) -> None:
        decision = None
        if self.is_leader and not self._decided:
            higher = {c: g for c, g in self._agg_foreign.items() if c > self.uid}
            if higher:
                target = max(higher)
                x, y = higher[target]
                decision = ("decision", target, x, y)
            elif not self._agg_foreign:
                decision = ("terminate",)
            else:
                decision = ("decision", None, None, None)
        for _src, m in messages:
            if m[0] in ("decision", "terminate"):
                decision = m
        if decision is not None and not self._decided:
            self._apply_decision(ctx, decision)

    def _apply_decision(self, ctx, decision) -> None:
        self._decided = True
        self._broadcast_down(decision)
        if decision[0] == "terminate":
            self._finish(ctx)
            return
        _tag, target, x, y = decision
        self._target_cid = target
        self._selected = target is not None
        self._own_gateway_x = x
        if self._selected:
            self._participating = True
        if x == self.uid:
            self._is_contact = True
            self._contact_peer = y

    def _finish(self, ctx) -> None:
        """Terminate: keep only the spanning tree, set status, halt soon."""
        keep = set(self.tree_children)
        if self.tree_parent is not None:
            keep.add(self.tree_parent)
        for v in list(ctx.neighbors):
            if v not in keep:
                ctx.deactivate(v)
        self.status = "leader" if self.is_leader else "follower"
        self._halt_at = ctx.round + 1

    def _done_decide(self, ctx) -> bool:
        return self._decided

    # ------------------------------------------------------------------
    # REQUEST
    # ------------------------------------------------------------------

    def _seg_request(self, ctx, messages) -> None:
        if self._seg_round == 1 and self._is_contact:
            walk_end = self.ring_prev if self.ring_prev is not None else self.uid
            self._send(self._contact_peer, ("attach", self.cid, self.uid, walk_end))
        for src, m in messages:
            if m[0] == "attach":
                self._attaches_local.append((m[1], m[2], m[3]))
                self._participating = True
            elif m[0] == "attachlist":
                self._attaches_agg.extend(m[1])
                if m[1]:
                    self._participating = True
                self._pending_attach.discard(src)
        if self._seg_round >= 2 and not self._pending_attach and not self._attach_sent:
            self._attach_sent = True
            mine = [(cid, x, we, self.uid) for cid, x, we in self._attaches_local]
            self._attaches_agg.extend(mine)
            if not self.is_leader:
                self._send(self.tree_parent, ("attachlist", self._attaches_agg))

    def _done_request(self, ctx) -> bool:
        return self._attach_sent

    # ------------------------------------------------------------------
    # ASSIGN / RESOLVE: slot chains and exit assignments
    # ------------------------------------------------------------------

    def _seg_assign(self, ctx, messages) -> None:
        if (
            self.is_leader
            and self._seg_round == 1
            and (self._participating or self._selected)
        ):
            by_gateway: dict = {}
            for cid, x, walk_end, g in self._attaches_agg:
                by_gateway.setdefault(g, []).append((cid, x, walk_end))
            for entries in by_gateway.values():
                entries.sort()
            msg = ("slotsall", by_gateway, self._own_gateway_x)
            self._handle_slots(msg)
            self._broadcast_down(msg)
        self._common_chain_messages(ctx, messages)
        self._resolve(ctx)

    def _seg_resolve(self, ctx, messages) -> None:
        self._common_chain_messages(ctx, messages)
        self._resolve(ctx)

    def _common_chain_messages(self, ctx, messages) -> None:
        for src, m in messages:
            tag = m[0]
            if tag == "slotsall":
                self._handle_slots(m)
                self._broadcast_down(m)
            elif tag == "chain" or tag == "chainfwd2":
                _t, walk_end, nxt, path = m
                if walk_end == self.uid:
                    self._assignment = (nxt, path)
                    if nxt is None:
                        self._await_real = True
                    else:
                        self._await_real = False
                else:
                    # I am the gateway contact x; one hop to my walk end.
                    self._send(walk_end, ("chainfwd2", walk_end, nxt, path))

    def _handle_slots(self, msg) -> None:
        _tag, by_gateway, own_gateway_x = msg
        self._slots_received = True
        if by_gateway:
            # My committee is being attached to: every member is part of
            # the merged ring and must join the rebuild.
            self._participating = True
        entries = by_gateway.get(self.uid)
        if not entries:
            return
        self._slot_chain = entries
        is_walk_end = own_gateway_x is not None and self.ring_next == own_gateway_x
        # Walk-end detection: my slot's exit is the committee exit iff my
        # ring successor is the committee's own gateway contact.  For a
        # singleton committee the sole node is both gateway and walk end.
        if self.ring_next is None and own_gateway_x == self.uid:
            is_walk_end = True
        self._pending_forward = is_walk_end
        self._succ = entries[0][1]
        self._succ_changed = True
        for i, (cid, x, walk_end) in enumerate(entries):
            if i + 1 < len(entries):
                nxt = entries[i + 1][1]
            elif is_walk_end:
                nxt = None  # exit arrives via RESOLVE
            else:
                nxt = self.ring_next if self.ring_next is not None else self.uid
            self._send(x, ("chain", walk_end, nxt, [x, self.uid]))

    def _resolve(self, ctx) -> None:
        if self._assignment is None:
            return
        nxt, path = self._assignment
        if nxt is None:
            return  # waiting for the real exit (chainfwd2)
        if self._pending_forward:
            # My exit belongs to my slot chain's last connector.
            cid, x_k, walk_end_k = self._slot_chain[-1]
            self._send(x_k, ("chainfwd2", walk_end_k, nxt, [x_k, self.uid] + path))
            self._pending_forward = False
            self._assignment = None
            return
        if not self._slots_received:
            # A slot map is broadcast in every committee that
            # participates; receiving an assignment proves my committee
            # selected, so one is on its way and may still flip my role.
            return
        # Plain walk-end connector.
        self._conn_target = (nxt, path)
        self._succ = nxt
        self._succ_changed = True
        self._await_real = False
        self._assignment = None

    def _done_assign(self, ctx) -> bool:
        return True

    def _done_resolve(self, ctx) -> bool:
        return (
            self._assignment is None
            and not self._pending_forward
            and not self._await_real
        )

    # ------------------------------------------------------------------
    # SPLICE_A: stepping-stone activations
    # ------------------------------------------------------------------

    def _seg_splice_a(self, ctx, messages) -> None:
        if self._conn_target is None:
            return
        target, path = self._conn_target
        if not self._stones:
            seq = [self.uid] + list(path) + [target]
            dedup = [seq[0]]
            for s in seq[1:]:
                if s != dedup[-1]:
                    dedup.append(s)
            self._stones = dedup[2:] if len(dedup) >= 3 else [target]
            self._splice_step = 0
            self._prev_stone = None
        if self._splice_step < len(self._stones):
            # Rolling stepping stone: activate the next anchor (legal via
            # the previous one) and drop the previous temporary edge in the
            # same round, keeping the transient degree O(1).
            nxt = self._stones[self._splice_step]
            activated_now = False
            if nxt not in ctx.neighbors:
                ctx.activate(nxt)
                activated_now = True
            if self._prev_stone is not None and self._prev_stone in ctx.neighbors:
                ctx.deactivate(self._prev_stone)
            self._prev_stone = nxt if activated_now and nxt != target else None
            self._splice_step += 1

    def _done_splice_a(self, ctx) -> bool:
        return self._conn_target is None or (
            bool(self._stones) and self._splice_step >= len(self._stones)
        )

    # ------------------------------------------------------------------
    # SPLICE_B: commit pointers, ping predecessors, cut dead ring edges
    # ------------------------------------------------------------------

    def _seg_splice_b(self, ctx, messages) -> None:
        for src, m in messages:
            if m[0] == "pred":
                self._new_prev = src
        if not self._pinged:
            self._pinged = True
            self._ping_round = ctx.round
            if self._succ is None:
                self._succ = self.ring_next
            if self._succ is not None:
                self._send(self._succ, ("pred", self.uid))
            return
        if not self._committed and ctx.round >= self._ping_round + 2:
            self._committed = True
            old_next, old_prev = self._old_ring
            if self._succ is not None:
                self.ring_next = self._succ
            if self._new_prev is not None:
                self.ring_prev = self._new_prev
            for b in (old_next, old_prev):
                if (
                    b is not None
                    and b in ctx.neighbors
                    and b not in (self.ring_next, self.ring_prev)
                    and b not in self._orig_neighbors
                    and b != self.tree_parent
                    and b not in self.tree_children
                ):
                    ctx.deactivate(b)

    def _done_splice_b(self, ctx) -> bool:
        return self._committed

    # ------------------------------------------------------------------
    # REBUILD: rebuild the tree component over the merged ring
    # ------------------------------------------------------------------

    def _seg_rebuild(self, ctx, messages) -> None:
        if not self._participating:
            return
        for src, m in messages:
            if m[0] == "leftend" and self._embedded is not None:
                self._embedded.line_child = None
        if self._embedded is None:
            self._start_rebuild(ctx)
            return
        self._embedded.transition(_EmbeddedCtx(ctx), {})

    def _start_rebuild(self, ctx) -> None:
        for v in list(self.tree_children) + (
            [self.tree_parent] if self.tree_parent is not None else []
        ):
            if (
                v in ctx.neighbors
                and v not in (self.ring_next, self.ring_prev)
                and v not in self._orig_neighbors
            ):
                ctx.deactivate(v)
        self.tree_parent = None
        self.tree_children = set()
        is_root = self.is_leader and not self._selected
        self._embedded = AsyncLineToKaryTreeProgram(
            self.uid,
            None if is_root else self.ring_next,
            self.ring_prev,
            k=self.tree_arity,
            wake_round=ctx.round + 1,
            may_deactivate=self._may_drop_tree_edge,
        )
        if is_root:
            self._new_root = self.uid
            if self.ring_next is not None:
                self._send(self.ring_next, ("leftend",))

    def _may_drop_tree_edge(self, uid, v) -> bool:
        return v not in (self.ring_next, self.ring_prev) and v not in self._orig_neighbors

    def _done_rebuild(self, ctx) -> bool:
        if not self._participating:
            return True
        return self._embedded is not None and self._embedded.settled

    # ------------------------------------------------------------------
    # NEWCID: adopt the rebuilt tree and the root's committee id
    # ------------------------------------------------------------------

    def _seg_newcid(self, ctx, messages) -> None:
        if not self._participating:
            self._got_newcid = True
            return
        if not self._tree_published:
            self._tree_published = True
            self.tree_parent = self._embedded.parent
            return
        if not self._children_scanned:
            self._children_scanned = True
            self.tree_children = {
                v
                for v in ctx.neighbors
                if (ctx.neighbor_public(v).get("l2t") or {}).get("parent") == self.uid
            }
        for src, m in messages:
            if m[0] == "newcid":
                self._adopt_newcid(m[1])
        if self._new_root == self.uid and not self._got_newcid:
            self._adopt_newcid(self.uid)

    def _adopt_newcid(self, root) -> None:
        if self._got_newcid:
            return
        self._got_newcid = True
        self.cid = root
        self.is_leader = root == self.uid
        self._broadcast_down(("newcid", root))

    def _done_newcid(self, ctx) -> bool:
        return self._got_newcid


GraphToWreathProgram._seg_table = _segment_table(GraphToWreathProgram)


def run_graph_to_wreath(graph: nx.Graph, **runner_kwargs) -> RunResult:
    """Execute GraphToWreath on any connected initial network."""
    runner_kwargs.setdefault("use_barrier", True)
    return SynchronousRunner(graph, GraphToWreathProgram, **runner_kwargs).run()


def wreath_leader(result: RunResult):
    """UID of the node whose final status is leader."""
    leaders = [uid for uid, p in result.programs.items() if p.status == "leader"]
    if len(leaders) != 1:
        raise AssertionError(f"expected exactly one leader, got {leaders}")
    return leaders[0]
