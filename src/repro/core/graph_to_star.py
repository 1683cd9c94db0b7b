"""GraphToStar (Section 3): the edge-optimal Depth-1 Tree algorithm.

Transforms any connected ``G_s`` into a spanning star centered at the
maximum-UID node, electing it leader, in ``O(log n)`` rounds with
``O(n log n)`` total edge activations and at most ``2n`` active edges per
round — the optimal trade-off point of Theorem 3.8.

Committees are star gadgets; each committee is led by its maximum-UID
member, and committees repeatedly select and merge into the highest
neighboring committee.  Modes follow the paper exactly (selection /
merging / pulling / waiting / termination); pulling runs TreeToStar on
the committee forest.

Phases here are 5 synchronous rounds (sync / sense / report+act1 / act2 /
observe) instead of the paper's tightest 2-round accounting — see
DESIGN.md note 3.  Within a phase:

* ``r0`` — followers refresh their committee mode from the leader;
* ``r1`` — every node senses adjacent foreign committees (fresh modes);
  leaders of pulling/merging committees re-validate their targets;
* ``r2`` — followers report foreign neighbors to the leader; leaders
  decide selections and perform the first hop (edge to a member of the
  target committee); merging committees transfer their members; pulling
  committees jump to their grandparent committee;
* ``r3`` — leaders complete the selection with the leader-to-leader edge
  (re-targeting through the gateway's fresh committee id if the target
  merged away this phase) and drop the first-hop edge;
* ``r4`` — outcome observation and the phase's mode transitions.
"""

from __future__ import annotations

import networkx as nx

from ..engine import NodeProgram, PhaseKernel, RunResult, SynchronousRunner
from ..engine.actions import RequestArrays
from .modes import Mode

PHASE_LEN = 5


class StarPhaseKernel(PhaseKernel):
    """Phase-level bulk semantics of GraphToStar (scheduling kernel).

    The per-phase decision logic that is uniform across nodes lives here
    as pure functions; :class:`GraphToStarProgram` methods are thin
    wrappers over them.  The wake discipline exploits the 5-round phase
    structure: a quiescent follower only runs on report rounds (``r2``),
    while any wake condition — or any change to the node's own public
    record — holds it awake for two full phases so every phase position
    sees the new state exactly as an always-awake node would.
    """

    state_fields = (
        ("wake", "int64[n]", "next unconditional wake round"),
        ("stale", "bool[n]", "unacknowledged external wake condition"),
    )

    #: Rounds a node stays awake after a wake condition: two full phases
    #: cover every phase position r0..r4 at least once from any offset.
    HOT_WINDOW = 2 * PHASE_LEN

    @staticmethod
    def phase_of(round_no: int) -> tuple:
        """``(phase, position)`` of a 1-based round in the 5-round phase."""
        return divmod(round_no - 1, PHASE_LEN)

    @staticmethod
    def select_candidate(uid, entries) -> tuple:
        """The r2 selection reduction: ``(selected_cid, gateway, via)``.

        Pure function of the leader's sensed+reported foreign adjacency
        ``entries`` (``(cid, mode, y, x)`` tuples).  Returns
        ``(None, None, None)`` when no higher committee is selectable.
        Second result: whether any foreign committee exists at all.
        """
        candidates: dict = {}
        foreign_exists = False
        for cid, mode, y, x in entries:
            foreign_exists = True
            if cid > uid and mode != Mode.PULLING:
                best = candidates.get(cid)
                # Prefer a gateway at the leader itself, then max uids.
                key = (x == uid, x, y)
                if best is None or key > best[0]:
                    candidates[cid] = (key, y, x)
        if not candidates:
            return (None, None, None), foreign_exists
        target_cid = max(candidates)
        _, y, x = candidates[target_cid]
        return (target_cid, y, x), foreign_exists

    @staticmethod
    def next_wake(is_leader, mode, has_foreign, hot_until, next_round):
        """The family's wake discipline, as a pure function of the
        node's scheduling state.  Leaders and transient modes run every
        round; hot nodes run until their window closes; quiescent
        boundary followers run only on report rounds (``r2``); committee
        interiors (no foreign neighbors, hence empty reports) park until
        a wake condition."""
        if is_leader or mode in (Mode.MERGING, Mode.TERMINATION):
            return next_round
        pos = (next_round - 1) % PHASE_LEN
        if next_round <= hot_until:
            # Hot: run every follower-relevant position (r0/r1/r2).  r3 is
            # leader-only and a follower's r4 only acts in TERMINATION
            # (handled above), so those positions are provable no-ops.
            return next_round if pos <= 2 else next_round + (PHASE_LEN - pos)
        if not has_foreign:
            return None
        # Quiescent boundary: only the r2 report round.
        return next_round if pos == 2 else next_round + ((2 - pos) % PHASE_LEN)


class StarDenseKernel(StarPhaseKernel):
    """Whole-round array semantics of GraphToStar (dense-activity kernel).

    GraphToStar's phases are *dense*: committees are stars, so a single
    leader decision fans out to every member, and in early phases almost
    every node senses, reports, and re-reads its leader each round —
    parking buys nothing.  This kernel executes the whole 5-round phase
    logic as vectorized passes over struct-of-arrays program state, with
    the per-node :class:`GraphToStarProgram` methods remaining the
    source of truth on the reference/dense backends:

    * committee membership is the ``cid`` array itself (leader of
      committee ``c`` is node ``c``, a paper invariant);
    * the boundary adjacency is read straight off the network's sorted
      directed key array (:meth:`DenseNetwork.key_arrays`), which the
      network's array apply keeps current — the kernel holds no
      adjacency of its own;
    * the r2 candidate selection is one masked lexicographic reduction
      over the phase's sensed boundary entries — sort by (committee,
      candidate cid, preference key) and keep each committee's last row;
    * leader-rebind fan-out (r0 mode copies, r2 transfers, termination)
      are fancy-indexed gather/scatter passes over the public plane.

    The kernel produces the exact per-actor action-request multiset the
    per-node programs would issue, as :class:`RequestArrays`; the runner
    pushes it through the network's array legality pipeline
    (:meth:`DenseNetwork.apply_arrays`) and the metrics recorder, so
    traces and metrics stay byte-identical by construction (the
    differential harness and the hypothesis lockstep suite are the
    oracle).  Reads assume the execution is legal — the per-node
    backends are where protocol violations of hand-written programs get
    diagnosed.
    """

    produces_actions = True

    state_fields = (
        ("cid", "int64[n]", "committee id (== leader uid)"),
        ("leader", "bool[n]", "node currently leads its committee"),
        ("mode", "int8[n]", "committee mode code (leader-held)"),
        ("mtgt", "int64[n]", "merge target (-1: none)"),
        ("plink", "int64[n]", "pulling parent link (-1: none)"),
        ("llp/llt", "int64[n]", "last leader-edge (phase, target)"),
        ("tlink", "int64[n]", "current attachment (-1: none)"),
        ("p_*", "mirrors", "public plane as of each node's last refresh"),
        ("ent_*", "int64[B]", "r1-sensed boundary entries (r2 reduction)"),
    )

    #: Mode codes used inside the packed arrays (finalize maps back).
    _MODES = (Mode.SELECTION, Mode.MERGING, Mode.PULLING, Mode.WAITING, Mode.TERMINATION)
    _SEL, _MRG, _PUL, _WAI, _TER = range(5)

    def accepts(self, runner) -> bool:
        net = runner.network
        return bool(net._identity) and len(runner._uids) == net.n

    def init_state(self, runner):
        import numpy as np

        net = runner.network
        n = net.n
        idx = np.arange(n, dtype=np.int64)
        none = np.full(n, -1, dtype=np.int64)
        st = {
            "n": n,
            "net": net,
            # E(1) never changes on the kernel path (no adversary).
            "orig": net.key_arrays()[2],
            "no_requests": RequestArrays(*[idx[:0]] * 6),
            # program state: every node starts as a singleton leader
            "cid": idx.copy(),
            "leader": np.ones(n, dtype=bool),
            "mode": np.zeros(n, dtype=np.int8),
            "mtgt": none.copy(),
            "plink": none.copy(),
            "llp": none.copy(),
            "llt": none.copy(),
            "tlink": none.copy(),
            "halted": np.zeros(n, dtype=bool),
            # public plane (content as of each node's last refresh)
            "p_cid": idx.copy(),
            "p_leader": np.ones(n, dtype=bool),
            "p_mode": np.zeros(n, dtype=np.int8),
            "p_mtgt": none.copy(),
            "p_llp": none.copy(),
            "p_llt": none.copy(),
            "p_tlink": none.copy(),
            # per-phase leader scratch
            "sel": none.copy(),
            "act1": none.copy(),
            "act1_done": np.zeros(n, dtype=bool),
            "jump": none.copy(),
            "defer": np.zeros(n, dtype=bool),
            "fexists": np.zeros(n, dtype=bool),
            # r1 -> r2 carry: sensed boundary entries + reporter flags
            "ent_owner": idx[:0],
            "ent_x": idx[:0],
            "ent_y": idx[:0],
            "ent_c": idx[:0],
            "ent_m": np.zeros(0, dtype=np.int8),
            "has_foreign": np.zeros(n, dtype=bool),
        }
        return st

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _publish(st, rows) -> None:
        """The batched equivalent of ``_refresh_public`` for ``rows``."""
        for f in ("cid", "leader", "mode", "mtgt", "llp", "llt", "tlink"):
            st["p_" + f][rows] = st[f][rows]

    @staticmethod
    def _edges(st):
        """The active edges as parallel directed ``(src, dst)`` arrays."""
        from ..engine.edge_keys import MASK, SHIFT

        dirs = st["net"].key_arrays()[1]
        return dirs >> SHIFT, dirs & MASK

    @staticmethod
    def _orig_edge(st, u, v):
        """Vectorized ``is_original`` over uid arrays (identity interning)."""
        from ..engine.edge_keys import member, pack

        return member(st["orig"], pack(u, v))

    # -- the round dispatch ------------------------------------------------

    def step_round(self, state, round_no: int):
        phase, pos = StarPhaseKernel.phase_of(round_no)
        halted: list = []
        requests = state["no_requests"]
        if pos == 0:
            self._round0(state)
        elif pos == 1:
            self._round1(state, phase)
        elif pos == 2:
            requests = self._round2(state, phase)
        elif pos == 3:
            requests = self._round3(state, phase)
        else:
            halted = self._round4(state, phase)
        return halted, requests

    @staticmethod
    def _round0(st) -> None:
        """r0: followers copy the leader's mode; leaders reset scratch."""
        import numpy as np

        live = ~st["halted"]
        leader = st["leader"]
        fol = np.nonzero(live & ~leader)[0]
        if len(fol):
            lead = st["cid"][fol]
            st["mode"][fol] = st["p_mode"][lead]
            st["mtgt"][fol] = st["p_mtgt"][lead]
            StarDenseKernel._publish(st, fol)
        led = np.nonzero(live & leader)[0]
        if len(led):
            st["sel"][led] = -1
            st["act1"][led] = -1
            st["act1_done"][led] = False
            st["jump"][led] = -1
            st["defer"][led] = False
            st["fexists"][led] = False

    @staticmethod
    def _round1(st, phase: int) -> None:
        """r1: sense foreign committees; merging/pulling re-validation."""
        import numpy as np

        K = StarDenseKernel
        live = ~st["halted"]
        leader = st["leader"]
        cid = st["cid"]
        mode = st["mode"]
        src, dst = K._edges(st)
        p_cid, p_mode = st["p_cid"], st["p_mode"]
        p_leader, p_mtgt = st["p_leader"], st["p_mtgt"]
        p_llp, p_llt = st["p_llp"], st["p_llt"]

        rows = np.nonzero(live[src] & (p_cid[dst] != cid[src]))[0]
        ex, ey = src[rows], dst[rows]
        st["ent_x"], st["ent_y"] = ex, ey
        st["ent_owner"] = cid[ex]
        st["ent_c"] = p_cid[ey]
        st["ent_m"] = p_mode[ey]
        hasf = np.zeros(st["n"], dtype=bool)
        hasf[ex] = True
        st["has_foreign"] = hasf
        ldr = live & leader
        st["fexists"][ldr] = hasf[ldr]

        mrg = np.nonzero(ldr & (mode == K._MRG))[0]
        pul = np.nonzero(ldr & (mode == K._PUL))[0]
        if len(mrg):
            t = st["mtgt"][mrg]
            dis = ~p_leader[t]
            tm = ~dis & (p_mode[t] == K._MRG)
            st["jump"][mrg[dis]] = p_cid[t[dis]]
            st["jump"][mrg[tm]] = p_mtgt[t[tm]]
            moved = mrg[dis | tm]
            if len(moved):
                st["plink"][moved] = st["mtgt"][moved]
                st["mtgt"][moved] = -1
                mode[moved] = K._PUL
        if len(pul):
            p = st["plink"][pul]
            c1 = ~p_leader[p]
            c2 = ~c1 & (p_mode[p] == K._MRG)
            c3 = ~c1 & ~c2 & (p_llp[p] != -1) & (p_llp[p] == phase - 1)
            st["jump"][pul[c1]] = p_cid[p[c1]]
            st["jump"][pul[c2]] = p_mtgt[p[c2]]
            st["jump"][pul[c3]] = p_llt[p[c3]]
            st["defer"][pul[~(c1 | c2 | c3)]] = True
        K._publish(st, np.nonzero(ldr)[0])

    @staticmethod
    def _round2(st, phase: int) -> RequestArrays:
        """r2: reports + candidate selection + first hop; merge transfer;
        pulling jump; termination fan-out."""
        import numpy as np

        from ..engine.edge_keys import member, pack

        K = StarDenseKernel
        n = st["n"]
        live = ~st["halted"]
        leader = st["leader"]
        cid = st["cid"]
        mode = st["mode"]
        src, dst = K._edges(st)
        p_mode, p_mtgt = st["p_mode"], st["p_mtgt"]

        # --- start-of-round reads (before any state mutation) ---------
        hle = np.zeros(n, dtype=bool)  # node still has its leader edge
        if len(src):
            hle[src[dst == cid[src]]] = True
        fol_rows = np.nonzero(live & ~leader)[0]
        lead = cid[fol_rows]
        lmode = p_mode[lead]
        mg = fol_rows[lmode == K._MRG]  # transferring followers
        mg_t = p_mtgt[lead[lmode == K._MRG]]
        mg_old = cid[mg]
        mg_keep = K._orig_edge(st, mg, mg_old)
        tf = fol_rows[lmode == K._TER]  # terminating followers
        t_u = t_v = src[:0]
        if len(tf):
            tfm = np.zeros(n, dtype=bool)
            tfm[tf] = True
            trows = np.nonzero(tfm[src] & (dst != cid[src]))[0]
            t_u, t_v = src[trows], dst[trows]

        # --- the selection reduction over the sensed boundary ----------
        selmask = live & leader & (mode == K._SEL)
        repmask = np.zeros(n, dtype=bool)
        repmask[fol_rows] = (
            st["has_foreign"][fol_rows]
            & hle[fol_rows]
            & ((lmode == K._SEL) | (lmode == K._WAI))
        )
        ent_o, ent_x, ent_y = st["ent_owner"], st["ent_x"], st["ent_y"]
        ent_c, ent_m = st["ent_c"], st["ent_m"]
        own = ent_o == ent_x
        incl = selmask[ent_o] & (own | repmask[ent_x])
        st["fexists"][ent_o[incl]] = True
        fil = np.nonzero(incl & (ent_c > ent_o) & (ent_m != K._PUL))[0]
        sel_L = sel_c = sel_y = src[:0]
        if len(fil):
            o, c, y, x = ent_o[fil], ent_c[fil], ent_y[fil], ent_x[fil]
            key = ((x == o).astype(np.int64) << 62) | (x << 31) | y
            order = np.lexsort((key, c, o))
            o, c, y = o[order], c[order], y[order]
            last = np.ones(len(o), dtype=bool)
            last[:-1] = o[:-1] != o[1:]
            sel_L, sel_c, sel_y = o[last], c[last], y[last]

        pj = np.nonzero(live & leader & (mode == K._PUL) & (st["jump"] != -1))[0]
        pj_t = st["jump"][pj]
        pj_p = st["plink"][pj]
        pj_orig = K._orig_edge(st, pj, pj_p)
        md = np.nonzero(live & leader & (mode == K._MRG))[0]

        # --- the raw requests, by group: transfers, the termination
        # fan-out, first hops, pulling jumps (each group in row order) --
        keys = st["net"].key_arrays()[0]
        hop = ~member(keys, pack(sel_L, sel_y))  # first-hop edge not yet active
        st["act1_done"][sel_L[hop]] = True
        drop_p = member(keys, pack(pj, pj_p)) & ~pj_orig
        act_u = np.concatenate([mg, sel_L[hop], pj])
        dea_u = np.concatenate([mg[~mg_keep], t_u, pj[drop_p]])
        requests = RequestArrays(
            act_u, act_u, np.concatenate([mg_t, sel_y[hop], pj_t]),
            dea_u, dea_u, np.concatenate([mg_old[~mg_keep], t_v, pj_p[drop_p]]),
        )

        # --- state updates ---------------------------------------------
        cid[mg] = mg_t
        mode[mg] = K._WAI
        mode[tf] = K._TER
        st["sel"][sel_L] = sel_c
        st["act1"][sel_L] = sel_y
        st["plink"][pj] = pj_t
        st["tlink"][pj] = pj_t
        st["llp"][pj] = phase
        st["llt"][pj] = pj_t
        cid[md] = st["mtgt"][md]
        st["leader"][md] = False
        mode[md] = K._WAI
        st["mtgt"][md] = -1
        st["tlink"][md] = -1
        K._publish(st, np.nonzero(live)[0])
        return requests

    @staticmethod
    def _round3(st, phase: int) -> RequestArrays:
        """r3: the leader-to-leader edge, re-targeted through the gateway."""
        import numpy as np

        K = StarDenseKernel
        live = ~st["halted"]
        g = np.nonzero(
            live & st["leader"] & (st["mode"] == K._SEL) & (st["sel"] != -1)
        )[0]
        requests = st["no_requests"]
        if len(g):
            y = st["act1"][g]
            t = st["p_cid"][y]
            ok = t != g
            rows, yk, tk = g[ok], y[ok], t[ok]
            is_orig = K._orig_edge(st, rows, yk)
            moved = tk != yk  # the gateway's committee merged away
            drop = st["act1_done"][rows] & moved & ~is_orig
            requests = RequestArrays(
                rows[moved], rows[moved], tk[moved], rows[drop], rows[drop], yk[drop]
            )
            st["sel"][rows] = tk
            st["tlink"][rows] = tk
            st["llp"][rows] = phase
            st["llt"][rows] = tk
        K._publish(st, np.nonzero(live & st["leader"])[0])
        return requests

    @staticmethod
    def _round4(st, phase: int) -> list:
        """r4: outcome observation, mode transitions, the halting wave."""
        import numpy as np

        K = StarDenseKernel
        n = st["n"]
        live = ~st["halted"]
        leader = st["leader"]
        mode = st["mode"]
        mode0 = mode.copy()
        cid = st["cid"]
        src, dst = K._edges(st)
        p_leader, p_tlink = st["p_leader"], st["p_tlink"]
        p_cid, p_llp = st["p_cid"], st["p_llp"]

        hc = np.zeros(n, dtype=bool)  # has a foreign leader child
        if len(src):
            cond = p_leader[dst] & (p_tlink[dst] == src) & (p_cid[dst] != cid[src])
            hc[src[cond]] = True

        ldr = live & leader
        sel = st["sel"]
        s = ldr & (mode0 == K._SEL)
        sA = np.nonzero(s & (sel != -1))[0]
        if len(sA):
            t = sel[sA]
            ispull = (p_llp[t] != -1) & (p_llp[t] == phase)
            a, b = sA[ispull], sA[~ispull]
            mode[a] = K._PUL
            st["plink"][a] = sel[a]
            mode[b] = K._MRG
            st["mtgt"][b] = sel[b]
        sB = s & (sel == -1)
        mode[sB & hc] = K._WAI
        mode[sB & ~hc & ~st["fexists"]] = K._TER
        pd = np.nonzero(ldr & (mode0 == K._PUL) & st["defer"])[0]
        if len(pd):
            mode[pd] = K._MRG
            st["mtgt"][pd] = st["plink"][pd]
            st["plink"][pd] = -1
            st["tlink"][pd] = st["mtgt"][pd]
        w = ldr & (mode0 == K._WAI) & ~hc
        mode[w & st["fexists"]] = K._SEL
        mode[w & ~st["fexists"]] = K._TER

        halt_rows = np.nonzero(live & (mode0 == K._TER))[0]
        st["halted"][halt_rows] = True
        K._publish(st, np.nonzero(ldr)[0])
        return halt_rows.tolist()

    def finalize(self, state, runner) -> None:
        modes = self._MODES
        programs = runner.programs
        publics = runner._publics
        cid, leader = state["cid"], state["leader"]
        mode, mtgt = state["mode"], state["mtgt"]
        plink, tlink = state["plink"], state["tlink"]
        llp, llt = state["llp"], state["llt"]
        halted = state["halted"]
        for i, uid in enumerate(runner.network._uid_of):
            prog = programs[uid]
            prog.cid = int(cid[i])
            prog.is_leader = bool(leader[i])
            prog.mode = modes[mode[i]]
            prog.merge_target = None if mtgt[i] < 0 else int(mtgt[i])
            prog.parent_link = None if plink[i] < 0 else int(plink[i])
            prog.last_link = None if llp[i] < 0 else (int(llp[i]), int(llt[i]))
            prog.target_link = None if tlink[i] < 0 else int(tlink[i])
            prog.status = "leader" if leader[i] else "follower"
            prog._foreign = []
            prog._reports = []
            if halted[i] and not prog.halted:
                prog.halt()
            prog._refresh_public()
            publics[uid] = prog.public()


class GraphToStarProgram(NodeProgram):
    """One node of GraphToStar."""

    phase_kernel = StarDenseKernel()

    #: Parked rounds are no-ops: r0 re-copies an unchanged leader record,
    #: r1 re-senses unchanged publics, r3 is leader-only, r4 only acts in
    #: TERMINATION (never parked).  Every input that could change a
    #: decision — a neighbor record rebind, an adjacency change, the
    #: node's own public state — opens the kernel's hot window.
    bulk_sparse = True

    def __init__(self, uid) -> None:
        super().__init__(uid)
        self.cid = uid  # committee id == leader uid
        self.is_leader = True
        self.mode = Mode.SELECTION
        self.merge_target = None
        self.parent_link = None  # pulling: the committee we point at
        self.last_link = None  # (phase, target): leader edge activated
        self.target_link = None  # current attachment (for child detection)
        self.status = None  # final: "leader" / "follower"

        # Per-phase scratch.
        self._foreign: list = []
        self._reports: list = []
        self._act1_edge = None
        self._act1_performed = False
        self._selected = None
        self._jump_target = None
        self._defer_merge = False
        self._foreign_exists = False
        self._public_key = None
        self._bulk_key = None  # last public key acknowledged by the scheduler
        self._hot_until = 0
        self._refresh_public()

    # ------------------------------------------------------------------

    def _refresh_public(self) -> None:
        # Rebind a fresh record only when a public field actually changed:
        # neighbors hold references to the previous round's record, so an
        # unchanged record may be reused but never mutated in place.
        key = (
            self.cid,
            self.is_leader,
            self.mode,
            self.merge_target,
            self.last_link,
            self.target_link,
        )
        if key == self._public_key:
            return
        self._public_key = key
        self._public = {
            "cid": key[0],
            "is_leader": key[1],
            "mode": key[2],
            "merge_target": key[3],
            "last_link": key[4],
            "target_link": key[5],
        }

    def public(self) -> dict:
        return self._public

    # ------------------------------------------------------------------

    def compose(self, ctx) -> dict | None:
        # An empty report would extend the leader's candidate list with
        # nothing: skipping it changes no decision on any backend (and
        # lets committee-interior nodes park under the bulk backend).
        if (ctx.round - 1) % PHASE_LEN == 2 and not self.is_leader and self._foreign:
            cid = self.cid
            if cid in ctx.neighbors:
                leader_mode = ctx.public_of(cid)["mode"]
                if leader_mode in (Mode.SELECTION, Mode.WAITING):
                    return {cid: ("report", self._foreign)}
        return None

    def transition(self, ctx, inbox) -> None:
        phase, pr = divmod(ctx.round - 1, PHASE_LEN)
        if self.is_leader:
            self._leader_step(ctx, inbox, phase, pr)
            if pr:  # r0 only resets per-phase scratch, never public state
                self._refresh_public()
        else:
            if pr != 3:  # r3 is a leader-only round; followers idle through it
                self._follower_step(ctx, phase, pr)
            if pr == 0 or pr == 2:  # the only follower rounds touching public state
                self._refresh_public()

    # ------------------------------------------------------------------
    # follower behaviour
    # ------------------------------------------------------------------

    def _follower_step(self, ctx, phase: int, pr: int) -> None:
        if pr == 0:
            rec = ctx.neighbor_public(self.cid)
            self.mode = rec["mode"]
            self.merge_target = rec["merge_target"]
        elif pr == 1:
            self._sense(ctx)
        elif pr == 2:
            # Act on the leader's freshest state (post re-validation).
            rec = ctx.neighbor_public(self.cid)
            mode = rec["mode"]
            if mode == Mode.MERGING:
                target = rec["merge_target"]
                ctx.activate(target)
                if not ctx.is_original(self.cid):
                    ctx.deactivate(self.cid)
                self.cid = target
                self.mode = Mode.WAITING  # refreshed from the new leader at next r0
            elif mode == Mode.TERMINATION:
                for v in list(ctx.neighbors):
                    if v != self.cid:
                        ctx.deactivate(v)
                self.mode = Mode.TERMINATION
        elif pr == 4:
            if self.mode == Mode.TERMINATION:
                self.status = "follower"
                self.halt()

    # ------------------------------------------------------------------
    # leader behaviour
    # ------------------------------------------------------------------

    def _leader_step(self, ctx, inbox, phase: int, pr: int) -> None:
        if pr == 0:
            self._reports = []
            self._act1_edge = None
            self._act1_performed = False
            self._selected = None
            self._jump_target = None
            self._defer_merge = False
            self._foreign_exists = False
        elif pr == 1:
            self._sense(ctx)
            self._revalidate(ctx, phase)
        elif pr == 2:
            for payload in inbox.values():
                if payload and payload[0] == "report":
                    self._reports.extend(payload[1])
            self._leader_act(ctx, phase)
        elif pr == 3:
            self._leader_act2(ctx, phase)
        elif pr == 4:
            self._leader_outcome(ctx, phase)

    def _sense(self, ctx) -> None:
        foreign = []
        cid = self.cid
        uid = self.uid
        for y, rec in ctx.neighbor_publics():
            c = rec["cid"]
            if c != cid:
                foreign.append((c, rec["mode"], y, uid))
        self._foreign = foreign
        if self.is_leader:
            self._foreign_exists = bool(foreign)

    def _revalidate(self, ctx, phase: int) -> None:
        """r1 for merging/pulling leaders: follow a dissolving target."""
        if self.mode == Mode.MERGING:
            rec = ctx.neighbor_public(self.merge_target)
            if not rec["is_leader"]:
                # My target dissolved already: follow its star edge to its
                # new leader instead of merging into a follower.
                self._jump_target = rec["cid"]
                self.parent_link = self.merge_target
                self.merge_target = None
                self.mode = Mode.PULLING
            elif rec["mode"] == Mode.MERGING:
                # My target is itself dissolving: follow it instead of
                # merging into a committee that stops existing this phase.
                self._jump_target = rec["merge_target"]
                self.parent_link = self.merge_target
                self.merge_target = None
                self.mode = Mode.PULLING
        elif self.mode == Mode.PULLING:
            rec = ctx.neighbor_public(self.parent_link)
            if not rec["is_leader"]:
                # My attachment point became a follower (it dissolved the
                # same round I jumped to it): follow it to its leader.
                self._jump_target = rec["cid"]
            elif rec["mode"] == Mode.MERGING:
                self._jump_target = rec["merge_target"]
            elif rec["last_link"] is not None and rec["last_link"][0] == phase - 1:
                self._jump_target = rec["last_link"][1]
            else:
                self._defer_merge = True

    def _leader_act(self, ctx, phase: int) -> None:
        """r2: selection decision + first hop; merging transfer; pulling jump."""
        if self.mode == Mode.SELECTION:
            (target_cid, y, _x), foreign_exists = StarPhaseKernel.select_candidate(
                self.uid, self._foreign + self._reports
            )
            self._foreign_exists = self._foreign_exists or foreign_exists
            if target_cid is not None:
                self._selected = target_cid
                self._act1_edge = y
                if y not in ctx.neighbors:
                    ctx.activate(y)
                    self._act1_performed = True
        elif self.mode == Mode.PULLING and self._jump_target is not None:
            target = self._jump_target
            ctx.activate(target)
            if self.parent_link in ctx.neighbors and not ctx.is_original(self.parent_link):
                ctx.deactivate(self.parent_link)
            self.parent_link = target
            self.target_link = target
            self.last_link = (phase, target)
        elif self.mode == Mode.MERGING:
            # Followers transfer themselves this same round; the leader
            # becomes a follower of the target committee.
            self.cid = self.merge_target
            self.is_leader = False
            self.mode = Mode.WAITING
            self.merge_target = None
            self.target_link = None

    def _leader_act2(self, ctx, phase: int) -> None:
        """r3: leader-to-leader edge, re-targeted through the gateway."""
        if self.mode != Mode.SELECTION or self._selected is None:
            return
        y = self._act1_edge
        rec = ctx.neighbor_public(y)
        target = rec["cid"]  # fresh: follows a merge that happened at r2
        if target != self.uid:
            if target != y:
                ctx.activate(target)
            if (
                self._act1_performed
                and y != target
                and not ctx.is_original(y)
            ):
                ctx.deactivate(y)
            self._selected = target
            self.target_link = target
            self.last_link = (phase, target)

    def _leader_outcome(self, ctx, phase: int) -> None:
        """r4: the phase's mode transition."""
        if self.mode == Mode.SELECTION:
            if self._selected is not None:
                rec = ctx.neighbor_public(self._selected)
                if rec["last_link"] is not None and rec["last_link"][0] == phase:
                    self.mode = Mode.PULLING
                    self.parent_link = self._selected
                else:
                    self.mode = Mode.MERGING
                    self.merge_target = self._selected
            elif self._was_selected(ctx):
                self.mode = Mode.WAITING
            elif not self._foreign_exists:
                self.mode = Mode.TERMINATION
        elif self.mode == Mode.PULLING and self._defer_merge:
            self.mode = Mode.MERGING
            self.merge_target = self.parent_link
            self.parent_link = None
            self.target_link = self.merge_target
        elif self.mode == Mode.WAITING:
            if not self._has_children(ctx):
                if self._foreign_exists:
                    self.mode = Mode.SELECTION
                else:
                    self.mode = Mode.TERMINATION
        elif self.mode == Mode.TERMINATION:
            self.status = "leader"
            self.halt()

    def bulk_next_wake(self, next_round: int, stale: bool):
        # A change to the node's own public record is a wake condition
        # too: private scratch (the sensed ``_foreign`` list) depends on
        # the node's own cid, which can change without any external
        # trigger (a dissolving leader becomes a follower in place).
        if stale or self._public_key != self._bulk_key:
            self._bulk_key = self._public_key
            self._hot_until = next_round + StarPhaseKernel.HOT_WINDOW
        return StarPhaseKernel.next_wake(
            self.is_leader, self.mode, bool(self._foreign), self._hot_until, next_round
        )

    def _was_selected(self, ctx) -> bool:
        return self._has_children(ctx)

    def _has_children(self, ctx) -> bool:
        for _v, rec in ctx.neighbor_publics():
            if (
                rec["cid"] != self.cid
                and rec["is_leader"]
                and rec["target_link"] == self.uid
            ):
                return True
        return False


def run_graph_to_star(graph: nx.Graph, **runner_kwargs) -> RunResult:
    """Execute GraphToStar on any connected initial network."""
    return SynchronousRunner(graph, GraphToStarProgram, **runner_kwargs).run()


def elected_leader(result: RunResult):
    """UID of the node whose final status is leader."""
    leaders = [uid for uid, p in result.programs.items() if p.status == "leader"]
    if len(leaders) != 1:
        raise AssertionError(f"expected exactly one leader, got {leaders}")
    return leaders[0]
