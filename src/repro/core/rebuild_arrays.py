"""Array-form execution of the wreath REBUILD segment (bulk backend).

GraphToWreath is barrier-synchronized, so its rounds can never collapse
into the whole-run array path the star and flooding kernels take.  But
the REBUILD segment — the run's dominant cost — has a special shape:
from its third round until every participant settles, the only per-node
work is the embedded ``AsyncLineToKaryTreeProgram`` transitions, there
are no wreath-level messages in flight, and every observation the
embedded program makes reduces to reading the *previous round's* public
record of a graph neighbor that is itself a participant.  That makes the
whole fleet's round a pure function of flat arrays:

* children / arrivals are inverse maps of the ``parent[]``/``pending[]``
  arrays (a child's or passer's edge is held active until released, so
  the inverse map and the neighborhood scan agree exactly);
* ``parent_obs``/``pending_obs`` refreshes are gathers through those
  arrays into the previous round's ``child_count``/``full_final``;
* the ``_user_done`` ladder certificate is a bitmask probe (arrival
  epochs fit a 63-bit mask) plus one conduit gather;
* jumps and releases are mask-selected scatters, with the raw action
  requests emitted per actor in slot order, exactly as per-node rounds
  emit them.

Per-node programs memoize observations and park when quiet; both are
pure skip optimizations, so the full-width eager recompute here is
value-identical to the per-node semantics (the reference backend,
which recomputes everything every round, is the oracle).  Within a round,
nodes are independent — public rebinds are staged and actions applied
after the loop — so phase-parallel evaluation from a start-of-round
snapshot is exact.  The cross-backend differential corpus holds this
path to byte-identical traces and equal metrics.

The simulation is armed once per phase by
:meth:`WreathSpliceKernel.assist_round` and steps one round per
``_run_round`` call, preserving the runner's round-limit semantics; when
the last participant settles it scatters the final state back into the
program objects and fires the engine barrier.
"""

from __future__ import annotations

import numpy as np

from ..errors import ProtocolViolation

#: Arrival epochs are kept in an int64 bitmask and the conduit probe
#: takes an exact float64 log2, so epoch masks must stay below 2**53;
#: epochs reach at most ``log2 n + O(1)``, so this is never binding.
_MAX_EPOCH = 52
#: The bits of epochs ``0.._MAX_EPOCH``.
_EPOCHS = (1 << (_MAX_EPOCH + 1)) - 1


def try_arm(runner):
    """Build a :class:`RebuildSim` for the runner's current REBUILD, or
    return None when any precondition fails (the per-node path is always
    correct, so declining is free)."""
    progs = runner._progs
    start = progs[0]._seg_start_round
    parts = []
    for i, p in enumerate(progs):
        if (
            p.segment != 7
            or p._seg_start_round != start
            or p._outbox
            or p._halt_at is not None
        ):
            return None
        if p._participating:
            emb = p._embedded
            if emb is None or not emb.awake:
                return None
            parts.append(i)
        elif not p.barrier_ready:
            return None
    if not parts:
        return None
    try:
        return RebuildSim(runner, parts)
    except _Decline:
        return None


class _Decline(Exception):
    """Raised during gather when a precondition fails; arming declines."""


class RebuildSim:
    """One phase's rebuild, simulated round by round in array form."""

    def __init__(self, runner, part_slots) -> None:
        self.epoch = runner.barrier_epoch
        self.next_round = runner.network.round
        progs = runner._progs
        self.wreaths = [progs[i] for i in part_slots]
        embs = [p._embedded for p in self.wreaths]
        self.embs = embs
        P = len(embs)
        uids = [e.uid for e in embs]
        self.uids = uids
        idx_of = {u: i for i, u in enumerate(uids)}
        k = embs[0].k
        if any(e.k != k for e in embs):
            raise _Decline
        self.k = k

        def ref(u):
            if u is None:
                return -1
            j = idx_of.get(u)
            if j is None:
                raise _Decline
            return j

        i64 = np.int64
        self.parent = np.fromiter((ref(e.parent) for e in embs), i64, P)
        self.pending = np.fromiter((ref(e.pending) for e in embs), i64, P)
        self.ea = np.fromiter((e.ea for e in embs), i64, P)
        self.dea = np.fromiter((e.dea for e in embs), i64, P)
        self.term = np.fromiter((e.terminated for e in embs), bool, P)
        self.settled = np.fromiter((e.settled for e in embs), bool, P)
        self.ld = np.fromiter((e.ladder_dead for e in embs), bool, P)
        self.pld = np.fromiter((e.pending_ladder_dead for e in embs), bool, P)
        self.cc = np.fromiter((e.child_count for e in embs), i64, P)
        self.ff = np.fromiter((e.full_final for e in embs), bool, P)
        self.lc_none = np.fromiter((e.line_child is None for e in embs), bool, P)
        seen = np.zeros(P, dtype=i64)
        for i, e in enumerate(embs):
            for ep in e._seen_epochs:
                if ep > _MAX_EPOCH:
                    raise _Decline
                seen[i] |= np.int64(1) << np.int64(ep)
        self.seen = seen

        def obs_arrays(getter):
            valid = np.zeros(P, dtype=bool)
            ouid = np.full(P, -1, dtype=i64)
            cnt = np.zeros(P, dtype=i64)
            off = np.zeros(P, dtype=bool)
            awk = np.zeros(P, dtype=bool)
            for i, e in enumerate(embs):
                o = getter(e)
                if o is not None:
                    valid[i] = True
                    ouid[i] = ref(o["uid"])
                    cnt[i] = o["count"]
                    off[i] = o["full_final"]
                    awk[i] = o["awake"]
            return [valid, ouid, cnt, off, awk]

        self.po = obs_arrays(lambda e: e.parent_obs)
        self.qo = obs_arrays(lambda e: e.pending_obs)

        # may_deactivate inputs (wreath-level, per participant).
        self.ring_next = [w.ring_next for w in self.wreaths]
        self.ring_prev = [w.ring_prev for w in self.wreaths]
        self.orig = [w._orig_neighbors for w in self.wreaths]

    # ------------------------------------------------------------------

    def step_round(self, runner, recorder, observers) -> None:
        """Execute one whole rebuild round; fires the barrier when the
        last participant settles."""
        net = runner.network
        round_no = net.round
        self.next_round = round_no + 1
        if observers is not None:
            for obs in observers:
                obs.on_round_start(round_no)

        actions = runner._actions
        actions.clear()
        self._sim_round(round_no, actions)

        activations, deactivations = runner._commit_round(recorder, observers)

        barrier_wakes = 0
        if self.settled.all():
            self._scatter(runner)
            barrier_wakes = runner._barrier_block(round_no + 1)
            runner._wreath_assist = None

        # Profiled runs keep the assist engaged: simulated rounds report
        # under their own dispatch label so telemetry's per-phase rows
        # describe the execution that actually ran.
        if runner._probe is not None:
            runner._probe.probe_round(
                round_no, live=len(runner._live), due=len(self.uids),
                dispatch="assist", acts=len(activations),
                deacts=len(deactivations), barrier_wakes=barrier_wakes,
            )

    # ------------------------------------------------------------------

    def _sim_round(self, round_no, actions) -> None:
        P = len(self.uids)
        idx = np.arange(P)
        parent, pending = self.parent, self.pending
        ea, dea = self.ea, self.dea
        term, settled = self.term, self.settled

        # Start-of-round snapshot: what every public record showed.
        p_parent = parent.copy()
        p_pending = pending.copy()
        p_ea = ea.copy()
        p_dea = dea.copy()
        p_term = term.copy()
        p_settled = settled.copy()
        p_ld = self.ld.copy()
        p_pld = self.pld.copy()
        p_cc = self.cc.copy()
        p_ff = self.ff.copy()
        p_po = [a.copy() for a in self.po]
        p_qo = [a.copy() for a in self.qo]

        # -- OBSERVE ----------------------------------------------------
        has_par = p_parent >= 0
        has_pen = p_pending >= 0
        cc = np.bincount(p_parent[has_par], minlength=P)
        tc = np.bincount(p_parent[has_par & p_term], minlength=P)
        self.cc = cc
        ff = self.ff
        ff |= tc >= self.k

        W = int(p_ea.max()) + 1 if P else 1
        if W > _MAX_EPOCH:
            raise ProtocolViolation("rebuild epoch overflow")  # pragma: no cover
        arr_kind = np.zeros((P, W), dtype=np.int8)
        arr_w = np.zeros((P, W), dtype=np.int64)
        w_pen = idx[has_pen]
        arr_kind[p_pending[w_pen], p_dea[w_pen]] = 2
        arr_w[p_pending[w_pen], p_dea[w_pen]] = w_pen
        w_par = idx[has_par]
        arr_kind[p_parent[w_par], p_ea[w_par]] = 1
        arr_w[p_parent[w_par], p_ea[w_par]] = w_par
        seen = self.seen
        one = np.int64(1)
        np.bitwise_or.at(seen, p_pending[w_pen], one << p_dea[w_pen])
        np.bitwise_or.at(seen, p_parent[w_par], one << p_ea[w_par])

        po_valid, po_uid, po_cnt, po_ff, po_awk = self.po
        m = parent >= 0
        pv = parent[m]
        po_valid[m] = True
        po_uid[m] = pv
        po_cnt[m] = p_cc[pv]
        po_ff[m] = p_ff[pv]
        po_awk[m] = True
        qo_valid, qo_uid, qo_cnt, qo_ff, qo_awk = self.qo
        m = pending >= 0
        qv = pending[m]
        qo_valid[m] = True
        qo_uid[m] = qv
        qo_cnt[m] = p_cc[qv]
        qo_ff[m] = p_ff[qv]
        qo_awk[m] = True

        def user_done(e):
            k_at = arr_kind[idx, e]
            w_at = arr_w[idx, e]
            seen_bit = ((seen >> e) & one) != 0
            earlier = seen & ((one << e) - one)
            has_earlier = earlier != 0
            conduit = np.zeros(P, dtype=np.int64)
            he = idx[has_earlier]
            if len(he):
                conduit[he] = np.log2(earlier[he].astype(np.float64)).astype(np.int64)
            ck = arr_kind[idx, conduit]
            cw = arr_w[idx, conduit]
            dflt = np.where(ck == 0, True, np.where(ck == 2, p_pld[cw], p_ld[cw]))
            res = np.where(
                k_at == 2,
                True,
                np.where(
                    k_at == 1,
                    p_term[w_at],
                    np.where(seen_bit, True, np.where(has_earlier, dflt, False)),
                ),
            )
            return res | self.lc_none

        self.ld = settled | user_done(ea)
        self.pld = np.where(pending >= 0, user_done(dea), True)

        # -- root termination -------------------------------------------
        term |= parent < 0

        # -- ACTIVATE beat ----------------------------------------------
        if round_no % 3 == 1:
            live = ~term
            v = np.where(live, parent, 0)  # live ⟹ parent >= 0
            vA = p_term[v]
            ep_eq = p_ea[v] == ea
            new_term = live & vA & ((p_parent[v] < 0) | ~ep_eq)
            candA = live & vA & (p_parent[v] >= 0) & ep_eq
            new_term |= live & ~vA & ep_eq & (p_parent[v] < 0)
            candB = live & ~vA & ep_eq & (p_parent[v] >= 0)
            candC = live & ~vA & (p_ea[v] == ea + 1) & (p_pending[v] >= 0)
            cand = candA | candB | candC
            target = np.where(candC, p_pending[v], p_parent[v])
            t_valid = np.where(candC, p_qo[0][v], p_po[0][v])
            t_uid = np.where(candC, p_qo[1][v], p_po[1][v])
            t_cnt = np.where(candC, p_qo[2][v], p_po[2][v])
            t_ff = np.where(candC, p_qo[3][v], p_po[3][v])
            t_awk = np.where(candC, p_qo[4][v], p_po[4][v])
            cand &= t_valid & (t_uid == target)
            new_term |= cand & t_ff
            jump = cand & ~t_ff & (pending < 0) & t_awk & (t_cnt < self.k)
            term |= new_term
            if jump.any():
                uids = self.uids
                app = actions.activations.append
                for i in np.nonzero(jump)[0].tolist():
                    u = uids[i]
                    app((u, u, uids[target[i]]))
                pending[jump] = v[jump]
                for qa, pa in zip(self.qo, self.po):
                    qa[jump] = pa[jump]
                parent[jump] = target[jump]
                po_valid[jump] = True
                po_uid[jump] = target[jump]
                po_cnt[jump] = t_cnt[jump]
                po_ff[jump] = t_ff[jump]
                po_awk[jump] = t_awk[jump]
                ea[jump] += 1

        # -- DEACTIVATE beat --------------------------------------------
        elif round_no % 3 == 0:
            rel = (pending >= 0) & self.pld
            if rel.any():
                uids = self.uids
                ring_next, ring_prev, orig = self.ring_next, self.ring_prev, self.orig
                app = actions.deactivations.append
                for i in np.nonzero(rel)[0].tolist():
                    u = uids[i]
                    t = uids[pending[i]]
                    if t != ring_next[i] and t != ring_prev[i] and t not in orig[i]:
                        app((u, u, t))
                dea[rel] += 1
                pending[rel] = -1
                qo_valid[rel] = False
                self.pld[rel] = False

        # -- MAYBE_SETTLE ------------------------------------------------
        pend_in = np.bincount(p_pending[has_pen], minlength=P)
        sc = np.bincount(p_parent[has_par & p_settled], minlength=P)
        newly = term & (pending < 0) & ~settled & (pend_in == 0) & (sc == cc)
        settled |= newly
        self.ld |= newly

    # ------------------------------------------------------------------

    def _scatter(self, runner) -> None:
        """Write the final state back into the program objects and mark
        every participant barrier-ready (the engine barrier fires next)."""
        uids = self.uids
        # Each column is read once, as Python ints and bools.
        parent, pending, ea, dea, term, settled, cc, ff, ld, pld, seen = (
            a.tolist()
            for a in (
                self.parent, self.pending, self.ea, self.dea, self.term,
                self.settled, self.cc, self.ff, self.ld, self.pld, self.seen,
            )
        )
        children: list = [[] for _ in uids]
        for i, p in enumerate(parent):
            if p >= 0:
                children[p].append(uids[i])
        po_valid, po_uid, po_cnt, po_ff, po_awk = (a.tolist() for a in self.po)
        qo_valid, qo_uid, qo_cnt, qo_ff, qo_awk = (a.tolist() for a in self.qo)
        for i, (wr, emb) in enumerate(zip(self.wreaths, self.embs)):
            pi = parent[i]
            emb.parent = uids[pi] if pi >= 0 else None
            qi = pending[i]
            emb.pending = uids[qi] if qi >= 0 else None
            emb.ea = ea[i]
            emb.dea = dea[i]
            emb.awake = True
            emb.terminated = term[i]
            emb.settled = settled[i]
            emb.child_count = cc[i]
            emb.full_final = ff[i]
            emb.ladder_dead = ld[i]
            emb.pending_ladder_dead = pld[i]
            emb.parent_obs = (
                {
                    "uid": uids[po_uid[i]],
                    "count": po_cnt[i],
                    "full_final": po_ff[i],
                    "awake": po_awk[i],
                }
                if po_valid[i]
                else None
            )
            emb.pending_obs = (
                {
                    "uid": uids[qo_uid[i]],
                    "count": qo_cnt[i],
                    "full_final": qo_ff[i],
                    "awake": qo_awk[i],
                }
                if qo_valid[i]
                else None
            )
            emb._children = children[i]
            # The set bits of epochs 0.._MAX_EPOCH, lowest first.
            bits = seen[i] & _EPOCHS
            epochs = set()
            while bits:
                low = bits & -bits
                epochs.add(low.bit_length() - 1)
                bits ^= low
            emb._seen_epochs = epochs
            emb._arrivals = {}
            emb._obs_pubs = None
            emb._obs_self = None
            emb._obs_fresh = True
            emb._quiet = False
            emb.halted = True
            emb._refresh_public()
            wr.barrier_ready = True
            wr._refresh_public()
