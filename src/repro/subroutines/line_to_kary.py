"""Asynchronous LineTo(Complete)KaryTree — Appendix B of the paper.

Transforms an oriented line into a balanced tree with branching factor
``k`` rooted at the line's "right" endpoint, by repeated grandparent
jumps (doubling), with nodes waking at different rounds.  ``k = 2`` is
LineToCompleteBinaryTree (Proposition 2.2, Lemma B.4); larger ``k`` is
LineToCompletePolylogarithmicTree (Appendix C), used by GraphToThinWreath.

The paper specifies the algorithm through ``EA``/``DEA`` activation
counters and leaves the release of outgrown edges to a line-child "clock".
That clock is unsound under multi-source wake schedules (a fast region's
clock can race past a slow region's lagging jumper), so this
implementation replaces it with an exact hand-off protocol derived from
two structural facts of the doubling process on a line:

* a node ``v``'s *pending* (outgrown) parent edge of epoch ``e`` has
  exactly one potential user — the node ``v - 2^e`` — which, just before
  using it, is ``v``'s child with arrival epoch ``e``;
* arrivals at ``v`` happen in strictly increasing epoch order, each
  enabled by the previous one (the epoch-``e`` arrival jumps through the
  epoch-``e-1`` arrival).

``v`` therefore releases a pending edge only when its unique user has
visibly passed (it holds a pending edge back to ``v``), visibly stopped
(terminated as ``v``'s child), or provably will never come — certified by
a recursive ``ladder_dead`` flag that propagates up the ladder one level
per round from the line's exhausted left end.  A node's epoch counter is
frozen while it is someone's child, which is what makes the bookkeeping
exact.  Jumps are epoch-matched: a node jumps through its parent ``v`` to
``v``'s current parent when their epochs agree, or to ``v``'s pending old
parent when ``v`` has run one epoch ahead.

Rounds follow a three-beat cadence (activate / settle / deactivate); the
extra settling beat makes relayed child counts at most as stale as the
activation slot gap, so no target ever exceeds ``k`` children.  All of
this changes constants relative to the paper's 2-round cadence, never
shapes; the E2 table (``benchmarks/test_e2_line_to_cbt.py``) measures the
constants.
"""

from __future__ import annotations

from typing import Callable

import networkx as nx

from ..engine import NodeProgram, RunResult, SynchronousRunner
from ..errors import ConfigurationError


class AsyncLineToKaryTreeProgram(NodeProgram):
    """One node of the asynchronous Line-to-k-ary-tree subroutine."""

    def __init__(
        self,
        uid,
        line_parent,
        line_child,
        *,
        k: int = 2,
        wake_round: int = 1,
        may_deactivate: Callable | None = None,
    ) -> None:
        super().__init__(uid)
        if k < 2:
            raise ConfigurationError("branching factor k must be >= 2")
        self.k = k
        self.line_parent = line_parent
        self.line_child = line_child
        self.wake_round = wake_round
        self.may_deactivate = may_deactivate

        self.parent = line_parent  # current tree parent (None for the root)
        self.pending = None  # outgrown parent edge awaiting hand-off
        self.ea = 0
        self.dea = 0
        self.awake = False
        self.terminated = False
        self.settled = False
        self.parent_obs: dict | None = None
        self.pending_obs: dict | None = None
        self.child_count = 0
        self.full_final = False
        self.ladder_dead = False
        self.pending_ladder_dead = False
        self._children: list = []
        self._seen_epochs: set = set()
        self._arrivals: dict = {}
        self._obs_pubs: dict | None = None
        self._obs_self = None
        self._obs_fresh = True
        self._quiet = False
        self._public: dict | None = None
        self._refresh_public()

    # ------------------------------------------------------------------

    #: Parked rounds are no-ops: an asleep node does nothing before its
    #: wake round, and a terminated node with no pending edge only reacts
    #: to neighbor-record changes (all tracked wake conditions).
    bulk_sparse = True

    def bulk_next_wake(self, next_round: int, stale: bool):
        if not self.awake:
            return max(next_round, self.wake_round)
        if self.settled:
            return None
        if not self.terminated:
            if self.pending is not None and self.pending_ladder_dead:
                # A releasable outgrown edge commits on the deactivate beat.
                return next_round + (-next_round) % 3
            if self._quiet:
                # The last activate-beat decision was a no-op over inputs
                # that have not moved since (see the certificate kept by
                # :meth:`transition`), so it stays a no-op on every future
                # beat until a tracked wake condition delivers new inputs.
                return None
            # A live jumper acts on the activate beat (and the deactivate
            # beat while holding an outgrown edge); between beats only a
            # neighbor-record change matters, and that is a tracked wake.
            nxt = next_round + (1 - next_round) % 3
            if self.pending is not None:
                nxt = min(nxt, next_round + (-next_round) % 3)
            return nxt
        if self.pending is not None and self.pending_ladder_dead:
            return next_round + (-next_round) % 3
        # Terminated with nothing releasable: wait for neighbors.
        return None

    def _refresh_public(self) -> None:
        pub = self._public
        if (
            pub is not None
            and pub["awake"] == self.awake
            and pub["ea"] == self.ea
            and pub["dea"] == self.dea
            and pub["parent"] == self.parent
            and pub["pending"] == self.pending
            and pub["terminated"] == self.terminated
            and pub["settled"] == self.settled
            and pub["child_count"] == self.child_count
            and pub["full_final"] == self.full_final
            and pub["parent_obs"] == self.parent_obs
            and pub["pending_obs"] == self.pending_obs
            and pub["ladder_dead"] == self.ladder_dead
            and pub["pending_ladder_dead"] == self.pending_ladder_dead
        ):
            return
        self._public = {
            "awake": self.awake,
            "ea": self.ea,
            "dea": self.dea,
            "parent": self.parent,
            "pending": self.pending,
            "terminated": self.terminated,
            "settled": self.settled,
            "child_count": self.child_count,
            "full_final": self.full_final,
            "parent_obs": self.parent_obs,
            "pending_obs": self.pending_obs,
            "ladder_dead": self.ladder_dead,
            "pending_ladder_dead": self.pending_ladder_dead,
        }

    def public(self) -> dict:
        return self._public

    # ------------------------------------------------------------------

    def _observe(self, ctx) -> dict:
        """Refresh arrival bookkeeping and observations from fresh publics.

        Neighbor records rebind only when their contents change, so when
        every record is the *same object* as last time and none of my own
        inputs moved, last round's observations are still exact and the
        recomputation is skipped.
        """
        prev = self._obs_pubs
        own = (self.parent, self.pending, self.ea, self.dea, self.settled)
        pairs = ctx.neighbor_publics()
        if prev is not None and own == self._obs_self and len(prev) == len(pairs):
            prev_get = prev.get
            for v, pub in pairs:
                if prev_get(v) is not pub:
                    break
            else:
                self._obs_fresh = False
                return prev
        publics = dict(pairs)
        self._obs_fresh = True
        self._obs_pubs = publics
        self._obs_self = own

        uid = self.uid
        children = []
        arrivals: dict = {}
        for w, pub in pairs:
            if pub["parent"] == uid:
                children.append(w)
                arrivals[pub["ea"]] = (w, pub, "child")
            elif pub["pending"] == uid:
                arrivals[pub["dea"]] = (w, pub, "passed")
        self._children = children
        self._arrivals = arrivals
        self._seen_epochs.update(arrivals)
        self.child_count = len(children)
        terminated_children = sum(1 for w in children if publics[w]["terminated"])
        if terminated_children >= self.k:
            self.full_final = True

        if self.parent is not None and self.parent in publics:
            p = publics[self.parent]
            self.parent_obs = {
                "uid": self.parent,
                "count": p["child_count"],
                "full_final": p["full_final"],
                "awake": p["awake"],
            }
        if self.pending is not None and self.pending in publics:
            p = publics[self.pending]
            self.pending_obs = {
                "uid": self.pending,
                "count": p["child_count"],
                "full_final": p["full_final"],
                "awake": p["awake"],
            }

        self.ladder_dead = self.settled or self._user_done(self.ea)
        self.pending_ladder_dead = self.pending is None or self._user_done(self.dea)
        return publics

    def _user_done(self, epoch: int) -> bool:
        """Has the unique epoch-``epoch`` jumper through me passed or died?

        The jumper is the node ``uid - 2^epoch``: before jumping through me
        it is my child with arrival epoch ``epoch`` (a child's epoch is
        frozen while it is my child, so arrival epochs are exact).
        """
        if self.line_child is None:
            return True  # left endpoint: no users, ever
        entry = self._arrivals.get(epoch)
        if entry is not None:
            _, pub, kind = entry
            if kind == "passed":
                return True  # jumped through me and holds the old edge
            return bool(pub["terminated"])  # stopped here, or still live
        if epoch in self._seen_epochs:
            return True  # arrived, passed, and already released its edge
        # Never arrived: it would come through the latest arrival (the
        # conduit).  If the conduit's own ladder is dead, or the conduit
        # passed and released (which requires *its* user to be done), no
        # further arrival can ever reach me.
        earlier = [j for j in self._seen_epochs if j < epoch]
        if not earlier:
            return False  # no information yet: hold conservatively
        conduit = max(earlier)
        entry = self._arrivals.get(conduit)
        if entry is None:
            return True  # conduit released its edge: its user was done
        _, pub, kind = entry
        if kind == "passed":
            return bool(pub["pending_ladder_dead"])
        return bool(pub["ladder_dead"])

    def _maybe_settle(self, publics: dict) -> None:
        if not self.terminated or self.pending is not None:
            return
        # A neighbor that still holds a pending (outgrown) edge to me may
        # yet route an arrival through it; my subtree is not final until
        # every such edge is released.
        for p in publics.values():
            if p.get("pending") == self.uid:
                return
        if all(publics[c]["settled"] for c in self._children):
            self.settled = True
            self.ladder_dead = True
            self._refresh_public()
            self.halt()

    # ------------------------------------------------------------------

    def transition(self, ctx, inbox) -> None:
        if not self.awake:
            if ctx.round >= self.wake_round:
                self.awake = True
            else:
                self._refresh_public()
                return

        pre = (self.ea, self.dea, self.pending, self.terminated, self.settled)
        publics = self._observe(ctx)

        if self.parent is None and not self.terminated:
            # The root is in its final position from the start.
            self.terminated = True

        # Three-beat cadence: activations in rounds ≡ 1, deactivations in
        # rounds ≡ 0 (mod 3), with an information-settling round between.
        if not self.terminated and ctx.round % 3 == 1:
            self._activate_step(ctx, publics)
        if ctx.round % 3 == 0:
            self._deactivate_step(ctx)

        self._maybe_settle(publics)
        # Quiet certificate for the sparse scheduler: an activate beat
        # whose decision changed nothing stays a no-op as long as every
        # input it read keeps its value, and all of those inputs (own
        # state, neighbor records, adjacency) are covered by tracked wake
        # conditions.  Off-beat runs keep the certificate only when the
        # observation memo proves the inputs did not move.
        if (self.ea, self.dea, self.pending, self.terminated, self.settled) != pre:
            self._quiet = False
        elif ctx.round % 3 == 1:
            self._quiet = True
        elif self._obs_fresh:
            self._quiet = False
        self._refresh_public()

    # ------------------------------------------------------------------

    def _activate_step(self, ctx, publics: dict) -> None:
        v = self.parent
        if v is None or v not in publics:
            return
        v_pub = publics[v]
        if not v_pub["awake"]:
            return

        if v_pub["terminated"]:
            if v_pub["parent"] is None:
                # My parent is the root: final position reached.
                self.terminated = True
                return
            if v_pub["ea"] != self.ea:
                # v froze at a different epoch; my epoch's grandparent can
                # never materialize, so this is my final position.
                self.terminated = True
                return
            target = v_pub["parent"]
            target_obs = v_pub["parent_obs"]
        elif v_pub["ea"] == self.ea:
            # Epoch-matched grandparent: v's current parent.
            target = v_pub["parent"]
            if target is None:
                self.terminated = True
                return
            target_obs = v_pub["parent_obs"]
        elif v_pub["ea"] == self.ea + 1 and v_pub["pending"] is not None:
            # v ran one epoch ahead: my epoch's grandparent is v's pending
            # old parent, whose edge v is holding for me.
            target = v_pub["pending"]
            target_obs = v_pub["pending_obs"]
        else:
            return

        if target_obs is None or target_obs["uid"] != target:
            return
        if target_obs["full_final"]:
            # My grandparent permanently holds k terminated children:
            # this is my final position (paper's termination criterion).
            self.terminated = True
            return
        if self.pending is not None:
            return  # DEA must equal EA before the next jump
        if not target_obs["awake"]:
            return
        if target_obs["count"] >= self.k:
            return

        ctx.activate(target)
        self.pending = v
        self.pending_obs = self.parent_obs
        self.parent = target
        self.parent_obs = target_obs
        self.ea += 1

    def _deactivate_step(self, ctx) -> None:
        if self.pending is None or not self.pending_ladder_dead:
            return
        if self.may_deactivate is None or self.may_deactivate(self.uid, self.pending):
            ctx.deactivate(self.pending)
        self.dea += 1
        self.pending = None
        self.pending_obs = None
        self.pending_ladder_dead = False


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def line_order_from_graph(line: nx.Graph, root) -> list:
    """Node order along a path graph ending at ``root``."""
    n = line.number_of_nodes()
    if line.number_of_edges() != n - 1:
        raise ConfigurationError("input is not a path graph")
    degrees = dict(line.degree())
    if n > 1 and degrees[root] != 1:
        raise ConfigurationError("root must be an endpoint of the line")
    order = [root]
    prev = None
    cur = root
    while len(order) < n:
        nxts = [v for v in line.neighbors(cur) if v != prev]
        if len(nxts) != 1:
            raise ConfigurationError("input is not a path graph")
        prev, cur = cur, nxts[0]
        order.append(cur)
    return list(reversed(order))  # left endpoint first, root last


def run_line_to_kary_tree(
    line: nx.Graph,
    root,
    *,
    k: int = 2,
    wake_rounds: dict | None = None,
    **runner_kwargs,
) -> RunResult:
    """Run the subroutine on a path graph rooted at endpoint ``root``.

    ``wake_rounds`` maps uid -> first awake round (default: all awake in
    round 1, i.e. the synchronous algorithm).  Wake schedules should be
    contiguous (adjacent wake times differing by at most one round), as
    produced by the wreath algorithms' propagated wake messages.
    """
    order = line_order_from_graph(line, root)
    line_parent = {u: v for u, v in zip(order, order[1:])}
    line_child = {v: u for u, v in zip(order, order[1:])}
    wake = wake_rounds or {}

    def factory(uid):
        return AsyncLineToKaryTreeProgram(
            uid,
            line_parent.get(uid),
            line_child.get(uid),
            k=k,
            wake_round=wake.get(uid, 1),
        )

    return SynchronousRunner(line, factory, **runner_kwargs).run()


def run_line_to_cbt(line: nx.Graph, root, **kwargs) -> RunResult:
    """LineToCompleteBinaryTree (Proposition 2.2): the ``k = 2`` case."""
    return run_line_to_kary_tree(line, root, k=2, **kwargs)


def final_parent_map(result: RunResult) -> dict:
    """Extract the final tree as ``{uid: parent_uid or None}``."""
    return {uid: prog.parent for uid, prog in result.programs.items()}
