"""Token dissemination (Section 2.2).

Every node starts with a unique token (its UID, w.l.o.g. per the paper)
and must learn every other node's token.  The flooding program below
works on any static network by broadcasting newly learned tokens each
round; on a diameter-``d`` network it needs ``Θ(d)`` rounds, which is
exactly why the paper first reconfigures to (poly)log diameter.

Flooding is the package's reference *array kernel* (PR 6): the per-node
logic is identical at every node in every round — receive fresh tokens,
merge, halt when everyone around is complete — so the whole population's
round is one bulk operation over bitset rows.  :class:`FloodPhaseKernel`
declares that operation; :class:`FloodTokensProgram` stays the per-node
source of truth and the two are held to identical executions by the
cross-backend differential harness and a hypothesis agreement test.
"""

from __future__ import annotations

import networkx as nx

from ..engine import NodeProgram, PhaseKernel, RunResult, SynchronousRunner
from ..errors import ConfigurationError


class FloodPhaseKernel(PhaseKernel):
    """Whole-round bulk semantics of UID flooding, on packed bitsets.

    Token sets are rows of a ``(n, ceil(n/64))`` uint64 matrix indexed by
    interned node index (token of uid ``u`` = bit ``idx_of[u]``).  One
    round is: OR the fresh rows of live senders over the static adjacency
    (the message pass), mask off already-known bits (the merge), popcount
    (the public ``count``), and compare the *start-of-round* neighbor
    counts against ``n`` (the halting rule).  ``accepts`` caps ``n`` so
    the ``n**2``-bit state stays small; beyond the cap the per-node
    wrappers run unchanged.
    """

    #: Memory cap: three (n, n/64) uint64 matrices at n=16384 are ~96 MB.
    MAX_N = 1 << 14

    state_fields = (
        ("bits", "uint64[n, n/64]", "token bitset row per node"),
        ("fresh", "uint64[n, n/64]", "tokens first learned last round"),
        ("counts", "int64[n]", "popcount(bits): the public record"),
        ("halted", "bool[n]", "node has terminated"),
    )

    def accepts(self, runner) -> bool:
        return runner.knows_n and runner.network.n <= self.MAX_N

    def init_state(self, runner):
        import numpy as np

        from ..engine.edge_keys import MASK, SHIFT

        net = runner.network
        n = net.n
        words = (n + 63) >> 6
        rows = np.arange(n)
        bits = np.zeros((n, words), dtype=np.uint64)
        bits[rows, rows >> 6] = np.uint64(1) << (rows & 63).astype(np.uint64)
        # Static adjacency in CSR form over interned indices: the
        # network's sorted directed key array (index space; a fresh
        # network's arrays lead) is that form already.
        dirs = net._state.dirs
        indptr = np.searchsorted(dirs, np.arange(n + 1, dtype=np.int64) << SHIFT)
        indices = dirs & MASK
        return {
            "n": n,
            "net": net,
            "uid_of": list(net._uid_of),
            "bits": bits,
            "fresh": bits.copy(),
            "counts": np.ones(n, dtype=np.int64),
            "halted": np.zeros(n, dtype=bool),
            "indptr": indptr,
            "indices": indices,
        }

    @staticmethod
    def step_arrays(state) -> "list[int]":
        """One flooding round as pure array ops; returns newly halted
        *indices*.  Mirrors ``FloodTokensProgram.compose``/``transition``
        exactly: live nodes with fresh tokens send, receivers merge, and
        a live node halts when it is complete, learned nothing new, and
        every neighbor's start-of-round count is already ``n``."""
        import numpy as np

        n = state["n"]
        bits = state["bits"]
        fresh = state["fresh"]
        counts = state["counts"]
        halted = state["halted"]
        indptr = state["indptr"]
        indices = state["indices"]
        live = ~halted

        if len(indices):
            src = np.where((live & fresh.any(axis=1))[:, None], fresh, np.uint64(0))
            fresh_in = np.bitwise_or.reduceat(src[indices], indptr[:-1], axis=0)
            neigh_min = np.minimum.reduceat(counts[indices], indptr[:-1])
        else:  # single node: no messages, the halting rule is vacuous
            fresh_in = np.zeros_like(fresh)
            neigh_min = np.full(n, n, dtype=np.int64)

        new = fresh_in & ~bits
        new[halted] = np.uint64(0)
        done = live & (counts == n) & ~new.any(axis=1) & (neigh_min == n)
        bits |= new
        counts[:] = np.bitwise_count(bits).sum(axis=1)
        state["fresh"] = new
        halted[done] = True
        return np.nonzero(done)[0].tolist()

    def step_round(self, state, round_no: int) -> list:
        uid_of = state["uid_of"]
        return [uid_of[i] for i in self.step_arrays(state)]

    def materialize(self, state, uid, prog) -> None:
        i = state["net"]._idx_of[uid]
        if state["counts"][i] == state["n"]:
            # Every complete row holds all n tokens: one shared immutable
            # set materializes the O(n^2) bits of a finished run in O(n).
            everything = state.get("everything")
            if everything is None:
                everything = state["everything"] = frozenset(state["uid_of"])
            prog.tokens = everything
        else:
            prog.tokens = self._row_uids(state, state["bits"][i])
        prog._fresh = self._row_uids(state, state["fresh"][i])
        if state["halted"][i] and not prog.halted:
            prog.halt()

    @staticmethod
    def _row_uids(state, words) -> set:
        """The uids whose bits are set in one bitset row."""
        import numpy as np

        if not words.any():
            return set()
        uid_of = state["uid_of"]
        bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
        return {uid_of[j] for j in np.flatnonzero(bits).tolist()}


class FloodTokensProgram(NodeProgram):
    """Broadcast newly learned tokens to all neighbors every round.

    Termination: with ``knows_n`` every node halts once it holds ``n``
    tokens *and* all neighbors do too (so late neighbors still receive
    what they are missing).
    """

    phase_kernel = FloodPhaseKernel()

    #: Parked rounds are no-ops: with no fresh tokens the node sends
    #: nothing and acts on nothing, and every halting input (a message,
    #: a neighbor's count) is a tracked wake condition.
    bulk_sparse = True

    def __init__(self, uid) -> None:
        super().__init__(uid)
        self.tokens = {uid}
        self._fresh = {uid}
        self._public = {"count": 1}

    def public(self) -> dict:
        count = len(self.tokens)
        if self._public["count"] != count:
            self._public = {"count": count}
        return self._public

    def compose(self, ctx) -> dict | None:
        if not self._fresh:
            return None
        payload = frozenset(self._fresh)
        return {v: payload for v in ctx.neighbors}

    def transition(self, ctx, inbox) -> None:
        if ctx.n is None:
            raise ConfigurationError("token dissemination requires knows_n=True")
        self._fresh = set()
        for payload in inbox.values():
            self._fresh.update(payload - self.tokens)
        self.tokens.update(self._fresh)
        if len(self.tokens) == ctx.n and not self._fresh:
            if all(
                ctx.neighbor_public(v)["count"] == ctx.n for v in ctx.neighbors
            ):
                self.halt()

    def bulk_next_wake(self, next_round: int, stale: bool):
        # Fresh tokens must be sent (and cleared) next round; otherwise
        # nothing happens until a message or a neighbor count arrives.
        return next_round if self._fresh else None


def run_token_dissemination(graph: nx.Graph, **kwargs) -> RunResult:
    """Flood tokens over a static network until everyone has all of them."""
    kwargs.setdefault("knows_n", True)
    return SynchronousRunner(graph, FloodTokensProgram, **kwargs).run()


def is_dissemination_complete(result: RunResult) -> bool:
    n = len(result.programs)
    return all(len(p.tokens) == n for p in result.programs.values())
