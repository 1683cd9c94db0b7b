"""The paper's edge-complexity measures (Section 2.2).

* **total edge activations** — ``sum_i |E_ac(i)|``
* **maximum activated edges** — ``max_i |E(i) \\ E(1)|``
* **maximum activated degree** — ``max_i deg(D(i) \\ D(1))``

The recorder is fed the effective activation/deactivation sets of every
round — as uid-pair sets, or on the bulk kernel path as sorted packed
keys (:meth:`MetricsRecorder.record_keys`) — and maintains the
activated-only subgraph incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import Network


@dataclass
class Metrics:
    """Aggregated measurements of one execution.

    Dataclass equality compares every field — including the per-round
    activation series and the adversary counters — which makes ``==``
    the cross-backend differential oracle's second channel alongside
    byte-identical traces (DESIGN.md, "Engine backends").
    """

    rounds: int = 0
    total_activations: int = 0
    total_deactivations: int = 0
    max_activated_edges: int = 0
    max_activated_degree: int = 0
    max_activations_per_round: int = 0
    max_activations_per_node_round: int = 0
    per_round_activations: list = field(default_factory=list)
    # External (adversarial) events — see repro.dynamics.  Kept separate
    # from the paper's measures: adversary wiring is never algorithm cost.
    adversary_events: int = 0
    adversary_edge_drops: int = 0
    adversary_edge_adds: int = 0
    adversary_crashes: int = 0
    adversary_joins: int = 0

    def as_dict(self) -> dict:
        base = {
            "rounds": self.rounds,
            "total_activations": self.total_activations,
            "total_deactivations": self.total_deactivations,
            "max_activated_edges": self.max_activated_edges,
            "max_activated_degree": self.max_activated_degree,
            "max_activations_per_round": self.max_activations_per_round,
            "max_activations_per_node_round": self.max_activations_per_node_round,
        }
        if self.adversary_events:
            base.update(
                adversary_events=self.adversary_events,
                adversary_edge_drops=self.adversary_edge_drops,
                adversary_edge_adds=self.adversary_edge_adds,
                adversary_crashes=self.adversary_crashes,
                adversary_joins=self.adversary_joins,
            )
        return base


def aggregate_metrics(parts) -> Metrics:
    """Fold per-episode/per-stage :class:`Metrics` into one summary:
    totals (including adversary counters) are summed, watermarks are
    maxed, and the per-round activation series are concatenated in
    order.  Used by self-healing episodes and composition pipelines."""
    total = Metrics()
    for m in parts:
        total.rounds += m.rounds
        total.total_activations += m.total_activations
        total.total_deactivations += m.total_deactivations
        total.max_activated_edges = max(total.max_activated_edges, m.max_activated_edges)
        total.max_activated_degree = max(
            total.max_activated_degree, m.max_activated_degree
        )
        total.max_activations_per_round = max(
            total.max_activations_per_round, m.max_activations_per_round
        )
        total.max_activations_per_node_round = max(
            total.max_activations_per_node_round, m.max_activations_per_node_round
        )
        total.per_round_activations.extend(m.per_round_activations)
        total.adversary_events += m.adversary_events
        total.adversary_edge_drops += m.adversary_edge_drops
        total.adversary_edge_adds += m.adversary_edge_adds
        total.adversary_crashes += m.adversary_crashes
        total.adversary_joins += m.adversary_joins
    return total


class MetricsRecorder:
    """Incrementally tracks the activated-only subgraph ``D(i) \\ D(1)``."""

    def __init__(self, network: Network) -> None:
        self._network = network
        #: ``E(1)`` as uid edge keys, read on first need (the per-edge
        #: rounds and strikes; array rounds never read it).
        self._original = None
        self._activated_now: set = set(network.activated_edges())
        self.metrics = Metrics()
        # Identity-interned networks (uids == indices 0..n-1, canonical
        # (lo, hi) edge tuples) start with array-backed degree counters,
        # which kernel rounds (record_keys) work on alone.  The first
        # per-edge round or strike falls back to the degree dict for good
        # (_leave_arrays): per edge, the dict loop is cheaper than numpy
        # scalar indexing, and packing a round's edge tuples into arrays
        # costs more than the loop it replaces.
        self._np = None
        if getattr(network, "_identity", False) and not self._activated_now:
            import numpy  # lazy: reference-network runs never need it

            self._np = numpy
            self._orig_arr = network.original_keys()
            self._degree_arr = numpy.zeros(network.n, numpy.int64)
            # Activated-only keys, for runs fed by record_keys.
            self._act_keys = self._orig_arr[:0]
            return
        degree = self._activated_degree = {u: 0 for u in network.nodes}
        for u, v in self._activated_now:
            degree[u] += 1
            degree[v] += 1
        m = self.metrics
        m.max_activated_edges = len(self._activated_now)
        if degree:
            m.max_activated_degree = max(degree.values())

    def record_round(
        self,
        activations: set,
        deactivations: set,
        per_node_counts: dict | None = None,
    ) -> None:
        m = self.metrics
        m.rounds += 1
        m.total_activations += len(activations)
        m.total_deactivations += len(deactivations)
        m.per_round_activations.append(len(activations))
        m.max_activations_per_round = max(m.max_activations_per_round, len(activations))
        if per_node_counts:
            m.max_activations_per_node_round = max(
                m.max_activations_per_node_round, max(per_node_counts.values())
            )
        if self._np is not None:
            self._leave_arrays()
        # Both extremes are high-watermarks: they can only rise through this
        # round's activations, so only the touched degrees need re-checking
        # (keeps idle rounds O(1) instead of O(n)).
        degree = self._activated_degree
        now = self._activated_now
        top = m.max_activated_degree
        if activations:
            original = self._original
            if original is None:
                original = self._original = self._network.original_edges
            for e in activations:
                if e not in original:
                    now.add(e)
                    du = degree[e[0]] + 1
                    dv = degree[e[1]] + 1
                    degree[e[0]] = du
                    degree[e[1]] = dv
                    if du > top:
                        top = du
                    if dv > top:
                        top = dv
        m.max_activated_degree = top
        for e in deactivations:
            if e in now:
                now.discard(e)
                degree[e[0]] -= 1
                degree[e[1]] -= 1
        m.max_activated_edges = max(m.max_activated_edges, len(now))

    def record_keys(self, activations, deactivations, per_node_max: int) -> None:
        """:meth:`record_round` for array rounds (the bulk kernel path).

        ``activations`` / ``deactivations`` are the committed sets as
        sorted packed keys (:meth:`DenseNetwork.apply_arrays`, identity
        interning) and ``per_node_max`` is the round's largest per-actor
        activation request count.  The activated-only subgraph is one
        sorted key array here, so a run feeds either this method or
        :meth:`record_round`, never both.
        """
        from .edge_keys import MASK, SHIFT, delete_from, member, merge_in

        np = self._np
        m = self.metrics
        k = activations.size
        m.rounds += 1
        m.total_activations += k
        m.total_deactivations += deactivations.size
        m.per_round_activations.append(k)
        m.max_activations_per_round = max(m.max_activations_per_round, k)
        m.max_activations_per_node_round = max(
            m.max_activations_per_node_round, per_node_max
        )
        if not k and not deactivations.size:
            return  # an idle round: the activated-only subgraph is unchanged
        degree = self._degree_arr
        fresh = activations[~member(self._orig_arr, activations)]
        if fresh.size:
            u, v = fresh >> SHIFT, fresh & MASK
            np.add.at(degree, u, 1)
            np.add.at(degree, v, 1)
            m.max_activated_degree = max(
                m.max_activated_degree, int(degree[u].max()), int(degree[v].max())
            )
            self._act_keys = merge_in(self._act_keys, fresh)
        gone = deactivations[member(self._act_keys, deactivations)]
        if gone.size:
            np.add.at(degree, gone >> SHIFT, -1)
            np.add.at(degree, gone & MASK, -1)
            self._act_keys = delete_from(self._act_keys, gone)
        m.max_activated_edges = max(m.max_activated_edges, self._act_keys.size)

    def _leave_arrays(self) -> None:
        """Fall back from the array counters to the degree dict for good."""
        self._activated_degree = dict(enumerate(self._degree_arr.tolist()))
        self._np = None

    def record_external(self, dropped: set, added: set, crashes, joins) -> None:
        """Fold one adversary strike into the recorder's state.

        Adversary events never count toward the paper's cost measures —
        they only keep the activated-only subgraph consistent: an
        activated edge the adversary removed stops contributing to the
        degree watermark, crashed nodes leave the degree map, and joined
        nodes enter it.  ``E(1)`` is re-read from the network because
        adversary-created edges fold into it (see
        :meth:`Network.apply_external`).
        """
        m = self.metrics
        m.adversary_events += 1
        m.adversary_edge_drops += len(dropped)
        m.adversary_edge_adds += len(added)
        m.adversary_crashes += len(crashes)
        m.adversary_joins += len(joins)
        if self._np is not None:
            # Adversary wiring retires/extends the uid space and folds
            # edges into E(1): the arrays cannot follow.
            self._leave_arrays()
        self._original = self._network.original_edges
        degree = self._activated_degree
        for e in dropped:
            if e in self._activated_now:
                self._activated_now.discard(e)
                degree[e[0]] -= 1
                degree[e[1]] -= 1
        for u in crashes:
            degree.pop(u, None)
        for uid, _ in joins:
            degree.setdefault(uid, 0)
