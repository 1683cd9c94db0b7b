"""The paper's edge-complexity measures (Section 2.2).

* **total edge activations** — ``sum_i |E_ac(i)|``
* **maximum activated edges** — ``max_i |E(i) \\ E(1)|``
* **maximum activated degree** — ``max_i deg(D(i) \\ D(1))``

The recorder is fed the effective activation/deactivation sets of every
round — as uid-pair sets, or on the bulk kernel path as sorted packed
keys (:meth:`MetricsRecorder.record_keys`).  It stores no copy of the
activated-only subgraph: the edge measure reads the network's
``|E(i) \\ E(1)|`` counter, and the degree measure keeps a per-node
tally counted against ``E(1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import Network
from .observers import _PairsView


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
    """Incrementally tracks the measures of the activated-only subgraph
    ``D(i) \\ D(1)``.  An active edge is in it exactly when it is not
    in ``E(1)``, so nothing of it is stored."""

    def __init__(self, network: Network) -> None:
        self._network = network
        #: ``E(1)`` as uid edge keys, read on first need (the per-edge
        #: rounds and strikes; array rounds never read it).
        self._original = None
        self.metrics = Metrics()
        # Identity-interned networks (uids == indices 0..n-1, canonical
        # (lo, hi) edge tuples) start with array-backed degree counters,
        # which kernel rounds (record_keys) work on alone.  The first
        # per-edge round or strike falls back to the degree dict for good
        # (_leave_arrays): per edge, the dict loop is cheaper than numpy
        # scalar indexing, and packing a round's edge tuples into arrays
        # costs more than the loop it replaces.
        self._np = None
        if getattr(network, "_identity", False) and not network.num_activated_edges:
            import numpy  # lazy: reference-network runs never need it

            self._np = numpy
            self._orig_arr = network.original_keys()
            self._degree_arr = numpy.zeros(network.n, numpy.int64)
            return
        self._recount()

    def _recount(self) -> None:
        """Build the degree dict from the network's activated edges."""
        net, m = self._network, self.metrics
        degree = self._activated_degree = dict.fromkeys(net.nodes, 0)
        if net.num_activated_edges:  # only then list the edges
            for u, v in net.activated_edges():
                degree[u] += 1
                degree[v] += 1
        m.max_activated_edges = max(m.max_activated_edges, net.num_activated_edges)
        m.max_activated_degree = max(m.max_activated_degree, max(degree.values(), default=0))

    def _count(self, k: int, d: int, per_node_max: int) -> None:
        """A committed round's totals and watermarks, all but the degree
        (the network has already counted its activated edges)."""
        m = self.metrics
        m.rounds += 1
        m.total_activations += k
        m.total_deactivations += d
        m.per_round_activations.append(k)
        m.max_activations_per_round = max(m.max_activations_per_round, k)
        m.max_activations_per_node_round = max(
            m.max_activations_per_node_round, per_node_max
        )
        m.max_activated_edges = max(
            m.max_activated_edges, self._network.num_activated_edges
        )

    def record_round(
        self,
        activations: set,
        deactivations: set,
        per_node_counts: dict | None = None,
    ) -> None:
        self._count(
            len(activations),
            len(deactivations),
            max(per_node_counts.values()) if per_node_counts else 0,
        )
        if self._np is not None:
            self._leave_arrays()
        self._tally(activations, deactivations)

    def _tally(self, activations, deactivations) -> None:
        """Move the degree dict by a committed round's edges outside
        ``E(1)``; a deactivated edge was active, so it was activated
        exactly when it is outside ``E(1)``."""
        if not activations and not deactivations:
            return
        original = self._original
        if original is None:
            original = self._original = self._network.original_edges
        degree = self._activated_degree
        # The degree watermark is read between the round's activations
        # and its deactivations, over E(i-1) | E(i) outside E(1).  It
        # only rises through the activations, so only their endpoints
        # need re-checking (keeps idle rounds O(1) instead of O(n)).
        top = self.metrics.max_activated_degree
        for e in activations:
            if e not in original:
                du = degree[e[0]] + 1
                dv = degree[e[1]] + 1
                degree[e[0]] = du
                degree[e[1]] = dv
                if du > top:
                    top = du
                if dv > top:
                    top = dv
        for e in deactivations:
            if e not in original:
                degree[e[0]] -= 1
                degree[e[1]] -= 1
        self.metrics.max_activated_degree = top

    def record_keys(self, activations, deactivations, per_node_max: int) -> None:
        """:meth:`record_round` for array rounds (the bulk kernel path).

        ``activations`` / ``deactivations`` are the committed sets as
        sorted packed keys (:meth:`DenseNetwork.apply_arrays`, identity
        interning) and ``per_node_max`` is the round's largest per-actor
        activation request count.
        """
        from .edge_keys import MASK, SHIFT, member

        k = activations.size
        self._count(k, deactivations.size, per_node_max)
        if not k and not deactivations.size:
            return  # an idle round: the activated-only subgraph is unchanged
        np = self._np
        if np is None:  # a per-edge round or a strike came first
            self._tally(_PairsView.of_keys(activations), _PairsView.of_keys(deactivations))
            return
        degree = self._degree_arr
        fresh = activations[~member(self._orig_arr, activations)]
        if fresh.size:
            u, v = fresh >> SHIFT, fresh & MASK
            np.add.at(degree, u, 1)
            np.add.at(degree, v, 1)
            m = self.metrics
            m.max_activated_degree = max(
                m.max_activated_degree, int(degree[u].max()), int(degree[v].max())
            )
        gone = deactivations[~member(self._orig_arr, deactivations)]
        if gone.size:
            np.add.at(degree, gone >> SHIFT, -1)
            np.add.at(degree, gone & MASK, -1)

    def _leave_arrays(self) -> None:
        """Fall back from the array counters to the degree dict for good."""
        self._activated_degree = dict(enumerate(self._degree_arr.tolist()))
        self._np = None

    def record_external(self, dropped: set, added: set, crashes, joins) -> None:
        """Fold one adversary strike into the recorder's state.

        Adversary events never count toward the paper's cost measures.
        The degree tally is recounted from the network's activated
        edges, as :meth:`Network.apply_external` recounts its counter:
        the strike folds its edges into ``E(1)``, and crashes and joins
        change the node set, which the arrays cannot follow.
        """
        m = self.metrics
        m.adversary_events += 1
        m.adversary_edge_drops += len(dropped)
        m.adversary_edge_adds += len(added)
        m.adversary_crashes += len(crashes)
        m.adversary_joins += len(joins)
        self._np = None
        self._original = self._network.original_edges
        self._recount()
