"""The actively dynamic network state: nodes, active edges, legality rules.

The :class:`Network` holds the snapshot ``D(i) = (V, E(i))`` of the temporal
graph together with the distinguished original edge set ``E(1)`` and applies
per-round action batches under the model's legality rules (Section 2.1 of the
paper):

* an edge ``uv`` may be *activated* in round ``i`` only if ``uv`` is not
  active and some node ``w`` has both ``uw`` and ``wv`` active at the
  beginning of the round (``v`` is a *potential neighbor* of ``u``);
* an edge may be *deactivated* only if it is active;
* there is at most one edge between any pair of nodes;
* if an edge is both activated and deactivated in the same round the
  endpoints disagree and the edge keeps its previous state.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx

from ..errors import ConfigurationError, ProtocolViolation
from .actions import RoundActions, canonical_view, edge_key


class Network:
    """Mutable state of an actively dynamic network.

    Parameters
    ----------
    graph:
        The initial network ``G_s`` as a :class:`networkx.Graph`.  Node labels
        must be hashable; they are used directly as UIDs by the runner layer.
    require_connected:
        If true (the default, matching the paper's standing assumption),
        reject a disconnected ``G_s``.
    """

    def __init__(self, graph: nx.Graph, *, require_connected: bool = True) -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("initial graph must have at least one node")
        if require_connected and graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise ConfigurationError("initial graph G_s must be connected")
        self._nodes = frozenset(graph.nodes())
        _validate_label_comparability(self._nodes)
        self._adj: dict[object, set] = {u: set(graph.neighbors(u)) for u in graph.nodes()}
        self._original: frozenset = frozenset(edge_key(u, v) for u, v in graph.edges())
        self._active: set = set(self._original)
        #: ``|E(i) \ E(1)|``, kept by apply and apply_external (not by
        #: commit): every edge of G_s is original.
        self._n_activated: int = 0
        # Per-node frozen neighborhood snapshots handed out by neighbors();
        # invalidated lazily when apply() touches a node's adjacency.
        self._frozen: dict = {}
        self.round = 1

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset:
        return self._nodes

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def original_edges(self) -> frozenset:
        """The edge set ``E(1)`` of the initial network."""
        return self._original

    def neighbors(self, u) -> frozenset:
        """The current neighborhood ``N_1(u)`` as a read-only snapshot.

        The returned :class:`frozenset` cannot be mutated, so buggy (or
        adversarial) programs cannot edit adjacency behind the legality
        rules' back.  Snapshots are cached per node and invalidated only
        when :meth:`apply` changes that node's adjacency, so repeated calls
        within a round are O(1).  Views are built via
        :func:`canonical_view`, so their iteration order is a pure
        function of their contents — identical on every backend.
        """
        view = self._frozen.get(u)
        if view is None:
            view = self._frozen[u] = canonical_view(self._adj[u])
        return view

    def degree(self, u) -> int:
        return len(self._adj[u])

    def has_edge(self, u, v) -> bool:
        return v in self._adj.get(u, ())

    def is_original(self, u, v) -> bool:
        return edge_key(u, v) in self._original

    def edges(self) -> Iterator[tuple]:
        return iter(self._active)

    @property
    def num_active_edges(self) -> int:
        return len(self._active)

    def activated_edges(self) -> set:
        """``E(i) \\ E(1)``: currently active edges not in the original set."""
        return self._active - self._original

    @property
    def num_activated_edges(self) -> int:
        """``|E(i) \\ E(1)|``, an O(1) read of the counter."""
        return self._n_activated

    def potential_neighbors(self, u) -> set:
        """``N_2(u)``: nodes at distance exactly two from ``u``."""
        direct = self._adj[u]
        result: set = set()
        for v in direct:
            result.update(self._adj[v])
        result -= direct
        result.discard(u)
        return result

    def common_neighbor_exists(self, u, v) -> bool:
        a, b = self._adj[u], self._adj[v]
        if len(a) > len(b):
            a, b = b, a
        return not b.isdisjoint(a)

    def snapshot_graph(self) -> nx.Graph:
        """The current snapshot ``D(i)`` as a fresh :class:`networkx.Graph`."""
        g = nx.Graph()
        g.add_nodes_from(self._nodes)
        g.add_edges_from(self.edges())
        return g

    def slot_keys(self):
        """The current snapshot ``D(i)`` as ``(uids, keys)``: its sorted
        labels and its sorted undirected packed keys over their
        positions (:func:`~repro.engine.graph_keys.slot_keys`), read
        from the state without copying it.  The labels sort: construction
        and every join check that they are mutually comparable."""
        from .graph_keys import slot_keys

        return slot_keys(self._adj)

    def is_connected(self) -> bool:
        if len(self._nodes) <= 1:
            return True
        seen = {next(iter(self._nodes))}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self._nodes)

    # ------------------------------------------------------------------
    # round application
    # ------------------------------------------------------------------

    def apply(self, actions: RoundActions, *, strict: bool = True) -> tuple[set, set]:
        """Apply one round's actions and advance the round counter.

        Returns ``(E_ac(i), E_dac(i))`` — the *effective* activation and
        deactivation sets after legality filtering and conflict resolution.

        With ``strict`` (the default) an illegal action raises
        :class:`ProtocolViolation`; otherwise illegal actions are dropped
        silently (useful for adversarial/fuzz tests).
        """
        nodes, adj, active = self._nodes, self._adj, self._active
        activations: set = set()
        for actor, u, v in actions.activations:
            if u not in nodes or v not in nodes:
                if strict:
                    raise _illegal("unknown", actor, u, v)
                continue
            if u == v:
                if strict:
                    raise _illegal("self-loop", actor, u, v)
                continue
            e = edge_key(u, v)
            if e in active:
                # Activating an already active edge has no effect (model rule).
                continue
            a, b = adj[u], adj[v]
            if len(a) > len(b):
                a, b = b, a
            if b.isdisjoint(a):
                if strict:
                    raise _illegal("distance", actor, u, v)
                continue
            activations.add(e)

        deactivations: set = set()
        for actor, u, v in actions.deactivations:
            if u not in nodes or v not in nodes:
                if strict:
                    raise _illegal("deactivated-unknown", actor, u, v)
                continue
            e = edge_key(u, v)
            if e not in active:
                # Deactivating an inactive edge has no effect (model rule),
                # unless it was activated this very round: that is a conflict
                # handled below.
                if e not in activations:
                    continue
            deactivations.add(e)

        # Conflict rule: endpoints disagreeing about an edge leave it as it was.
        conflicted = activations & deactivations
        activations -= conflicted
        deactivations -= conflicted
        # A deactivation may target an edge that was only just requested for
        # activation by the other endpoint; after conflict removal, any
        # remaining deactivation of a non-active edge is a no-op.
        deactivations = {e for e in deactivations if e in active}

        self.commit(activations, deactivations)
        # The effective sets hold newly active and newly inactive edges.
        original = self._original
        self._n_activated += len(activations - original) - len(deactivations - original)
        self.round += 1
        return activations, deactivations

    def commit(self, activations, deactivations) -> None:
        """Add the canonical edge keys ``activations``, then remove
        ``deactivations``, with no legality filtering; the round counter
        does not move.

        :meth:`apply` commits its filtered sets through here, and the
        dict conformance replay commits a recorded round's applicable
        sets (keys naming known nodes, no self-loops).  The
        :attr:`num_activated_edges` counter is the caller's to keep.
        """
        active, adj, frozen = self._active, self._adj, self._frozen
        for u, v in activations:
            active.add((u, v))
            adj[u].add(v)
            adj[v].add(u)
            frozen.pop(u, None)
            frozen.pop(v, None)
        for u, v in deactivations:
            active.discard((u, v))
            adj[u].discard(v)
            adj[v].discard(u)
            frozen.pop(u, None)
            frozen.pop(v, None)

    # ------------------------------------------------------------------
    # external (adversarial) mutation — outside the model's legality rules
    # ------------------------------------------------------------------

    def apply_external(self, *, drops=(), adds=(), crashes=(), joins=()) -> tuple[set, set]:
        """Apply one adversary strike (see ``repro.dynamics``).

        External events are *not* subject to the model's legality rules:
        they model the environment, not a node.  Crashed nodes leave the
        network with all incident edges; joined nodes ``(uid, attach)``
        enter with external edges to each node in ``attach``.  Every edge
        the adversary creates folds into the external baseline edge set
        ``E(1)`` and every edge it removes leaves it — adversary wiring
        must never count toward the paper's activation measures.

        Entries that no longer match the current state (an already-gone
        edge, an unknown crash uid, a duplicate join) are skipped: a
        scripted schedule may legitimately race the algorithm's own
        reconfiguration.  A join whose uid is not order-comparable with
        the current labels raises :class:`ConfigurationError` before
        anything changes, as the constructor would.  Returns the
        effective ``(dropped, added)`` edge sets, with crash-incident
        edges included in ``dropped`` and join attach edges included in
        ``added``.  Does not advance the round.
        """
        fresh = {uid for uid, _ in joins} - self._nodes
        if fresh:
            _validate_label_comparability(self._nodes | fresh)
        dropped: set = set()
        added: set = set()
        nodes = set(self._nodes)
        adj = self._adj
        active = self._active
        frozen = self._frozen
        original = set(self._original)

        for u in crashes:
            if u not in nodes or len(nodes) <= 1:
                continue
            for v in adj[u]:
                e = edge_key(u, v)
                dropped.add(e)
                active.discard(e)
                original.discard(e)
                adj[v].discard(u)
                frozen.pop(v, None)
            del adj[u]
            frozen.pop(u, None)
            nodes.discard(u)
            # A crashed node leaves E(1) entirely: purge baseline keys of
            # its currently *inactive* (deactivated) original edges too,
            # so is_original never answers for a node that no longer
            # exists.  Cold path: crashes are rare adversary events.
            original = {e for e in original if u not in e}

        for u, v in drops:
            if v not in adj.get(u, ()):
                continue
            e = edge_key(u, v)
            dropped.add(e)
            active.discard(e)
            original.discard(e)
            adj[u].discard(v)
            adj[v].discard(u)
            frozen.pop(u, None)
            frozen.pop(v, None)

        for uid, attach in joins:
            if uid in nodes:
                continue
            nodes.add(uid)
            adj[uid] = set()
            for v in attach:
                if v not in nodes or v == uid:
                    continue
                e = edge_key(uid, v)
                added.add(e)
                active.add(e)
                original.add(e)
                adj[uid].add(v)
                adj[v].add(uid)
                frozen.pop(v, None)

        for u, v in adds:
            if u not in nodes or v not in nodes or u == v or v in adj[u]:
                continue
            e = edge_key(u, v)
            added.add(e)
            active.add(e)
            original.add(e)
            adj[u].add(v)
            adj[v].add(u)
            frozen.pop(u, None)
            frozen.pop(v, None)

        self._nodes = frozenset(nodes)
        self._original = frozenset(original)
        # Strikes are rare (inter-episode): one exact recount keeps the
        # counter honest.
        self._n_activated = len(active - self._original)
        return dropped, added

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple], **kwargs) -> "Network":
        g = nx.Graph()
        g.add_edges_from(edges)
        return cls(g, **kwargs)


def _illegal(kind: str, actor, u, v) -> ProtocolViolation:
    """The strict-mode error for one illegal request, worded once for
    :meth:`Network.apply` and the array apply
    (:meth:`repro.engine.dense.DenseNetwork.apply_arrays`)."""
    if kind == "unknown":
        return ProtocolViolation(
            f"node {actor} activated ({u}, {v}) referencing an unknown node"
        )
    if kind == "self-loop":
        return ProtocolViolation(f"node {actor} attempted a self-loop at {u}")
    if kind == "distance":
        return ProtocolViolation(
            f"node {actor} activated {edge_key(u, v)} "
            f"but endpoints are not at distance 2"
        )
    return ProtocolViolation(
        f"node {actor} deactivated ({u}, {v}) referencing an unknown node"
    )


def _validate_label_comparability(nodes: frozenset) -> None:
    """Reject node-label sets that are not mutually order-comparable.

    The UID model (and every committee algorithm, which elects the maximum
    UID) needs a total order on labels.  Checking once here turns a cryptic
    ``TypeError`` deep inside a round into a clear error at construction.
    """
    try:
        sorted(nodes)
    except TypeError as exc:
        kinds = sorted({type(u).__name__ for u in nodes})
        raise ConfigurationError(
            f"node labels must be mutually comparable to serve as UIDs; "
            f"got incomparable types {kinds} — relabel the graph with a "
            f"uniform UID scheme (see repro.graphs.uids)"
        ) from exc


class ConnectivityTracker:
    """Incremental connectivity of the active graph across rounds.

    Activations can only merge components, so they are folded into a
    union-find structure in near-O(1) amortized time.  Deactivations can
    split components, which union-find cannot undo — those rounds pay one
    full O(n + m) rebuild.  Our algorithms deactivate in a small minority
    of rounds, so the per-round connectivity guard drops from O(n + m) to
    effectively O(#activations).
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._rebuild()

    def _rebuild(self) -> None:
        net = self._network
        self._parent = {u: u for u in net.nodes}
        self._rank = dict.fromkeys(net.nodes, 0)
        self._components = net.n
        for u, v in net.edges():
            self._union(u, v)

    def _find(self, x):
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, u, v) -> None:
        ru, rv = self._find(u), self._find(v)
        if ru == rv:
            return
        if self._rank[ru] < self._rank[rv]:
            ru, rv = rv, ru
        self._parent[rv] = ru
        if self._rank[ru] == self._rank[rv]:
            self._rank[ru] += 1
        self._components -= 1

    @property
    def components(self) -> int:
        return self._components

    def rebuild(self) -> bool:
        """Full recompute (after external perturbations); return connectedness."""
        self._rebuild()
        return self._components <= 1

    def update(self, activations: Iterable[tuple], deactivations: Iterable[tuple]) -> bool:
        """Fold one round's effective action sets; return connectedness."""
        if deactivations:
            self._rebuild()
        else:
            for u, v in activations:
                self._union(u, v)
        return self._components <= 1

    def is_connected(self) -> bool:
        return self._components <= 1
