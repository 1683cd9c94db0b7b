"""The dense engine backend: index-interned state, batched rounds.

Drop-in alternative to the reference engine, selected with
``SynchronousRunner(..., backend="dense")``.  The contract is strict:
for every program, every scenario, and every adversary schedule the
dense backend produces a **byte-identical JSONL trace** and **equal
Metrics** to the reference backend (``tests/test_backend_differential``
is the oracle).  What changes is the machinery, not the model:

* node uids are interned to dense ints ``0..n-1`` once at construction
  (joins extend the index space; indices, like uids, are never reused);
* adjacency is a slot array of per-node int-index sets, and the active /
  original edge sets are sets of packed int pairs
  (``min_idx << 32 | max_idx``) — membership tests hash one small int
  instead of a tuple of uids;
* the connectivity guard's union-find runs on plain index arrays;
* the runner's per-round state (program, pre-bound ``compose`` /
  ``transition`` / ``public`` methods, context) lives in one persistent
  slot batch rebuilt only when the live set changes, and public-record
  snapshots pool into the shared publics mapping in a single batched
  pass at the end of each round;
* each round's effective activations and deactivations are applied in
  one batched pass over the packed-pair sets.

Program-visible views stay in uid space (contexts speak uids by API
contract) and are built through :func:`repro.engine.actions.canonical_view`
on both backends, so neighbor iteration order — and therefore every
trace — is a pure function of network contents.  DESIGN.md ("Engine
backends") spells out the equivalence argument.

One deliberate representation note: the dense backend hands every
program whose inbox is empty the *same* immutable empty mapping instead
of a fresh dict.  Inboxes are read-only by contract; a program that
tried to mutate one fails loudly here rather than silently diverging.
"""

from __future__ import annotations

import types
from operator import attrgetter

import networkx as nx

from ..errors import ConfigurationError, ExecutionError, ProtocolViolation
from .actions import RoundActions, canonical_view, edge_key
from .network import _validate_label_comparability
from .runner import SynchronousRunner
from .trace import PerturbationRecord

#: Bits reserved for the minor index in a packed edge pair.  2**32 nodes
#: is far beyond any simulable size, and packed keys stay machine-sized.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1

_EMPTY_INBOX: types.MappingProxyType = types.MappingProxyType({})

_HALTED = attrgetter("halted")
_BARRIER_READY = attrgetter("barrier_ready")


def _pack(i: int, j: int) -> int:
    """Canonical packed key of the undirected index pair ``(i, j)``."""
    return (i << _SHIFT) | j if i < j else (j << _SHIFT) | i


def _illegal(kind: str, actor, u, v) -> ProtocolViolation:
    """The strict-mode error for one illegal request, worded once for
    both :meth:`DenseNetwork.apply` and :meth:`DenseNetwork.apply_arrays`
    (the reference :class:`~repro.engine.network.Network` words it the
    same way; the property suite pins all three)."""
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


class DenseNetwork:
    """Index-interned actively dynamic network state.

    API-compatible with :class:`repro.engine.network.Network` (the full
    read protocol plus :meth:`apply` / :meth:`apply_external`), with all
    membership-style queries answered from the interned index space.

    The bulk backend's kernel rounds use :meth:`apply_arrays` instead,
    which keeps the active state as sorted packed-key arrays
    (:meth:`key_arrays`) and leaves the Python views — ``_iadj``,
    ``_active_pairs``, ``_frozen`` — behind until a read needs them:
    every public read method, :meth:`apply` and :meth:`apply_external`
    first patch them from the arrays (:meth:`_sync_views`), so they are
    brought up to date at most once per array run.  Code reading those
    attributes directly (contexts, the sparse scheduler) never runs
    while the arrays lead.
    """

    def __init__(self, graph: nx.Graph, *, require_connected: bool = True) -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("initial graph must have at least one node")
        if require_connected and graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise ConfigurationError("initial graph G_s must be connected")
        self._nodes = frozenset(graph.nodes())
        _validate_label_comparability(self._nodes)
        # Intern in sorted uid order: when uids are exactly 0..n-1 (every
        # built-in workload family) the interning is the identity map and
        # all index->uid translation vanishes from the hot paths.
        uid_of = sorted(graph.nodes())
        idx_of = {u: i for i, u in enumerate(uid_of)}
        self._uid_of: list = uid_of
        self._idx_of: dict = idx_of
        self._identity: bool = all(type(u) is int for u in uid_of) and uid_of == list(
            range(len(uid_of))
        )
        self._iadj: list[set[int]] = [
            {idx_of[v] for v in graph.neighbors(u)} for u in uid_of
        ]
        self._orig_pairs: set[int] = {
            _pack(idx_of[u], idx_of[v]) for u, v in graph.edges()
        }
        self._active_pairs: set[int] = set(self._orig_pairs)
        #: ``|E(i) \ E(1)|`` maintained incrementally by :meth:`apply`
        #: (and recomputed after external strikes): the per-round
        #: ``num_activated_edges`` read must not pay an O(active) set
        #: difference each emitted round.
        self._n_activated: int = 0
        # Per-index canonical neighborhood snapshot slots (None = stale).
        self._frozen: list = [None] * len(uid_of)
        self._original_view: frozenset | None = None
        # Array mode (see key_arrays): sorted undirected / directed /
        # baseline key arrays, and the undirected array the Python views
        # currently reflect.  All None until the first array round.
        self._keys = self._dir = self._orig_keys = self._view_keys = None
        self.round = 1

    # ------------------------------------------------------------------
    # read access (uid space, answered from the index space)
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset:
        return self._nodes

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def original_edges(self) -> frozenset:
        """The external baseline edge set ``E(1)`` as uid edge keys."""
        view = self._original_view
        if view is None:
            view = self._original_view = frozenset(
                self._unpack(p) for p in self._orig_pairs
            )
        return view

    def _unpack(self, p: int) -> tuple:
        """The uid edge key of a packed index pair."""
        if self._identity:
            return (p >> _SHIFT, p & _MASK)
        uid_of = self._uid_of
        return edge_key(uid_of[p >> _SHIFT], uid_of[p & _MASK])

    def _freeze(self, i: int) -> frozenset:
        members = self._iadj[i]
        if not self._identity:
            uid_of = self._uid_of
            members = [uid_of[j] for j in members]
        view = canonical_view(members)
        self._frozen[i] = view
        return view

    def neighbors(self, u) -> frozenset:
        """``N_1(u)`` as a canonical read-only snapshot (see Network)."""
        if self._keys is not self._view_keys:
            self._sync_views()
        i = self._idx_of[u]
        view = self._frozen[i]
        return view if view is not None else self._freeze(i)

    def degree(self, u) -> int:
        if self._keys is not self._view_keys:
            self._sync_views()
        return len(self._iadj[self._idx_of[u]])

    def has_edge(self, u, v) -> bool:
        if self._keys is not self._view_keys:
            self._sync_views()
        i = self._idx_of.get(u)
        if i is None:
            return False
        return self._idx_of.get(v) in self._iadj[i]

    def is_original(self, u, v) -> bool:
        i = self._idx_of.get(u)
        j = self._idx_of.get(v)
        if i is None or j is None:
            return False
        return _pack(i, j) in self._orig_pairs

    def edges(self):
        if self._keys is not self._view_keys:
            self._sync_views()
        unpack = self._unpack
        return (unpack(p) for p in self._active_pairs)

    @property
    def num_active_edges(self) -> int:
        keys = self._keys
        return len(self._active_pairs) if keys is None else keys.size

    def activated_edges(self) -> set:
        """``E(i) \\ E(1)``: currently active edges not in the baseline."""
        if self._keys is not self._view_keys:
            self._sync_views()
        unpack = self._unpack
        return {unpack(p) for p in self._active_pairs - self._orig_pairs}

    @property
    def num_activated_edges(self) -> int:
        """``|E(i) \\ E(1)|`` from the incrementally maintained counter."""
        return self._n_activated

    def potential_neighbors(self, u) -> set:
        """``N_2(u)``: nodes at distance exactly two from ``u``."""
        if self._keys is not self._view_keys:
            self._sync_views()
        iadj = self._iadj
        i = self._idx_of[u]
        direct = iadj[i]
        result: set = set()
        for j in direct:
            result.update(iadj[j])
        result -= direct
        result.discard(i)
        uid_of = self._uid_of
        return {uid_of[j] for j in result}

    def common_neighbor_exists(self, u, v) -> bool:
        if self._keys is not self._view_keys:
            self._sync_views()
        a = self._iadj[self._idx_of[u]]
        b = self._iadj[self._idx_of[v]]
        if len(a) > len(b):
            a, b = b, a
        return not b.isdisjoint(a)

    def snapshot_graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self._nodes)
        g.add_edges_from(self.edges())
        return g

    def is_connected(self) -> bool:
        if self._keys is not self._view_keys:
            self._sync_views()
        n = len(self._nodes)
        if n <= 1:
            return True
        iadj = self._iadj
        start = self._idx_of[next(iter(self._nodes))]
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in iadj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    # ------------------------------------------------------------------
    # round application (batched, one pass per effective set)
    # ------------------------------------------------------------------

    def apply(self, actions: RoundActions, *, strict: bool = True) -> tuple[set, set]:
        """Apply one round's actions; same legality pipeline as Network.

        Filtering and conflict resolution run entirely on packed index
        pairs; the effective sets are translated back to uid edge keys
        only once, while being applied in one batched pass.
        """
        if not actions.activations and not actions.deactivations:
            # Idle round: nothing to filter, nothing to apply.
            self.round += 1
            return set(), set()
        if self._keys is not None:
            self._drop_arrays()

        idx_of = self._idx_of
        iadj = self._iadj
        active = self._active_pairs

        act_pairs: set = set()
        for actor, u, v in actions.activations:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None:
                if strict:
                    raise _illegal("unknown", actor, u, v)
                continue
            if i == j:
                if strict:
                    raise _illegal("self-loop", actor, u, v)
                continue
            pair = (i << _SHIFT) | j if i < j else (j << _SHIFT) | i
            if pair in active:
                # Activating an already active edge has no effect (model rule).
                continue
            a, b = iadj[i], iadj[j]
            if len(a) > len(b):
                a, b = b, a
            if b.isdisjoint(a):
                if strict:
                    raise _illegal("distance", actor, u, v)
                continue
            act_pairs.add(pair)

        dac_pairs: set = set()
        for actor, u, v in actions.deactivations:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None:
                if strict:
                    raise _illegal("deactivated-unknown", actor, u, v)
                continue
            pair = (i << _SHIFT) | j if i < j else (j << _SHIFT) | i
            if pair not in active and pair not in act_pairs:
                # Deactivating an inactive edge has no effect (model rule),
                # unless it was activated this very round (conflict below).
                continue
            dac_pairs.add(pair)

        # Conflict rule: endpoints disagreeing about an edge leave it as it was.
        conflicted = act_pairs & dac_pairs
        act_pairs -= conflicted
        dac_pairs -= conflicted
        dac_pairs = {p for p in dac_pairs if p in active}

        frozen = self._frozen
        uid_of = self._uid_of
        identity = self._identity
        orig = self._orig_pairs
        n_activated = self._n_activated
        activations: set = set()
        deactivations: set = set()
        for pair in act_pairs:
            i, j = pair >> _SHIFT, pair & _MASK
            active.add(pair)
            if pair not in orig:
                n_activated += 1
            iadj[i].add(j)
            iadj[j].add(i)
            frozen[i] = None
            frozen[j] = None
            activations.add((i, j) if identity else edge_key(uid_of[i], uid_of[j]))
        for pair in dac_pairs:
            i, j = pair >> _SHIFT, pair & _MASK
            active.discard(pair)
            if pair not in orig:
                n_activated -= 1
            iadj[i].discard(j)
            iadj[j].discard(i)
            frozen[i] = None
            frozen[j] = None
            deactivations.add((i, j) if identity else edge_key(uid_of[i], uid_of[j]))
        self._n_activated = n_activated

        self.round += 1
        return activations, deactivations

    # ------------------------------------------------------------------
    # array rounds (the bulk backend's kernel path)
    # ------------------------------------------------------------------

    def key_arrays(self) -> tuple:
        """The state as sorted packed-key arrays ``(active, directed,
        original)`` (:mod:`repro.engine.edge_keys` layout, index space).

        The first call switches the network into array mode, which
        :meth:`apply_arrays` keeps: the arrays lead, and the Python views
        follow on the next read.  Identity-interned networks only (uids
        exactly ``0..n-1``, none crashed) — the networks the array
        kernels accept.
        """
        if self._keys is None:
            import numpy as np

            from .edge_keys import both_dirs

            if not self._identity or len(self._idx_of) != len(self._uid_of):
                raise ConfigurationError(
                    "array rounds need uids 0..n-1 with none crashed"
                )
            keys = np.fromiter(self._active_pairs, np.int64, len(self._active_pairs))
            keys.sort()
            orig = np.fromiter(self._orig_pairs, np.int64, len(self._orig_pairs))
            orig.sort()
            self._keys = self._view_keys = keys
            self._dir = both_dirs(keys)
            self._orig_keys = orig
        return self._keys, self._dir, self._orig_keys

    def apply_arrays(self, requests, *, strict: bool = True) -> tuple:
        """Apply one round's :class:`~repro.engine.actions.RequestArrays`.

        The legality pipeline of :meth:`apply`, as whole-round array
        passes against the pre-round state: per activation, unknown node
        → self-loop → already active (a no-op) → not at distance 2
        (:func:`~repro.engine.edge_keys.legality_codes`); then the
        conflict rule (an edge both activated and deactivated stays as
        it was), then "deactivate only active edges".  In strict mode the
        first offending request in request order raises the exact
        :class:`ProtocolViolation` :meth:`apply` would, before anything
        is committed.  Returns the committed activations and
        deactivations as sorted packed keys (identity interning makes
        them uid pairs too).
        """
        import numpy as np

        from . import edge_keys as ek

        if not requests.act_u.size and not requests.dea_u.size:
            self.round += 1
            return ek.EMPTY, ek.EMPTY
        keys, dirs, orig = self.key_arrays()
        size = len(self._uid_of)
        codes, packed = ek.legality_codes(
            keys,
            dirs,
            ek.identity_slots(requests.act_u, size),
            ek.identity_slots(requests.act_v, size),
        )
        du = ek.identity_slots(requests.dea_u, size)
        dv = ek.identity_slots(requests.dea_v, size)
        dknown = (du >= 0) & (dv >= 0)
        if strict:
            bad = np.flatnonzero((codes != 0) & (codes != ek.ACTIVE))
            if bad.size:
                k = int(bad[0])
                kinds = {ek.UNKNOWN: "unknown", ek.SELF_LOOP: "self-loop",
                         ek.NOT_DIST2: "distance"}
                raise _illegal(
                    kinds[int(codes[k])],
                    int(requests.act_actor[k]),
                    int(requests.act_u[k]),
                    int(requests.act_v[k]),
                )
            bad = np.flatnonzero(~dknown)
            if bad.size:
                k = int(bad[0])
                raise _illegal(
                    "deactivated-unknown",
                    int(requests.dea_actor[k]),
                    int(requests.dea_u[k]),
                    int(requests.dea_v[k]),
                )
        act = ek.unique(packed[codes == 0])
        requested_off = ek.unique(ek.pack(du[dknown], dv[dknown]))
        act = act[~ek.member(requested_off, act)]
        dea = requested_off[ek.member(keys, requested_off)]
        if act.size or dea.size:
            self._keys = ek.merge_in(ek.delete_from(keys, dea), act)
            self._dir = ek.merge_in(
                ek.delete_from(dirs, ek.both_dirs(dea)), ek.both_dirs(act)
            )
            self._n_activated += int(
                np.count_nonzero(~ek.member(orig, act))
                - np.count_nonzero(~ek.member(orig, dea))
            )
        self.round += 1
        return act, dea

    def _sync_views(self) -> None:
        """Patch the Python views to the key arrays: only the edges that
        changed since the views were last current are touched."""
        from .edge_keys import member

        old, new = self._view_keys, self._keys
        added = new[~member(old, new)].tolist()
        removed = old[~member(new, old)].tolist()
        iadj, frozen = self._iadj, self._frozen
        for p in removed:
            i, j = p >> _SHIFT, p & _MASK
            iadj[i].discard(j)
            iadj[j].discard(i)
            frozen[i] = frozen[j] = None
        for p in added:
            i, j = p >> _SHIFT, p & _MASK
            iadj[i].add(j)
            iadj[j].add(i)
            frozen[i] = frozen[j] = None
        self._active_pairs.difference_update(removed)
        self._active_pairs.update(added)
        self._view_keys = new

    def _drop_arrays(self) -> None:
        """Leave array mode: the Python views lead again."""
        if self._keys is not self._view_keys:
            self._sync_views()
        self._keys = self._dir = self._orig_keys = self._view_keys = None

    # ------------------------------------------------------------------
    # external (adversarial) mutation — outside the model's legality rules
    # ------------------------------------------------------------------

    def apply_external(self, *, drops=(), adds=(), crashes=(), joins=()) -> tuple[set, set]:
        """Apply one adversary strike (same semantics as Network).

        Crashed nodes' index slots are retired, never reused — exactly
        like uids.  Joined nodes extend the interning tables.
        """
        if self._keys is not None:
            self._drop_arrays()
        dropped: set = set()
        added: set = set()
        nodes = set(self._nodes)
        uid_of = self._uid_of
        idx_of = self._idx_of
        iadj = self._iadj
        active = self._active_pairs
        orig = self._orig_pairs
        frozen = self._frozen
        self._original_view = None

        for u in crashes:
            if u not in nodes or len(nodes) <= 1:
                continue
            i = idx_of[u]
            for j in iadj[i]:
                pair = _pack(i, j)
                dropped.add(edge_key(u, uid_of[j]))
                active.discard(pair)
                orig.discard(pair)
                iadj[j].discard(i)
                frozen[j] = None
            iadj[i] = set()
            frozen[i] = None
            del idx_of[u]
            nodes.discard(u)
            # Purge the crashed node's remaining (deactivated-original)
            # baseline pairs — mirrors the reference backend exactly.
            orig.difference_update(
                [p for p in orig if p >> _SHIFT == i or p & _MASK == i]
            )

        for u, v in drops:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None or j not in iadj[i]:
                continue
            pair = _pack(i, j)
            dropped.add(edge_key(u, v))
            active.discard(pair)
            orig.discard(pair)
            iadj[i].discard(j)
            iadj[j].discard(i)
            frozen[i] = None
            frozen[j] = None

        for uid, attach in joins:
            if uid in nodes:
                continue
            i = len(uid_of)
            if self._identity and not (type(uid) is int and uid == i):
                self._identity = False
            uid_of.append(uid)
            idx_of[uid] = i
            iadj.append(set())
            frozen.append(None)
            nodes.add(uid)
            for v in attach:
                j = idx_of.get(v)
                if j is None or j == i:
                    continue
                pair = _pack(i, j)
                added.add(edge_key(uid, v))
                active.add(pair)
                orig.add(pair)
                iadj[i].add(j)
                iadj[j].add(i)
                frozen[j] = None

        for u, v in adds:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None or i == j or j in iadj[i]:
                continue
            pair = _pack(i, j)
            added.add(edge_key(u, v))
            active.add(pair)
            orig.add(pair)
            iadj[i].add(j)
            iadj[j].add(i)
            frozen[i] = None
            frozen[j] = None

        self._nodes = frozenset(nodes)
        # Strikes touch both ``active`` and ``orig`` in ways the
        # incremental counter cannot track cheaply; they are rare
        # (inter-episode), so one exact recompute keeps it honest.
        self._n_activated = len(active - orig)
        return dropped, added


class DenseConnectivityTracker:
    """Union-find connectivity guard on the interned index space.

    Same incremental contract as :class:`ConnectivityTracker` — near-O(1)
    activation folding, full rebuild after deactivations — but parent and
    rank live in flat index-keyed lists instead of uid-keyed dicts.
    """

    def __init__(self, network: DenseNetwork) -> None:
        self._network = network
        self._rebuild()

    def _rebuild(self, keys=None) -> None:
        """Recompute from the network's active pairs, or from its active
        key array in array rounds (``keys``)."""
        net = self._network
        size = len(net._uid_of)
        self._parent = list(range(size))
        self._rank = [0] * size
        self._components = net.n
        for pair in net._active_pairs if keys is None else keys.tolist():
            self._union(pair >> _SHIFT, pair & _MASK)

    def _find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, i: int, j: int) -> None:
        ri, rj = self._find(i), self._find(j)
        if ri == rj:
            return
        rank = self._rank
        if rank[ri] < rank[rj]:
            ri, rj = rj, ri
        self._parent[rj] = ri
        if rank[ri] == rank[rj]:
            rank[ri] += 1
        self._components -= 1

    @property
    def components(self) -> int:
        return self._components

    def rebuild(self) -> bool:
        """Full recompute (after external perturbations); return connectedness."""
        self._rebuild()
        return self._components <= 1

    def update(self, activations, deactivations) -> bool:
        """Fold one round's effective uid-space action sets."""
        if deactivations:
            self._rebuild()
        else:
            idx_of = self._network._idx_of
            for u, v in activations:
                self._union(idx_of[u], idx_of[v])
        return self._components <= 1

    def update_keys(self, activations, deactivations) -> bool:
        """Fold one array round's committed sets (sorted packed keys,
        :meth:`DenseNetwork.apply_arrays`)."""
        if deactivations.size:
            self._rebuild(self._network.key_arrays()[0])
        else:
            for pair in activations.tolist():
                self._union(pair >> _SHIFT, pair & _MASK)
        return self._components <= 1

    def is_connected(self) -> bool:
        return self._components <= 1


class DenseContext:
    """Per-node round view for the dense backend (same API as Context).

    Persistent across the whole run: ``round`` / ``barrier_epoch`` / ``n``
    are refreshed in the runner's batched end-of-round pass instead of per
    node per round, and reads resolve through the node's interned index
    and the network's shared snapshot slots.
    """

    __slots__ = (
        "uid",
        "round",
        "n",
        "barrier_epoch",
        "_idx",
        "_publics",
        "_actions",
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
        self._actions = actions
        self._network = network
        self._idx = network._idx_of[uid]
        self._frozen = network._frozen
        self._request_act = actions.activations.append
        self._request_dact = actions.deactivations.append

    # -- reads ---------------------------------------------------------

    @property
    def neighbors(self) -> frozenset:
        """``N_1(uid)`` at the beginning of the round (immutable)."""
        view = self._frozen[self._idx]
        return view if view is not None else self._network._freeze(self._idx)

    def neighbor_public(self, v) -> dict:
        """The public record broadcast by neighbor ``v`` this round."""
        view = self._frozen[self._idx]
        if view is None:
            view = self._network._freeze(self._idx)
        if v in view:
            return self._publics[v]
        raise ProtocolViolation(f"{self.uid} read public state of non-neighbor {v}")

    def public_of(self, v) -> dict:
        """Unchecked public-record access (engine/analysis use only)."""
        return self._publics[v]

    def neighbor_publics(self) -> list:
        """All of this round's broadcasts, as ``(neighbor, record)`` pairs."""
        view = self._frozen[self._idx]
        if view is None:
            view = self._network._freeze(self._idx)
        publics = self._publics
        return [(v, publics[v]) for v in view]

    def neighbor_adjacency(self, v) -> frozenset:
        """Neighbor ``v``'s adjacency at the beginning of the round."""
        view = self._frozen[self._idx]
        if view is None:
            view = self._network._freeze(self._idx)
        if v in view:
            return self._network.neighbors(v)
        raise ProtocolViolation(f"{self.uid} read adjacency of non-neighbor {v}")

    def is_original(self, v, u=None) -> bool:
        """Whether edge ``(u or uid, v)`` belongs to ``E(1)``."""
        net = self._network
        if u is None:
            i = self._idx
        else:
            i = net._idx_of.get(u)
            if i is None:
                return False
        j = net._idx_of.get(v)
        if j is None:
            return False
        return _pack(i, j) in net._orig_pairs

    @property
    def degree(self) -> int:
        return len(self._network._iadj[self._idx])

    # -- writes --------------------------------------------------------

    def activate(self, v) -> None:
        """Request activation of edge ``(uid, v)`` this round."""
        self._request_act((self.uid, self.uid, v))

    def deactivate(self, v) -> None:
        """Request deactivation of edge ``(uid, v)`` this round."""
        self._request_dact((self.uid, self.uid, v))


class DenseRunner(SynchronousRunner):
    """The dense backend's round executor.

    Inherits construction, setup, and the outer run loop from
    :class:`SynchronousRunner`; replaces the per-round machinery with
    persistent parallel slot arrays — uids, programs, pre-bound
    ``compose`` / ``transition`` / ``public`` methods, contexts — that
    are rebuilt only when the live set changes.  Each round runs two
    C-driven ``zip`` passes (send, then transition), stages the fresh
    public records in transition order, and commits them with a single
    bulk ``dict.update`` once every program has transitioned — the
    staging is what preserves the lockstep rule that a program never
    sees a same-round neighbor update.

    The staged fast path calls ``public()`` immediately after each
    program's own ``transition`` (legal because ``public()`` is a pure
    getter of post-transition state); programs that opt into manual
    dirty tracking (``manages_public_dirty``) drop the whole batch onto
    a per-entry fallback pass that honors their contract.
    """

    backend_name = "dense"
    _context_cls = DenseContext

    @staticmethod
    def _make_network(graph: nx.Graph) -> DenseNetwork:
        return DenseNetwork(graph)

    def _make_tracker(self) -> DenseConnectivityTracker:
        return DenseConnectivityTracker(self.network)

    def _post_setup(self) -> None:
        """Build the slot arrays and snapshot every post-setup public."""
        publics = self._publics
        programs = self.programs
        self._slots = [
            (uid, programs[uid], self._context(uid)) for uid in self._live
        ]
        self._refresh_slot_arrays()
        for uid, prog in programs.items():
            publics[uid] = prog.public()
            prog.public_dirty = False
        self._dirty.clear()

    def _refresh_slot_arrays(self) -> None:
        slots = self._slots
        self._uids = [s[0] for s in slots]
        self._progs = [s[1] for s in slots]
        self._composes = [s[1].compose for s in slots]
        self._transitions = [s[1].transition for s in slots]
        self._publicfns = [s[1].public for s in slots]
        self._next_wakes = [s[1].bulk_next_wake for s in slots]
        self._ctxs = [s[2] for s in slots]
        self._all_plain = not any(p.manages_public_dirty for p in self._progs)
        self._live = dict.fromkeys(self._uids)

    def _rebuild_batch(self) -> None:
        self._slots = [s for s in self._slots if not s[1].halted]
        self._refresh_slot_arrays()

    # ------------------------------------------------------------------

    def _run_round(self, recorder, observers) -> None:
        net = self.network
        publics = self._publics
        actions = self._actions
        actions.clear()
        live = self._live
        ctxs = self._ctxs
        progs = self._progs

        if observers is not None:
            for obs in observers:
                obs.on_round_start(net.round)

        # 1. Send.  Only live programs send; a message to a halted
        # neighbor is legal but can never be read, so it is not enqueued.
        # Inboxes materialize lazily — most rounds carry no messages.
        inboxes: dict | None = None
        for compose, ctx in zip(self._composes, ctxs):
            out = compose(ctx)
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

        # 2. Receive + 3./4. activate/deactivate + 5. update state.  The
        # fresh public records are staged afterwards in one C-driven pass
        # (legal: nothing reads a node's context or record between its
        # transition and the bulk commit below).
        if inboxes is None:
            for transition, ctx in zip(self._transitions, ctxs):
                transition(ctx, _EMPTY_INBOX)
        else:
            get_box = inboxes.get
            for transition, ctx in zip(self._transitions, ctxs):
                transition(ctx, get_box(ctx.uid) or _EMPTY_INBOX)
        staged = [public() for public in self._publicfns] if self._all_plain else None
        next_round = net.round + 1
        for ctx in ctxs:
            ctx.round = next_round

        per_node = actions.activation_count_by_actor() if actions.activations else None
        round_no = net.round
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

        # Commit the pooled snapshots in one bulk pass (including a
        # halting program's final state, which neighbors may still read).
        if self._all_plain:
            publics.update(zip(self._uids, staged))
        else:
            for uid, prog, public, ctx in zip(
                self._uids, progs, self._publicfns, ctxs
            ):
                if prog.manages_public_dirty:
                    if prog.public_dirty:
                        publics[uid] = public()
                        prog.public_dirty = False
                else:
                    publics[uid] = public()

        if True in map(_HALTED, progs):
            self._rebuild_batch()
            progs = self._progs

        # Global segment barrier (DESIGN.md note 2).  The batch is already
        # post-transition, so the barrier cannot fire after a global halt.
        if self.use_barrier and progs and False not in map(_BARRIER_READY, progs):
            self.barrier_epoch += 1
            epoch = self.barrier_epoch
            for uid, prog, public, ctx in zip(
                self._uids, progs, self._publicfns, self._ctxs
            ):
                prog.on_barrier(epoch)
                if prog.manages_public_dirty:
                    if prog.public_dirty:
                        publics[uid] = public()
                        prog.public_dirty = False
                else:
                    publics[uid] = public()
                ctx.barrier_epoch = epoch
            # on_barrier() may halt; those programs must not run again.
            if True in map(_HALTED, progs):
                self._rebuild_batch()

        if self._probe is not None:
            self._probe.probe_round(
                round_no, live=len(ctxs), dispatch="pernode",
                acts=len(activations), deacts=len(deactivations),
            )

    # ------------------------------------------------------------------
    # external dynamics (see repro.dynamics and DESIGN.md note 8)
    # ------------------------------------------------------------------

    def _apply_adversary(self, adversary, recorder, observers) -> None:
        """Apply one adversary strike at the current round boundary.

        Mirrors the reference backend exactly; publics are already fresh
        (the batched finalize pass re-snapshots eagerly), so joined
        programs' setup() reads current broadcast state on both backends.
        """
        net = self.network
        pert = adversary.perturb(net, net.round)
        if not pert:
            return
        programs = self.programs

        joins = []
        join_uids = []
        for uid, att in pert.joins:
            if uid in programs or uid in net.nodes or uid in join_uids:
                continue
            joins.append((uid, att))
            join_uids.append(uid)

        dropped, added = net.apply_external(
            drops=pert.drops, adds=pert.adds, crashes=pert.crashes, joins=joins
        )
        crashed = [
            u for u in pert.crashes
            if u in programs and u not in net.nodes and not programs[u].crashed
        ]
        recorder.record_external(dropped, added, crashed, [(u, ()) for u in join_uids])

        for uid in crashed:
            prog = programs[uid]
            prog.crashed = True
            prog.halted = True
            self._contexts.pop(uid, None)
        if crashed:
            self._rebuild_batch()

        for uid in join_uids:
            prog = self.program_factory(uid)
            if prog.uid != uid:
                raise ConfigurationError(f"program for joined node {uid} reports uid {prog.uid}")
            programs[uid] = prog
            self._publics[uid] = prog.public()
            setup_actions = RoundActions()
            ctx = DenseContext(
                uid=uid,
                round_no=net.round,
                publics=self._publics,
                actions=setup_actions,
                network=net,
                n=net.n if self.knows_n else None,
                barrier_epoch=self.barrier_epoch,
            )
            prog.setup(ctx)
            if setup_actions:
                raise ProtocolViolation("setup() must not request edge actions")
            self._publics[uid] = prog.public()
            prog.public_dirty = False
            if not prog.halted:
                self._slots.append((uid, prog, self._context(uid)))
        if join_uids:
            self._refresh_slot_arrays()

        # Crashes/joins changed n: refresh the persistent contexts once.
        if self.knows_n:
            n = net.n
            for ctx in self._ctxs:
                ctx.n = n

        if self._conn is not None and not self._conn.rebuild():
            raise ExecutionError(
                f"adversary disconnected the network at the round-{net.round} boundary"
            )

        if observers is not None:
            record = PerturbationRecord(
                round=net.round,
                drops=frozenset(dropped),
                adds=frozenset(added),
                crashes=tuple(crashed),
                joins=tuple(joins),
            )
            for obs in observers:
                obs.on_perturbation(record)
