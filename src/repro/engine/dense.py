"""Index-interned network state used by the bulk backend.

The bulk runner (:mod:`repro.engine.bulk`) keeps the network as
:class:`DenseNetwork`, the reference
:class:`~repro.engine.network.Network` plus sorted key arrays, and the
connectivity guard as :class:`DenseConnectivityTracker`, the reference
union-find over interned indices.  The contract is the bulk backend's:
byte-identical JSONL traces and equal Metrics to the reference backend
for every program (``tests/test_backend_differential`` is the oracle,
and ``tests/test_property_network`` holds both classes to the reference
ones directly).  What changes is the machinery, not the model:

* node uids are interned to dense ints ``0..n-1`` once at construction
  (joins extend the index space; indices, like uids, are never reused);
* the edge state starts as an :class:`~repro.engine.edge_keys.EdgeKeys`
  state — the sorted directed packed-key array (``i << 32 | j`` for
  both orientations of every edge), which a family graph carries or
  which is built straight from the graph's adjacency, and the slot
  degrees — and the array rounds (:meth:`DenseNetwork.apply_arrays`)
  keep it there, through the same
  :meth:`~repro.engine.edge_keys.EdgeKeys.fold` the array replay folds
  with;
* the reference network's uid-keyed state is built from the arrays on
  first need and patched from key diffs afterwards; per-edge rounds
  and strikes then run the inherited :meth:`Network.apply` and
  :meth:`Network.apply_external` on it, so the model's per-edge
  legality and its strike semantics are stated once, in
  :mod:`repro.engine.network`;
* the connectivity guard inherits
  :class:`~repro.engine.network.ConnectivityTracker`'s union-find and
  adds only the array fold of a rebuild and the uid -> index
  translation of a round's sets.

Programs see the network only through the reference
:class:`~repro.engine.program.Context`, which speaks uids and reads the
uid-keyed state.  Its neighborhood snapshots are built through
:func:`repro.engine.actions.canonical_view` on both backends, so
neighbor iteration order — and therefore every trace — is a pure
function of network contents.  DESIGN.md ("Interned
network state") spells out the equivalence argument.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from . import edge_keys as ek
from .actions import RoundActions, edge_key
from .network import ConnectivityTracker, Network, _illegal, _validate_label_comparability


class DenseNetwork(Network):
    """The reference :class:`~repro.engine.network.Network`, held as an
    :class:`~repro.engine.edge_keys.EdgeKeys` state while the bulk
    backend's array rounds lead.

    Its Python-side state *is* the reference's uid-keyed ``_adj``,
    ``_active``, ``_original`` and ``_frozen``, so per-edge rounds
    commit through the inherited :meth:`Network.apply` and strikes
    through the inherited :meth:`Network.apply_external`.  What this
    class adds:

    * uid interning (``_uid_of`` / ``_idx_of``), which the array rounds,
      the connectivity guard and the sparse scheduler index by;
    * the edge-key state (:meth:`key_state`), built from
      :func:`~repro.engine.graph_keys.adjacency_keys`, which
      :meth:`apply_arrays` keeps leading.  The
      uid-keyed state is built from it on first need and afterwards
      patched from key diffs (:meth:`views`): the read methods that walk
      adjacency, :meth:`apply` and :meth:`apply_external` bring it up to
      date first, while :meth:`edges`, :meth:`activated_edges` and the
      active-edge count read the arrays as long as those lead.  Code
      reading the state attributes directly (contexts, the sparse
      scheduler) runs only after :meth:`views`;
    * :meth:`apply_arrays`' own upkeep of the inherited
      ``|E(i) \\ E(1)|`` counter.
    """

    def __init__(self, graph: nx.Graph, *, require_connected: bool = True) -> None:
        from .graph_keys import adjacency_keys

        if graph.number_of_nodes() == 0:
            raise ConfigurationError("initial graph must have at least one node")
        # Intern in sorted uid order: when uids are exactly 0..n-1 (every
        # built-in workload family) the interning is the identity map and
        # all index->uid translation vanishes from the hot paths.  The
        # state starts in array mode (see key_state): the key arrays a
        # family graph carries, or built straight from the graph's
        # adjacency (the dict of dicts behind graph.adj, read in C).
        try:
            uid_of, idx_of, keys, dirs = adjacency_keys(graph)
        except TypeError:
            _validate_label_comparability(frozenset(graph.nodes()))
            raise
        # The node set iterates as the reference Network's does: identity
        # uids in one order however they were inserted, other labels in
        # the graph's insertion order.
        self._nodes = frozenset(uid_of if idx_of is None else graph.nodes())
        n = len(uid_of)
        self._uid_of: list = uid_of
        self._identity: bool = idx_of is None
        self._idx_of: dict = {u: u for u in uid_of} if idx_of is None else idx_of
        if require_connected and n > 1:
            roots = ek.uf_fold(np.arange(n, dtype=np.int64), keys >> ek.SHIFT, keys & ek.MASK)
            if roots.any():
                raise ConfigurationError("initial graph G_s must be connected")
        #: The active edge set (index space) and E(1) as sorted packed
        #: keys while the arrays lead; both None once per-edge mutation
        #: has made the uid-keyed state lead (see key_state).
        self._state = ek.EdgeKeys(n, dirs, keys)
        self._orig_keys = keys
        #: The uid-keyed state, built on first need (_sync_views);
        #: ``_view_dirs`` is the directed key array ``_adj``/``_active``
        #: reflect.  ``_original`` is built on its own (original_edges).
        self._adj = self._active = self._original = None
        self._view_dirs = None
        self._frozen: dict = {}
        #: ``|E(i) \ E(1)|``: every edge of G_s is original.
        self._n_activated: int = 0
        self.round = 1

    # ------------------------------------------------------------------
    # read access: the arrays while they lead, else the inherited reads
    # ------------------------------------------------------------------

    @property
    def original_edges(self) -> frozenset:
        """The external baseline edge set ``E(1)`` as uid edge keys."""
        if self._original is None:
            self._original = frozenset(self._uid_pairs(self._orig_keys))
        return self._original

    def original_keys(self):
        """``E(1)`` as a sorted packed-key array (identity interning)."""
        keys = self._orig_keys
        return ek.pack_pairs(self._original) if keys is None else keys

    def _uid_pairs(self, keys):
        """The uid edge keys of a sorted packed-key array, in its order."""
        lo = (keys >> ek.SHIFT).tolist()
        hi = (keys & ek.MASK).tolist()
        if self._identity:
            return zip(lo, hi)
        uid_of = self._uid_of
        return (edge_key(uid_of[i], uid_of[j]) for i, j in zip(lo, hi))

    def neighbors(self, u) -> frozenset:
        self.views()
        return super().neighbors(u)

    def degree(self, u) -> int:
        self.views()
        return super().degree(u)

    def has_edge(self, u, v) -> bool:
        self.views()
        return super().has_edge(u, v)

    def is_original(self, u, v) -> bool:
        return edge_key(u, v) in self.original_edges

    def edges(self):
        state = self._state
        return super().edges() if state is None else self._uid_pairs(state.keys)

    def slot_keys(self):
        """The key arrays themselves while they lead and hold no
        self-loop (:meth:`slot_key_arrays`), else the inherited read of
        the uid-keyed state, brought up to date.  Never switches modes."""
        arrays = self.slot_key_arrays()
        if arrays is None:
            self.views()
            return super().slot_keys()
        return arrays[:2]

    @property
    def num_active_edges(self) -> int:
        state = self._state
        return len(self._active) if state is None else state.size

    def activated_edges(self) -> set:
        state = self._state
        if state is None:
            return super().activated_edges()
        keys = state.keys
        return set(self._uid_pairs(keys[~ek.member(self._orig_keys, keys)]))

    def potential_neighbors(self, u) -> set:
        self.views()
        return super().potential_neighbors(u)

    def common_neighbor_exists(self, u, v) -> bool:
        self.views()
        return super().common_neighbor_exists(u, v)

    def is_connected(self) -> bool:
        self.views()
        return super().is_connected()

    # ------------------------------------------------------------------
    # per-edge rounds: the inherited apply, after leaving array mode
    # ------------------------------------------------------------------

    def apply(self, actions: RoundActions, *, strict: bool = True) -> tuple[set, set]:
        """:meth:`Network.apply` on the uid-keyed state.

        An idle round leaves the arrays leading, so it stays O(1).
        """
        if not actions.activations and not actions.deactivations:
            self.round += 1
            return set(), set()
        self._drop_arrays()
        return super().apply(actions, strict=strict)

    # ------------------------------------------------------------------
    # array rounds (the bulk backend's kernel path)
    # ------------------------------------------------------------------

    def key_state(self) -> ek.EdgeKeys:
        """The active edge set as an
        :class:`~repro.engine.edge_keys.EdgeKeys` state (index space);
        ``E(1)`` is :meth:`original_keys`.

        A network starts in array mode, and :meth:`apply_arrays` keeps
        it there: the arrays lead, and the uid-keyed state follows on
        the next read.  After per-edge mutation has made that state
        lead, a call switches back.  Identity-interned networks only
        (uids exactly ``0..n-1``, none crashed) — the networks the array
        kernels accept.
        """
        if not self._identity or len(self._idx_of) != len(self._uid_of):
            raise ConfigurationError("array rounds need uids 0..n-1 with none crashed")
        if self._state is None:
            keys = ek.pack_pairs(self._active)
            self._state = ek.EdgeKeys(len(self._uid_of), ek.both_dirs(keys), keys)
            self._view_dirs = self._state.dirs
            self._orig_keys = ek.pack_pairs(self._original)
        return self._state

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
        if not requests.act_u.size and not requests.dea_u.size:
            self.round += 1
            return ek.EMPTY, ek.EMPTY
        state = self.key_state()
        size = state.n
        codes, packed = ek.legality_codes(
            state,
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
        dea = requested_off[ek.member(state.dirs, requested_off)]
        if act.size or dea.size:
            state.fold(act, dea)
            orig = self._orig_keys
            self._n_activated += int(
                np.count_nonzero(~ek.member(orig, act))
                - np.count_nonzero(~ek.member(orig, dea))
            )
        self.round += 1
        return act, dea

    def _sync_views(self) -> None:
        """Bring the uid-keyed state up to the key arrays: built in full
        on first need, afterwards patched — only the edges that changed
        since it was last current are committed."""
        if self._adj is None:
            self._build_views()
            return
        old, new = self._view_dirs, self._state.dirs
        # The directed diff holds both orientations of each changed edge.
        added, gone = new[~ek.member(old, new)], old[~ek.member(new, old)]
        self.commit(
            self._uid_pairs(added[(added >> ek.SHIFT) <= (added & ek.MASK)]),
            self._uid_pairs(gone[(gone >> ek.SHIFT) <= (gone & ek.MASK)]),
        )
        self._view_dirs = new

    def _build_views(self) -> None:
        """The uid-keyed state, built in full from the key arrays."""
        state, uid_of = self._state, self._uid_of
        dirs = state.dirs
        bounds = ek.slice_starts(state.deg).tolist()
        dst = (dirs & ek.MASK).tolist()
        if not self._identity:
            dst = [uid_of[j] for j in dst]
        self._adj = dict(zip(uid_of, (set(dst[a:b]) for a, b in zip(bounds, bounds[1:]))))
        self._active = set(self._uid_pairs(state.keys))
        self.original_edges  # built alongside: per-node paths read _original
        self._view_dirs = dirs

    def slot_key_arrays(self):
        """``(uids, keys, dirs)`` while the key arrays lead and hold no
        self-loop, else None: the sorted uids and the active undirected
        and directed key arrays over their positions — the array
        checkers' replay state at run start, handed over without
        unpacking an edge (folds build new arrays, never write into
        these; the replay counts its own degrees)."""
        state = self._state
        if state is None:
            return None
        keys = state.keys
        if ((keys >> ek.SHIFT) == (keys & ek.MASK)).any():
            return None
        return list(self._uid_of), keys, state.dirs

    def views(self) -> None:
        """Bring the uid-keyed state up to date.  Per-node round paths
        read ``_adj``/``_frozen``/``_original`` directly (contexts, the
        sparse scheduler), so the bulk runner calls this before building
        any of their machinery."""
        state = self._state
        if state is not None and state.dirs is not self._view_dirs:
            self._sync_views()

    def _drop_arrays(self) -> None:
        """Leave array mode: the uid-keyed state leads again."""
        if self._state is not None:
            self.views()
            self._state = self._orig_keys = self._view_dirs = None

    # ------------------------------------------------------------------
    # external (adversarial) mutation: the inherited strike fold
    # ------------------------------------------------------------------

    def apply_external(self, *, drops=(), adds=(), crashes=(), joins=()) -> tuple[set, set]:
        """:meth:`Network.apply_external` on the uid-keyed state; keeps
        the interning.

        Crashed nodes' index slots are retired, never reused — exactly
        like uids.  Joined nodes extend the interning tables.
        """
        self._drop_arrays()
        result = super().apply_external(
            drops=drops, adds=adds, crashes=crashes, joins=joins
        )
        nodes, uid_of, idx_of = self._nodes, self._uid_of, self._idx_of
        for u in crashes:
            if u in idx_of and u not in nodes:
                del idx_of[u]
        for uid, _ in joins:
            if uid in nodes and uid not in idx_of:
                if not (type(uid) is int and uid == len(uid_of)):
                    self._identity = False
                idx_of[uid] = len(uid_of)
                uid_of.append(uid)
        return result


class DenseConnectivityTracker(ConnectivityTracker):
    """The connectivity guard on the interned index space.

    :class:`ConnectivityTracker`'s union-find, with parent and rank in
    flat index-keyed lists: a rebuild is one array fold while the key
    arrays lead, and the folded round sets are translated to indices.
    """

    def _rebuild(self) -> None:
        """Recompute from the network's active edges: one array fold
        while its key arrays lead, a per-pair union otherwise."""
        net = self._network
        size = len(net._uid_of)
        state = net._state
        if state is not None:
            keys = state.keys
            roots = ek.uf_fold(np.arange(size, dtype=np.int64), keys >> ek.SHIFT, keys & ek.MASK)
            # Every node points at its root, so rank 1 bounds every
            # tree's height.
            self._parent = roots.tolist()
            self._rank = (np.bincount(roots, minlength=size) > 1).astype(np.int64).tolist()
            self._components = int(np.count_nonzero(roots == np.arange(size)))
            return
        self._parent = list(range(size))
        self._rank = [0] * size
        self._components = net.n
        idx_of = net._idx_of
        for u, v in net._active:
            self._union(idx_of[u], idx_of[v])

    def update(self, activations, deactivations) -> bool:
        """Fold one round's effective uid-space action sets."""
        idx_of = self._network._idx_of
        return super().update(
            ((idx_of[u], idx_of[v]) for u, v in activations), deactivations
        )

    def update_keys(self, activations, deactivations) -> bool:
        """Fold one array round's committed sets (sorted packed keys,
        :meth:`DenseNetwork.apply_arrays`)."""
        m = int(ek.MASK)
        return super().update(
            ((pair >> ek.SHIFT, pair & m) for pair in activations.tolist()),
            deactivations.size,
        )
