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
* the edge state starts as sorted arrays of packed int pairs
  (``min_idx << 32 | max_idx``), the ones a family graph carries or
  built straight from the graph's adjacency, and the array rounds
  (:meth:`DenseNetwork.apply_arrays`) keep it there;
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

from ..errors import ConfigurationError
from .actions import RoundActions, edge_key
from .network import ConnectivityTracker, Network, _illegal, _validate_label_comparability

#: Bits reserved for the minor index in a packed edge pair.  2**32 nodes
#: is far beyond any simulable size, and packed keys stay machine-sized.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


class DenseNetwork(Network):
    """The reference :class:`~repro.engine.network.Network`, held as sorted
    packed-key arrays while the bulk backend's array rounds lead.

    Its Python-side state *is* the reference's uid-keyed ``_adj``,
    ``_active``, ``_original`` and ``_frozen``, so per-edge rounds
    commit through the inherited :meth:`Network.apply` and strikes
    through the inherited :meth:`Network.apply_external`.  What this
    class adds:

    * uid interning (``_uid_of`` / ``_idx_of``), which the array rounds,
      the connectivity guard and the sparse scheduler index by;
    * the key arrays (:meth:`key_arrays`), read by
      :func:`~repro.engine.graph_keys.adjacency_keys`, which
      :meth:`apply_arrays` keeps leading.  The
      uid-keyed state is built from them on first need and afterwards
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
        import numpy as np

        from .edge_keys import MASK, uf_fold
        from .graph_keys import adjacency_keys

        if graph.number_of_nodes() == 0:
            raise ConfigurationError("initial graph must have at least one node")
        # Intern in sorted uid order: when uids are exactly 0..n-1 (every
        # built-in workload family) the interning is the identity map and
        # all index->uid translation vanishes from the hot paths.  The
        # state starts in array mode (see key_arrays): the key arrays a
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
            roots = uf_fold(np.arange(n, dtype=np.int64), keys >> _SHIFT, keys & MASK)
            if roots.any():
                raise ConfigurationError("initial graph G_s must be connected")
        #: Sorted undirected / directed / baseline key arrays (index
        #: space) while the arrays lead; all None once per-edge
        #: mutation has made the uid-keyed state lead (see key_arrays).
        self._keys, self._dir, self._orig_keys = keys, dirs, keys
        #: The uid-keyed state, built on first need (_sync_views);
        #: ``_view_keys`` is the key array ``_adj``/``_active`` reflect.
        #: ``_original`` is built on its own (original_edges).
        self._adj = self._active = self._original = None
        self._view_keys = None
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
        return _pack_pairs(self._original) if keys is None else keys

    def _uid_pairs(self, keys):
        """The uid edge keys of a sorted packed-key array, in its order."""
        lo = (keys >> _SHIFT).tolist()
        hi = (keys & _MASK).tolist()
        if self._identity:
            return zip(lo, hi)
        uid_of = self._uid_of
        return (edge_key(uid_of[i], uid_of[j]) for i, j in zip(lo, hi))

    def neighbors(self, u) -> frozenset:
        if self._keys is not self._view_keys:
            self._sync_views()
        return super().neighbors(u)

    def degree(self, u) -> int:
        if self._keys is not self._view_keys:
            self._sync_views()
        return super().degree(u)

    def has_edge(self, u, v) -> bool:
        if self._keys is not self._view_keys:
            self._sync_views()
        return super().has_edge(u, v)

    def is_original(self, u, v) -> bool:
        return edge_key(u, v) in self.original_edges

    def edges(self):
        keys = self._keys
        return super().edges() if keys is None else self._uid_pairs(keys)

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
        keys = self._keys
        return len(self._active) if keys is None else keys.size

    def activated_edges(self) -> set:
        keys = self._keys
        if keys is None:
            return super().activated_edges()
        from .edge_keys import member

        return set(self._uid_pairs(keys[~member(self._orig_keys, keys)]))

    def potential_neighbors(self, u) -> set:
        if self._keys is not self._view_keys:
            self._sync_views()
        return super().potential_neighbors(u)

    def common_neighbor_exists(self, u, v) -> bool:
        if self._keys is not self._view_keys:
            self._sync_views()
        return super().common_neighbor_exists(u, v)

    def is_connected(self) -> bool:
        if self._keys is not self._view_keys:
            self._sync_views()
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

    def key_arrays(self) -> tuple:
        """The state as sorted packed-key arrays ``(active, directed,
        original)`` (:mod:`repro.engine.edge_keys` layout, index space).

        A network starts in array mode, and :meth:`apply_arrays` keeps
        it there: the arrays lead, and the uid-keyed state follows on
        the next read.  After per-edge mutation has made that state
        lead, a call switches back.  Identity-interned networks only
        (uids exactly ``0..n-1``, none crashed) — the networks the array
        kernels accept.
        """
        if not self._identity or len(self._idx_of) != len(self._uid_of):
            raise ConfigurationError("array rounds need uids 0..n-1 with none crashed")
        if self._keys is None:
            from .edge_keys import both_dirs

            keys = _pack_pairs(self._active)
            self._keys = self._view_keys = keys
            self._dir = both_dirs(keys)
            self._orig_keys = _pack_pairs(self._original)
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
        """Bring the uid-keyed state up to the key arrays: built in full
        on first need, afterwards patched — only the edges that changed
        since it was last current are committed."""
        from .edge_keys import member

        old, new = self._view_keys, self._keys
        if self._adj is None:
            self._build_views()
            return
        self.commit(
            self._uid_pairs(new[~member(old, new)]),
            self._uid_pairs(old[~member(new, old)]),
        )
        self._view_keys = new

    def _build_views(self) -> None:
        """The uid-keyed state, built in full from the key arrays."""
        import numpy as np

        keys, dirs, uid_of = self._keys, self._dir, self._uid_of
        bounds = np.searchsorted(
            dirs, np.arange(len(uid_of) + 1, dtype=np.int64) << _SHIFT
        ).tolist()
        dst = (dirs & _MASK).tolist()
        if not self._identity:
            dst = [uid_of[j] for j in dst]
        self._adj = dict(zip(uid_of, (set(dst[a:b]) for a, b in zip(bounds, bounds[1:]))))
        self._active = set(self._uid_pairs(keys))
        self.original_edges  # built alongside: per-node paths read _original
        self._view_keys = keys

    def slot_key_arrays(self):
        """``(uids, keys, dirs)`` while the key arrays lead and hold no
        self-loop, else None: the sorted uids and the active undirected
        and directed key arrays over their positions — the array
        checkers' replay state at run start, handed over without
        unpacking an edge (both sides build new arrays, never write in
        place)."""
        keys = self._keys
        if keys is None or ((keys >> _SHIFT) == (keys & _MASK)).any():
            return None
        return list(self._uid_of), keys, self._dir

    def views(self) -> None:
        """Bring the uid-keyed state up to date.  Per-node round paths
        read ``_adj``/``_frozen``/``_original`` directly (contexts, the
        sparse scheduler), so the bulk runner calls this before building
        any of their machinery."""
        if self._keys is not self._view_keys:
            self._sync_views()

    def _drop_arrays(self) -> None:
        """Leave array mode: the uid-keyed state leads again."""
        if self._keys is not None:
            self.views()
            self._keys = self._dir = self._orig_keys = self._view_keys = None

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


def _pack_pairs(pairs):
    """The sorted packed-key array of canonical int edge keys
    (identity interning: uids are the slots)."""
    import numpy as np

    keys = np.fromiter(((u << _SHIFT) | v for u, v in pairs), np.int64, len(pairs))
    keys.sort()
    return keys


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
        keys = net._keys
        if keys is not None:
            import numpy as np

            from .edge_keys import MASK, uf_fold

            roots = uf_fold(np.arange(size, dtype=np.int64), keys >> _SHIFT, keys & MASK)
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
        return super().update(
            ((pair >> _SHIFT, pair & _MASK) for pair in activations.tolist()),
            deactivations.size,
        )
