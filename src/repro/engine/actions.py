"""Action records collected during a round."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


def _type_order(x) -> tuple:
    """A total-order proxy for labels whose types are not inter-comparable."""
    t = type(x)
    return (t.__module__, t.__qualname__, repr(x))


def edge_key(u, v) -> tuple:
    """Canonical undirected edge key.

    UIDs are normally mutually comparable (usually ints) and are ordered
    directly.  Mixed-type labels (e.g. ints alongside strings) fall back to
    a deterministic type-aware ordering instead of raising ``TypeError``;
    the fallback orders by type first, then by ``repr``, so the key is the
    same regardless of argument order.
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if _type_order(u) <= _type_order(v) else (v, u)


def canonical_view(members) -> frozenset:
    """A neighborhood snapshot with *canonical* iteration order.

    Program-visible neighbor views must iterate identically on every
    engine backend, or a program that acts while looping over
    ``ctx.neighbors`` could legally produce different (all individually
    deterministic) traces per backend.  A CPython set's iteration order
    depends on its insertion/deletion history, not only its contents —
    so both backends build views through this one helper: inserting in
    sorted order makes the layout a pure function of the contents *and
    their hashes*, and byte-identical traces become a well-defined
    equivalence oracle (DESIGN.md, "Engine backends").  Note the hash
    caveat: for salted-hash labels (strings under ``PYTHONHASHSEED``)
    the order is canonical only within one process — which is exactly
    what cross-backend equivalence needs; int uids (every built-in
    family) are canonical across processes too.
    """
    try:
        return frozenset(sorted(members))
    except TypeError:
        return frozenset(sorted(members, key=_type_order))


@dataclass
class RoundActions:
    """Activation/deactivation requests gathered from all nodes in a round.

    Each entry is ``(actor, u, v)`` where ``actor`` is the node that issued
    the request (usually ``actor == u``).
    """

    activations: list = field(default_factory=list)
    deactivations: list = field(default_factory=list)

    def request_activation(self, actor, u, v) -> None:
        self.activations.append((actor, u, v))

    def request_deactivation(self, actor, u, v) -> None:
        self.deactivations.append((actor, u, v))

    def clear(self) -> None:
        """Reset for reuse in the next round (hot-path allocation saver)."""
        self.activations.clear()
        self.deactivations.clear()

    def activation_count_by_actor(self) -> dict:
        counts: dict = {}
        for actor, _, _ in self.activations:
            counts[actor] = counts.get(actor, 0) + 1
        return counts

    def __bool__(self) -> bool:
        return bool(self.activations or self.deactivations)


class RequestArrays(NamedTuple):
    """One round's raw requests as parallel int64 arrays, in request order.

    The array form of :class:`RoundActions` that dense-activity kernels
    return: activation ``k`` is ``(act_actor[k], act_u[k], act_v[k])``,
    deactivation ``k`` likewise.  Consumed by
    :meth:`repro.engine.dense.DenseNetwork.apply_arrays`.
    """

    act_actor: object
    act_u: object
    act_v: object
    dea_actor: object
    dea_u: object
    dea_v: object
