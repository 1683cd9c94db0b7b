"""The streaming observer pipeline: constant-memory run observation.

Both engine backends (and the centralized executor) feed the same
small :class:`RoundObserver` hook protocol instead of materializing
state themselves:

* ``on_run_start(network)`` — a run (or pipeline stage / self-healing
  episode) begins; ``network`` is the live network after ``setup()``.
  Observers that maintain per-run state reset here, which is how one
  observer instance follows a multi-segment result (composition
  pipelines and self-healing histories call it once per stage/episode).
* ``on_round_start(round_no)`` — a round is about to execute.
* ``on_round(record)`` — a round committed; ``record`` is the exact
  :class:`~repro.engine.trace.RoundRecord` the in-memory trace would
  hold.  Called exactly once per executed round, in execution order.
* ``on_perturbation(record)`` — an adversary strike was applied at the
  round boundary (visible at the beginning of ``record.round``).
* ``on_run_end(metrics)`` — the run finished normally.

The in-memory :class:`~repro.engine.trace.Trace` is itself just one
observer (:class:`TraceObserver`, attached by ``collect_trace=True``);
:class:`JsonlSink` streams the identical records to disk line by line —
byte-identical to ``Trace.to_jsonl`` — so a large-n run can archive its
full trace with peak memory independent of round count.  The online
paper-bound invariant checkers in :mod:`repro.conformance` are a third
observer family.  See DESIGN.md, "Observer pipeline & conformance".
"""

from __future__ import annotations

import os

from .trace import (
    PerturbationRecord,
    RoundRecord,
    Trace,
    _pert_line,
    _round_line,
)


class RoundObserver:
    """Base observer: every hook is a no-op.  Subclass and override.

    The runner never inspects observer identity — any object with these
    five methods works — but subclassing keeps forward compatibility if
    the hook protocol grows.
    """

    #: Observers that never retain a round's effective sets beyond the
    #: ``on_round`` call may set this to ``True`` to receive a borrowed
    #: :class:`RawRound` view instead of a :class:`RoundRecord` — the
    #: runner then skips the per-round ``frozenset`` materialization for
    #: them (the record-stream analogue of PR 7's telemetry-probe
    #: exclusion; the online conformance checkers opt in).  Serializing
    #: observers (trace/sink) keep the default and still get the exact
    #: ``RoundRecord``.
    accepts_raw_rounds = False

    def on_run_start(self, network) -> None:
        """A run (or pipeline stage / self-healing episode) begins."""

    def on_round_start(self, round_no: int) -> None:
        """Round ``round_no`` is about to execute."""

    def on_round(self, record: RoundRecord) -> None:
        """Round ``record.round`` committed (exactly once, in order)."""

    def on_perturbation(self, record: PerturbationRecord) -> None:
        """An adversary strike was applied at a round boundary."""

    def on_run_end(self, metrics) -> None:
        """The run finished normally (``metrics`` is the final Metrics)."""


class _PairsView:
    """Lazy pair view over int64 endpoint arrays.

    Iterates Python ``(u, v)`` int tuples, so every record-stream
    consumer works unchanged; array-capable consumers (the conformance
    checkers in :mod:`repro.conformance_arrays`) read ``.u`` / ``.v``
    directly.  Order is canonical — exactly ``sorted_edges`` of the set:
    the ``.rtb`` writer sorts before delta coding, and sorted packed keys
    (:meth:`of_keys`) unpack in ``(u, v)`` order.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v) -> None:
        self.u = u
        self.v = v

    @classmethod
    def of_keys(cls, keys) -> "_PairsView":
        """The view of sorted packed keys (:mod:`repro.engine.edge_keys`)
        under identity interning, where slots are uids."""
        return cls(keys >> 32, keys & 0xFFFFFFFF)

    def __len__(self) -> int:
        return self.u.size

    def __bool__(self) -> bool:
        return self.u.size > 0

    def __iter__(self):
        return iter(zip(self.u.tolist(), self.v.tolist()))


class RawRound:
    """A committed round as the runner holds it, before materialization.

    Field-compatible with :class:`~repro.engine.trace.RoundRecord`, but
    ``activations`` / ``deactivations`` are the runner's own raw
    collections — sets of uid pairs, or a :class:`_PairsView` on array
    rounds and ``.rtb`` array decoding — **borrowed**: valid only for the
    duration of the ``on_round`` call that delivers them.  Handed
    exclusively to observers declaring ``accepts_raw_rounds = True``
    (and yielded by ``tracebin.iter_segment(..., arrays=True)``).
    """

    __slots__ = (
        "round",
        "activations",
        "deactivations",
        "active_edges",
        "activated_edges",
        "connected",
        "barrier_epoch",
    )

    def __init__(
        self,
        round,
        activations,
        deactivations,
        active_edges,
        activated_edges,
        connected,
        barrier_epoch,
    ) -> None:
        self.round = round
        self.activations = activations
        self.deactivations = deactivations
        self.active_edges = active_edges
        self.activated_edges = activated_edges
        self.connected = connected
        self.barrier_epoch = barrier_epoch


class TraceObserver(RoundObserver):
    """Materializes the classic in-memory :class:`Trace`.

    This is how ``collect_trace=True`` is implemented: the runner holds
    no trace-building code of its own anymore — the in-memory trace is
    just one observer among equals on the same record stream.
    """

    def __init__(self, trace: Trace | None = None) -> None:
        self.trace = trace if trace is not None else Trace()

    def on_round(self, record: RoundRecord) -> None:
        self.trace.append(record)

    def on_perturbation(self, record: PerturbationRecord) -> None:
        self.trace.append_perturbation(record)


class JsonlSink(RoundObserver):
    """Streams records to a JSONL file (or file-like) incrementally.

    The output is **byte-identical** to ``Trace.to_jsonl`` of the same
    run — the streaming sink is the equivalence oracle's third form
    (tests/test_backend_differential.py asserts it for every registered
    scenario on both backends).  That works because execution order *is*
    serialization order: a perturbation applied at the boundary after
    round ``k`` carries ``round == k + 1`` and is emitted after round
    ``k``'s line and before round ``k + 1``'s, exactly where
    ``Trace.to_jsonl``'s interleaving puts it.

    For multi-segment results (composition pipelines, self-healing
    histories) the sink receives every stage/episode in execution order,
    so the file is the concatenation of the per-segment ``to_jsonl``
    payloads — the same bytes ``iter_traces`` consumers would write.

    Peak memory is one line: nothing is buffered beyond the file
    object's own write buffer.  Pass a path (opened and owned by the
    sink — call :meth:`close`, or use it as a context manager) or an
    open text file-like (borrowed; never closed by the sink).
    """

    def __init__(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(os.fspath(path_or_file), "w")
            self._owns = True
        self.lines = 0

    def on_round(self, record: RoundRecord) -> None:
        self._fh.write(_round_line(record) + "\n")
        self.lines += 1

    def on_perturbation(self, record: PerturbationRecord) -> None:
        self._fh.write(_pert_line(record) + "\n")
        self.lines += 1

    def on_run_end(self, metrics) -> None:
        self._fh.flush()

    def close(self) -> None:
        if self._owns:
            self._fh.close()
            self._owns = False

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ActivityObserver(RoundObserver):
    """Bounded per-segment activity summaries for ``repro --trace``.

    Keeps at most ``limit`` active-round summary dicts per run segment
    (one segment per ``on_run_start``), so printing activity no longer
    materializes the full trace: memory is O(limit), independent of
    round count.  ``segments[i]`` lines up with the i-th ``iter_traces``
    label of the result (stages and episodes arrive in execution order).
    """

    def __init__(self, limit: int = 50) -> None:
        self.limit = limit
        self.segments: list = []

    def on_run_start(self, network) -> None:
        self.segments.append([])

    def on_round(self, record: RoundRecord) -> None:
        if not record.activations and not record.deactivations:
            return
        segment = self.segments[-1]
        if len(segment) < self.limit:
            segment.append(
                {
                    "round": record.round,
                    "activations": len(record.activations),
                    "deactivations": len(record.deactivations),
                    "active_edges": record.active_edges,
                }
            )


__all__ = [
    "ActivityObserver",
    "JsonlSink",
    "RoundObserver",
    "TraceObserver",
]
