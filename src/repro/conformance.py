"""Online conformance checking: the paper's bounds as round observers.

Each :class:`InvariantChecker` is a
:class:`~repro.engine.observers.RoundObserver` that verifies one
invariant *while the run executes* (constant memory, no materialized
trace) and reports a :class:`Verdict` afterwards.  Scenarios declare
their invariants on the :class:`~repro.registry.ScenarioSpec`
(``invariants=``); ``repro run/sweep --check`` builds the checkers and
enforces or stamps the verdicts.

The invariant families (see DESIGN.md, "Observer pipeline &
conformance", for the paper references):

* ``connectivity`` — the active graph stays connected after every
  committed round and every adversary strike (the paper's algorithms
  never break connectivity; Lemma 2.1-style safety).
* ``temporal-legality`` — the *effective* action stream is legal over
  time: every activation joins two currently-non-adjacent nodes at
  distance exactly 2, every deactivation removes a currently active
  edge, and the per-round ``active_edges``/``activated_edges`` counters
  are consistent with the replayed edge set.  This is what catches a
  tampered trace.
* ``rounds:log`` / ``rounds:polylog`` — round-count envelopes
  ``c*log2(n) + k`` / ``c*log2(n)^2 + k`` per run segment (O(log n)
  GraphToStar, O(log^2 n) wreath constructions).
* ``edges:linear`` / ``edges:nlogn`` — per-round budget on
  ``|E(i) \\ E(1)|`` (activated edges watermark).
* ``activations:nlogn`` / ``activations:quadratic`` — cumulative
  total-activation budget per segment (O(n log n) for the
  edge-efficient transforms vs Theta(n^2) for the clique baseline).

The three budget families are one :class:`BudgetChecker`, which the
name's family keys.

Checkers recompute their size-dependent bounds at every
``on_run_start`` from the segment's own network, so multi-segment
results (pipelines, self-healing episodes, churned node counts) are
bounded per segment.  Budget constants are deliberately generous
envelopes — they assert the *asymptotic shape* with slack, not the
tightest constant — and are calibrated against the full registry corpus
(``tests/test_conformance.py`` keeps them all-green).

:func:`check_trace` replays a recorded trace through the same checkers,
so an archive (JSONL or ``.rtb``) can be audited offline with identical
semantics; :func:`check_trace_parallel` fans its segments across a
process pool.  Both run one per-segment replay loop.
"""

from __future__ import annotations

import math
import os
from functools import cached_property

import networkx as nx

from .engine.actions import edge_key
from .engine.network import ConnectivityTracker, Network
from .engine.observers import RoundObserver
from .engine.runner import frozen_heap
from .engine.trace import PerturbationRecord, Trace, sorted_edges, split_segments
from .errors import ConfigurationError, InvariantViolation

__all__ = [
    "BUDGETS",
    "ConnectivityChecker",
    "InvariantChecker",
    "InvariantViolation",
    "TemporalLegalityChecker",
    "Verdict",
    "check_trace",
    "check_trace_parallel",
    "enforce",
    "make_checkers",
    "verdict_columns",
]

#: Cap on retained failure details: verdicts stay constant-memory even
#: when an invariant fails on every round of a long run.
_MAX_DETAILS = 4

#: Control characters escaped out of :attr:`Verdict.cell` so one verdict
#: always occupies one CSV/table cell (str node labels can smuggle
#: newlines into failure details via their reprs).
_CELL_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _lbl(x) -> str:
    """A node label as embedded in failure details.

    Ints (the normal uid scheme) print bare, exactly as before; str
    labels print as their repr, so a label containing ``, `` or ``; ``
    cannot be confused with the detail's own pair/failure separators
    (the sweep-CSV corruption fixed in PR 10).
    """
    return repr(x) if isinstance(x, str) else str(x)


def _log2ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


class Verdict:
    """The outcome of one invariant over one (multi-segment) execution."""

    __slots__ = ("invariant", "ok", "detail")

    def __init__(self, invariant: str, ok: bool, detail: str = "") -> None:
        self.invariant = invariant
        self.ok = ok
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else f"FAIL ({self.detail})"
        return f"Verdict({self.invariant}: {status})"

    @property
    def cell(self) -> str:
        """Compact table/CSV cell value (``ok`` or ``FAIL: ...``).

        The detail is sanitized for single-cell embedding: backslashes
        and control characters (newline/CR/tab) are backslash-escaped,
        so a multi-failure detail round-trips through ``SweepResult``
        CSV export as exactly one field (the csv module handles ``,``
        and quotes by quoting; embedded newlines, though legal in
        quoted CSV, break line-oriented consumers and are escaped
        here).  Plain details are returned unchanged.
        """
        if self.ok:
            return "ok"
        return f"FAIL: {self.detail.translate(_CELL_ESCAPES)}"


class InvariantChecker(RoundObserver):
    """Base class: failure accounting shared by every checker."""

    #: The registry name this checker was built from (set by make_checkers).
    name = "invariant"

    #: Checkers never retain the round's effective sets beyond the
    #: ``on_round`` call, so the bulk backend may hand them a borrowed
    #: :class:`~repro.engine.observers.RawRound` view instead of paying
    #: the ``frozenset`` materialization a ``RoundRecord`` requires
    #: (the record-stream analogue of PR 7's telemetry-probe exclusion).
    accepts_raw_rounds = True

    def __init__(self) -> None:
        self._failures: list = []
        self._suppressed = 0
        self._segment = 0

    def _fail(self, detail: str) -> None:
        if len(self._failures) < _MAX_DETAILS:
            self._failures.append(detail)
        else:
            self._suppressed += 1

    @property
    def ok(self) -> bool:
        return not self._failures

    def verdict(self) -> Verdict:
        detail = "; ".join(self._failures)
        if self._suppressed:
            detail += f"; +{self._suppressed} more"
        return Verdict(self.name, self.ok, detail)

    def on_run_start(self, network) -> None:
        self._segment += 1

    def _where(self, round_no) -> str:
        return f"segment {self._segment} round {round_no}"


# ----------------------------------------------------------------------
# structural invariants (replay the edge set from the record stream)
# ----------------------------------------------------------------------


class _EdgeReplay(InvariantChecker):
    """Shared machinery: replay the stream on a reference ``Network``.

    At every run start the segment's network is copied into a fresh
    :class:`~repro.engine.network.Network`; rounds and strikes then fold
    into it, so the replayed state is a pure function of the record
    stream plus the initial network (identical on live runs and
    archived traces), and strikes, ``E(1)`` and connectivity follow the
    reference engine's own code.
    """

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._net = _reference_network(network.nodes, network.edges())

    def fold_round(self, record) -> tuple[set, set]:
        """Fold one round's effective sets, adds first, then drops, with
        no legality checking; returns the applied ``(added, gone)`` edge
        keys.  An add applies when both endpoints are known, it is no
        self-loop and its edge is not active; a drop, when its edge is
        active after the adds."""
        net = self._net
        nodes = net.nodes
        added = {
            edge_key(u, v)
            for u, v in record.activations
            if u in nodes and v in nodes and u != v and not net.has_edge(u, v)
        }
        gone = {
            e
            for e in (edge_key(u, v) for u, v in record.deactivations)
            if e in added or net.has_edge(*e)
        }
        net.commit(added, gone)
        return added, gone

    def fold_strike(self, record) -> tuple[set, set]:
        """Fold an external strike with ``Network.apply_external``;
        returns its applied ``(dropped, added)`` edge keys."""
        return _apply_strike(self._net, record)

    def snapshot(self) -> tuple:
        """The replayed graph as ``(nodes, edges)`` lists — the baseline
        the next chained segment replays against."""
        return list(self._net.nodes), list(self._net.edges())


def _reference_network(nodes, edges) -> Network:
    """A reference ``Network`` over a replayed graph (``E(1)`` is
    ``edges``): the model the replays fold into."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return Network(graph, require_connected=False)


def _apply_strike(net, record) -> tuple[set, set]:
    """``net.apply_external`` over a strike record."""
    return net.apply_external(
        drops=record.drops, adds=record.adds,
        crashes=record.crashes, joins=record.joins,
    )


class ConnectivityChecker(_EdgeReplay):
    """The active graph stays connected after every round and strike.

    Connectivity is recomputed from the replayed network, never
    trusted from the record's ``connected`` flag (which is ``True``
    whenever the run had no ``check_connectivity`` guard) — the checker
    must catch a disconnection the engine itself was not asked to watch
    for, e.g. a mis-behaving adversary claiming a safe policy.

    Incremental: activations fold into a union-find; only rounds with
    deactivations (and external strikes) pay a full recompute.
    """

    name = "connectivity"

    # The engine's ConnectivityTracker folds the *replayed* network here,
    # never the live one (offline traces have none): trusting the
    # engine's own connectivity state would defeat the audit.

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._tracker = ConnectivityTracker(self._net)

    def on_round(self, record) -> None:
        if not self._tracker.update(*self.fold_round(record)):
            self._fail(f"{self._where(record.round)}: network disconnected")

    def on_perturbation(self, record) -> None:
        self.fold_strike(record)
        if not self._tracker.rebuild():
            self._fail(
                f"segment {self._segment}: adversary strike before round "
                f"{record.round} disconnected the network"
            )


class TemporalLegalityChecker(_EdgeReplay):
    """Every effective set is legal against the replayed history.

    Checks, per round: activations target non-adjacent node pairs at
    distance exactly 2 *at the beginning of the round*; deactivations
    target currently active edges; and the committed
    ``active_edges`` / ``activated_edges`` counters match the replayed
    network (the tamper check), ``activated_edges`` being
    ``|E(i) \\ E(1)|`` against the replayed network's own ``E(1)``.
    """

    name = "temporal-legality"

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._n_activated = 0

    def on_round(self, record) -> None:
        net = self._net
        nodes = net.nodes
        where = self._where(record.round)
        # Canonical-order iteration: failure details are emitted in
        # sorted-edge order, deterministically — set iteration order is
        # not, and the array checkers must reproduce these strings
        # byte-for-byte (the PR 10 verdict-equality contract).
        for u, v in sorted_edges(record.activations):
            if u not in nodes or v not in nodes:
                self._fail(
                    f"{where}: activation ({_lbl(u)}, {_lbl(v)}) names an "
                    f"unknown node"
                )
            elif u == v:
                self._fail(f"{where}: activated self-loop ({_lbl(u)}, {_lbl(v)})")
            elif net.has_edge(u, v):
                self._fail(
                    f"{where}: activated already-active edge ({_lbl(u)}, {_lbl(v)})"
                )
            elif not net.common_neighbor_exists(u, v):
                self._fail(
                    f"{where}: activated ({_lbl(u)}, {_lbl(v)}) but endpoints "
                    f"are not at distance 2"
                )
        for u, v in sorted_edges(record.deactivations):
            if not net.has_edge(u, v):
                self._fail(
                    f"{where}: deactivated inactive edge ({_lbl(u)}, {_lbl(v)})"
                )
        added, gone = self.fold_round(record)
        original = net.original_edges
        self._n_activated += sum(e not in original for e in added) - sum(
            e not in original for e in gone
        )
        if record.active_edges != net.num_active_edges:
            self._fail(
                f"{where}: active_edges says {record.active_edges}, "
                f"replay says {net.num_active_edges}"
            )
        if record.activated_edges != self._n_activated:
            self._fail(
                f"{where}: activated_edges says {record.activated_edges}, "
                f"replay says {self._n_activated}"
            )

    def on_perturbation(self, record) -> None:
        # Strikes fold into E(1) (Network.apply_external semantics), so
        # adversary-created edges are not "activated" edges.
        self.fold_strike(record)
        self._n_activated = self._net.num_activated_edges


# ----------------------------------------------------------------------
# budget invariants (pure functions of the record stream + n)
# ----------------------------------------------------------------------


#: Per budget family: how one round moves the measured count, and what
#: a failure calls the count (None: the round envelope's own wording).
_BUDGET_FAMILIES = {
    "rounds": (lambda count, record: count + 1, None),
    "edges": (lambda count, record: record.activated_edges, "activated edges"),
    "activations": (
        lambda count, record: count + len(record.activations),
        "cumulative activations",
    ),
}


class BudgetChecker(InvariantChecker):
    """A per-segment budget ``bound_fn(n)`` on one measure of the record
    stream, flagged online once, at the first round past it.  The name's
    family picks the measure: the segment's round count (``rounds``,
    an envelope), the round's activated-edge watermark ``|E(i) \\ E(1)|``
    (``edges``) or the segment's cumulative activations
    (``activations``)."""

    def __init__(self, bound_fn, label: str) -> None:
        super().__init__()
        self._bound_fn = bound_fn
        self.name = label
        self._step, self._what = _BUDGET_FAMILIES[label.split(":", 1)[0]]

    def on_run_start(self, network) -> None:
        super().on_run_start(network)
        self._bound = self._bound_fn(len(network.nodes))
        self._count = 0
        self._flagged = False

    def on_round(self, record) -> None:
        self._count = count = self._step(self._count, record)
        if count > self._bound and not self._flagged:
            self._flagged = True
            if self._what is None:
                self._fail(
                    f"segment {self._segment}: exceeded the {self._bound}-round "
                    f"envelope at round {record.round}"
                )
            else:
                self._fail(
                    f"{self._where(record.round)}: {count} {self._what} "
                    f"exceed the budget {self._bound}"
                )


# ----------------------------------------------------------------------
# the invariant registry
# ----------------------------------------------------------------------

#: Envelope constants, calibrated against the registry corpus (measured
#: extremes at n in 16..128: star <= 13.3 log2 n rounds, wreaths
#: <= 8.5 log2^2 n rounds, committee watermarks <= 2.4n, totals
#: <= 2.2 n log2 n; centralized strategies <= 1.5 log2 n rounds).  The
#: factor-2-ish headroom asserts the asymptotic shape without flaking.
BUDGETS: dict = {
    "rounds:log": lambda n: 24 * _log2ceil(n) + 40,
    "rounds:polylog": lambda n: 14 * _log2ceil(n) ** 2 + 80,
    "edges:linear": lambda n: 4 * n + 16,
    "edges:nlogn": lambda n: 4 * n * _log2ceil(n) + 32,
    # Note there is deliberately no "edges:quadratic": the activated-edge
    # watermark |E(i) \ E(1)| can never exceed C(n,2), so a quadratic
    # watermark budget would be vacuously green on every possible run.
    # The *cumulative* quadratic budget below is falsifiable (repeated
    # deactivate/reactivate cycles exceed it), so Theta(n^2) scenarios
    # declare that one.
    "activations:nlogn": lambda n: 5 * n * _log2ceil(n) + 40,
    "activations:quadratic": lambda n: n * (n - 1) // 2,
}


def make_checkers(invariants, *, arrays: bool = True) -> list:
    """Build one fresh checker per declared invariant name.

    Names are either structural (``connectivity``,
    ``temporal-legality``) or ``family:budget`` pairs resolved through
    :data:`BUDGETS` (e.g. ``rounds:log``, ``edges:nlogn``).

    ``arrays`` selects the structural checkers' implementation: the
    array-native ones from :mod:`repro.conformance_arrays` (``True``,
    the default) or the dict-based oracle ones defined here
    (``False``), which replay on a reference
    :class:`~repro.engine.network.Network` and serve as the test oracle;
    verdicts are asserted equal either way, so the choice is a pure
    performance trade.  The array checkers built by one call share one
    :class:`~repro.conformance_arrays.ArrayReplayTracker`, so each event
    is folded once however many of them are attached; they must then
    observe the same stream in lockstep.  Budget checkers are O(1) per
    round and have one implementation.
    """
    if arrays:
        from functools import partial

        from .conformance_arrays import (
            ArrayConnectivityChecker,
            ArrayReplayTracker,
            ArrayTemporalLegalityChecker,
        )

        replay = ArrayReplayTracker()
        connectivity_cls = partial(ArrayConnectivityChecker, replay)
        legality_cls = partial(ArrayTemporalLegalityChecker, replay)
    else:
        connectivity_cls = ConnectivityChecker
        legality_cls = TemporalLegalityChecker
    checkers: list = []
    for name in invariants:
        if name == "connectivity":
            checkers.append(connectivity_cls())
        elif name == "temporal-legality":
            checkers.append(legality_cls())
        else:
            bound_fn = BUDGETS.get(name)
            if bound_fn is None:
                known = ["connectivity", "temporal-legality", *sorted(BUDGETS)]
                raise ConfigurationError(
                    f"unknown invariant {name!r}; known invariants: {known}"
                )
            checkers.append(BudgetChecker(bound_fn, name))
    return checkers


def verdict_columns(checkers) -> dict:
    """Sweep-row columns (``inv_<name>`` -> ``ok``/``FAIL: ...``)."""
    return {f"inv_{c.name}": c.verdict().cell for c in checkers}


def enforce(checkers, context: str = "") -> None:
    """Raise :class:`InvariantViolation` if any checker failed."""
    failed = [c.verdict() for c in checkers if not c.ok]
    if failed:
        lines = "; ".join(f"{v.invariant}: {v.detail}" for v in failed)
        prefix = f"{context}: " if context else ""
        raise InvariantViolation(f"{prefix}invariant(s) violated — {lines}")


# ----------------------------------------------------------------------
# offline replay: audit an archived trace with the same checkers
# ----------------------------------------------------------------------


@frozen_heap()
def check_trace(graph, trace, checkers, *, baselines: str = "chained") -> list:
    """Replay ``trace`` (recorded on ``graph``) through ``checkers``.

    ``trace`` is a :class:`Trace`, or a path to either archive format
    (sniffed by content: ``.rtb`` binary or JSONL).  Events are fed in
    ``Trace.to_jsonl`` interleave order (each perturbation before the
    first round record it precedes), which is execution order for every
    engine-produced trace.  Returns the verdicts, one per checker.

    Multi-segment archives (a composition pipeline streamed through one
    ``JsonlSink``, where each stage's records restart at round 1) are
    re-segmented exactly as the live observers saw them: every round
    reset re-enters ``on_run_start``.  ``baselines`` selects what each
    new segment replays against:

    * ``"chained"`` (default, the pipeline contract): the replayed end
      state of the previous segment — each stage runs on the previous
      stage's final graph.
    * ``"restart"``: the initial ``graph`` again — for archives that
      concatenate *independent repeated runs* on the same input (e.g. a
      benchmark loop streaming through one sink), where chaining would
      be wrong.

    Two caveats.  A perturbed multi-segment trace raises
    :class:`ConfigurationError`: its flattened perturbation list loses
    the segment association, so it cannot be replayed faithfully.  A
    self-healing history (whose inter-episode strikes are applied
    outside any run and are deliberately absent from trace data) *will*
    parse, but its post-strike segments replay against a baseline the
    strike silently changed, so the audit conservatively reports
    legality failures — it flags what it cannot validate.  Audit heal
    scenarios per episode, live.

    Like a run, an audit keeps the cyclic collector off the heap that
    exists on entry — the graph, the trace, the checkers
    (:func:`~repro.engine.runner.frozen_heap`; DESIGN.md, "Engine hot
    path").
    """
    _check_baselines(baselines)
    return _audit_inline(graph, _segment_plan(trace), checkers, baselines)


def _check_baselines(baselines: str) -> None:
    if baselines not in ("chained", "restart"):
        raise ConfigurationError(
            f"baselines must be 'chained' or 'restart', got {baselines!r}"
        )


def _reject_multisegment_perts(n_segments: int, n_perts: int) -> None:
    if n_segments > 1 and n_perts:
        raise ConfigurationError(
            "cannot audit a multi-segment trace with perturbations offline: "
            "the flattened perturbation list loses its segment association "
            "(self-healing histories audit per episode, live)"
        )


@frozen_heap()
def check_trace_parallel(
    graph, source, invariants, *, jobs: int | None = None,
    baselines: str = "chained",
) -> list:
    """Audit an archived trace with per-segment parallelism.

    ``source`` is as on :func:`check_trace`.  ``invariants`` are
    registry names as on :func:`make_checkers` — names, not instances,
    because each worker builds its own checkers.  ``jobs`` bounds the
    process pool (default: the CPU count; it must be at least 1).  With
    ``jobs=1`` or a single segment there is no pool: the audit is
    :func:`check_trace`'s, inline, on the checkers built here.

    Pool verdicts are **identical to the inline ones** for the same
    ``baselines`` mode, by construction: every worker replays one
    segment with its checkers' segment counter pre-offset (failure
    strings match inline ones), and the parent re-merges per-segment
    failures in segment order under the same ``_MAX_DETAILS`` cap and
    suppressed-count accounting one checker applies across segments.
    Binary archives are where the parallelism pays: workers seek
    straight to their segment through the index footer and decode only
    what they audit.  In ``"chained"`` mode the parent must still fold
    each segment's edge delta (one array fold per round, cheap relative
    to checking it) before dispatching the next; ``"restart"`` mode
    dispatches all segments immediately.  The pre-built heap is frozen
    for the audit, as in :func:`check_trace`.
    """
    _check_baselines(baselines)
    names = list(invariants)
    checkers = make_checkers(names)  # validates the names in the parent
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    plan = _segment_plan(source)
    if jobs == 1 or len(plan) <= 1:
        return _audit_inline(graph, plan, checkers, baselines)

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(plan))) as pool:
        # Submission is pipelined: each baseline fold (chained mode)
        # happens while earlier segments are already auditing.
        futures = [
            pool.submit(_audit_segment_task, plan[i], i, baseline, names)
            for i, baseline in _segment_baselines(graph, plan, baselines)
        ]
        results = [f.result() for f in futures]
    return _merge_segment_results(checkers, results)


def _segment_plan(source) -> list:
    """Split ``source`` into one picklable handle per segment;
    :func:`_segment_events` opens a handle.  The one place that rejects
    perturbed multi-segment archives."""
    from .engine.tracebin import BinaryTraceReader, is_binary_trace

    if isinstance(source, (str, os.PathLike)) and is_binary_trace(source):
        path = os.fspath(source)
        with BinaryTraceReader(path) as reader:
            segments = reader.segments
        _reject_multisegment_perts(
            len(segments), sum(s.n_perturbations for s in segments)
        )
        return [("rtb", path, i) for i in range(len(segments))]

    trace = source if isinstance(source, Trace) else Trace.from_jsonl(source)
    segments = split_segments(trace.records)
    _reject_multisegment_perts(len(segments), len(trace.perturbations))
    perts = sorted(trace.perturbations, key=lambda p: p.round)
    return [("mem", events) for events in _interleave_segments(segments, perts)]


def _interleave_segments(segments, perts) -> list:
    """Materialize per-segment event lists in replay order (each
    perturbation before the first round record it precedes; trailing
    perturbations end the last segment)."""
    streams = []
    pi = 0
    for si, records in enumerate(segments):
        events: list = []
        for rec in records:
            while pi < len(perts) and perts[pi].round <= rec.round:
                events.append(perts[pi])
                pi += 1
            events.append(rec)
        if si == len(segments) - 1:
            events.extend(perts[pi:])
        streams.append(events)
    return streams


def _segment_events(handle):
    """Yield one segment's events in replay order, from its plan handle
    (opened afresh by each reader: a worker, the baseline fold)."""
    kind, *payload = handle
    if kind == "mem":
        yield from payload[0]
    else:
        from .engine.tracebin import BinaryTraceReader

        path, i = payload
        with BinaryTraceReader(path) as reader:
            # Array rounds feed the array checkers natively; every
            # consumer sees the RoundRecord field surface either way.
            yield from reader.iter_segment(i, arrays=True)


def _segment_baselines(graph, plan, baselines):
    """Yield ``(i, baseline)``: segment ``i`` and the graph it replays
    against, a :class:`_ReplayNetwork`.  That is ``graph`` itself, or in
    ``"chained"`` mode the replayed end state of segment ``i - 1``,
    folded between yields (so pool submission pipelines) and only when
    a later segment consumes it: single-segment archives, every large-n
    audit, skip the fold."""
    baseline = _ReplayNetwork.of(graph)
    for i, handle in enumerate(plan):
        yield i, baseline
        if baselines == "chained" and i + 1 < len(plan):
            baseline = _replay_segment((), baseline, _segment_events(handle), chain=True)


def _replay_segment(checkers, baseline, events, chain=False):
    """Feed one segment's ``events`` to ``checkers``, as a run on
    ``baseline`` would: the one loop that dispatches recorded events
    offline, inline, in every pool worker and in the pool's baseline
    fold.  With ``chain`` a bare array replay folds the same events in
    the same pass, and its end state is returned as the next segment's
    baseline (else None)."""
    replay = None
    if chain:
        from .conformance_arrays import ArrayReplayTracker

        # The array replay folds exactly as the dict oracle's
        # ``_EdgeReplay``; both fold strikes with Network.apply_external.
        replay = ArrayReplayTracker()
        replay.on_run_start(baseline)
    for c in checkers:
        c.on_run_start(baseline)
    for event in events:
        if isinstance(event, PerturbationRecord):
            if replay is not None:
                replay.fold_strike(event)
            for c in checkers:
                c.on_perturbation(event)
        else:
            if replay is not None:
                replay.fold_round(event)
            for c in checkers:
                c.on_round_start(event.round)
                c.on_round(event)
    for c in checkers:
        c.on_run_end(None)
    return None if replay is None else _ReplayNetwork(*replay.slot_keys())


def _audit_inline(graph, plan, checkers, baselines) -> list:
    """Replay every segment in order through one checker set, whose
    failure accounting runs across segments; a chained baseline is
    folded in the same pass that checks its segment."""
    baseline = _ReplayNetwork.of(graph)
    for i, handle in enumerate(plan):
        chain = baselines == "chained" and i + 1 < len(plan)
        folded = _replay_segment(checkers, baseline, _segment_events(handle), chain)
        if chain:
            baseline = folded
    return [c.verdict() for c in checkers]


def _audit_segment_task(handle, seg_index, baseline, names):
    """Worker: replay one segment on fresh checkers, return raw failure
    accounting per checker (in :func:`make_checkers` order)."""
    checkers = make_checkers(names)
    for c in checkers:
        # Offset so failure strings carry the archive-global segment
        # number, matching inline output exactly.
        c._segment = seg_index
    _replay_segment(checkers, baseline, _segment_events(handle))
    return [(list(c._failures), c._suppressed) for c in checkers]


def _merge_segment_results(probe, results) -> list:
    """Deterministically merge per-segment failure accounting into the
    verdicts the inline audit would report: concatenate failures in
    segment order under the ``_MAX_DETAILS`` cap, roll everything past
    the cap (and each worker's own suppressed count) into ``+N more``."""
    verdicts = []
    for j, checker in enumerate(probe):
        failures: list = []
        suppressed = 0
        for per_segment in results:
            seg_failures, seg_suppressed = per_segment[j]
            for detail in seg_failures:
                if len(failures) < _MAX_DETAILS:
                    failures.append(detail)
                else:
                    suppressed += 1
            suppressed += seg_suppressed
        detail = "; ".join(failures)
        if suppressed:
            detail += f"; +{suppressed} more"
        verdicts.append(Verdict(checker.name, not failures, detail))
    return verdicts


class _ReplayNetwork:
    """A segment's baseline graph: the network surface checkers read at
    ``on_run_start``.

    It holds the sorted ``labels`` and the sorted undirected packed
    ``keys`` over their positions, which the array replay adopts as they
    are (:meth:`slot_key_arrays`, as from a live bulk network), or, for
    labels that do not sort, the label ``edges``."""

    def __init__(self, labels: list, keys=None, edges=None, dirs=None) -> None:
        self._labels = labels
        self._keys = keys
        self._edges = edges
        self._dirs = dirs

    @classmethod
    def of(cls, graph) -> _ReplayNetwork:
        """``graph`` through :func:`~repro.engine.graph_keys.adjacency_keys`."""
        from .engine.graph_keys import adjacency_keys

        try:
            uids, _, keys, dirs = adjacency_keys(graph)
        except TypeError:
            return cls(list(graph.nodes()), edges=list(graph.edges()))
        return cls(uids, keys, dirs=dirs)

    @cached_property
    def nodes(self) -> frozenset:
        return frozenset(self._labels)

    def edges(self):
        keys = self._keys
        if keys is None:
            return iter(self._edges)
        from .engine.edge_keys import MASK, SHIFT

        labels = self._labels
        return (
            (labels[a], labels[b])
            for a, b in zip((keys >> SHIFT).tolist(), (keys & MASK).tolist())
        )

    def slot_key_arrays(self):
        """``(uids, keys, dirs)``, or None for label edges or a
        self-loop (which the replay drops as it loads label pairs)."""
        from .engine.edge_keys import MASK, SHIFT, both_dirs

        keys = self._keys
        if keys is None or ((keys >> SHIFT) == (keys & MASK)).any():
            return None
        if self._dirs is None:
            self._dirs = both_dirs(keys)
        return list(self._labels), keys, self._dirs
