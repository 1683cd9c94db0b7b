"""Verdict equality: array-native checkers against the dict oracle.

The array checkers (:mod:`repro.conformance_arrays`) are a pure
performance substitution — the dict checkers in
:mod:`repro.conformance` remain the oracle, and every verdict (the
``ok`` flag AND the failure detail, byte for byte) must agree.  This
suite pins that contract:

* **corpus equality, live** — both implementations ride the same run
  as observers over the full registry corpus (adversary cells
  included, so perturbation folds are exercised) and produce identical
  verdicts;
* **corpus equality, offline** — :func:`check_trace` over the recorded
  trace and :func:`check_trace_parallel` over the ``.rtb`` archive
  agree with a serial audit by the dict oracle;
* **tamper negatives** — forged counters, phantom deactivations and
  distance-3 activations are caught by the array path with the
  oracle's exact failure strings, including the ``+N more``
  suppression past ``_MAX_DETAILS``;
* **decode equality** — ``iter_segment(..., arrays=True)`` yields
  ``RawRound``/``_PairsView`` records that are field-equal to the
  scalar decoder's ``RoundRecord``s;
* **tracker equivalence** — ``ArrayReplayTracker`` folds rounds and
  strikes to the same snapshot as ``_EdgeReplay``'s reference
  ``Network``;
* **the shared replay** — the structural checkers alone and linked, in
  either hook order, live and offline, with churn and crash strikes,
  match the oracle; linked checkers fold each round that changes an
  edge once, skip idle rounds, and raise when driven out of lockstep;
* **idle rounds** — streams of rounds with no edge changes still get
  the counter tamper check and the disconnection check on every round,
  with the oracle's failure strings and suppression counts;
* **tiny rounds** — the replay's scalar fold of a round of a few
  requests agrees with its vector fold field for field (a property
  over unknown labels, self-loops, already-active edges, same-round
  add-then-drop and empty start graphs), fails illegal requests with
  the oracle's strings, and never calls ``classify``;
* **the 2-hop detour rule** — the connectivity checker that skips
  union-find rebuilds agrees with one that rebuilds every round over
  random round streams, and skips nearly all of them on wreath.
"""

import dataclasses

import pytest

np = pytest.importorskip("numpy")

from repro.conformance import (
    ConnectivityChecker,
    TemporalLegalityChecker,
    _EdgeReplay,
    check_trace,
    check_trace_parallel,
    make_checkers,
)
from repro.conformance_arrays import (
    ArrayConnectivityChecker,
    ArrayReplayTracker,
    ArrayTemporalLegalityChecker,
)
from repro.engine import NodeProgram, run_program, to_binary
from repro.engine.network import Network
from repro.engine.observers import RoundObserver
from repro.engine.trace import PerturbationRecord
from repro.graphs import families
from repro.registry import get_scenario, scenarios

#: scenario -> (family, n): mirrors tests/test_conformance.py's corpus.
CORPUS = {
    "star": ("ring", 24),
    "wreath": ("ring", 16),
    "thin-wreath": ("ring", 16),
    "clique": ("ring", 12),
    "euler": ("ring", 24),
    "cut-in-half": ("line", 17),
    "star-heal": ("ring", 16),
    "wreath-heal": ("ring", 14),
    "star+flood": ("line", 24),
    "wreath+flood": ("ring", 16),
    "flood-baseline": ("gnp", 25),
    "star+leader": ("random_tree", 21),
}


def _sig(checkers):
    return [(c.name, c.verdict().ok, c.verdict().detail) for c in checkers]


def _vsig(verdicts):
    return [(v.invariant, v.ok, v.detail) for v in verdicts]


def test_corpus_covers_registry():
    assert set(CORPUS) == {spec.name for spec in scenarios()}


# ----------------------------------------------------------------------
# corpus equality, live and offline
# ----------------------------------------------------------------------


def _assert_live_match(name, invariants):
    """Both implementations observe the same run; verdicts identical."""
    family, n = CORPUS[name]
    spec = get_scenario(name)
    arrays = make_checkers(invariants, arrays=True)
    oracle = make_checkers(invariants, arrays=False)
    kwargs = {"observers": [*arrays, *oracle]}
    if spec.supports_backend:
        kwargs["backend"] = "bulk"
    spec.runner(families.make(family, n), **kwargs)
    assert _sig(arrays) == _sig(oracle)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_live_verdicts_match_oracle(name):
    _assert_live_match(name, get_scenario(name).invariants)


def _record(spec, graph):
    """Archive a run as a Trace via the JSONL sink (works for every
    scenario shape, including self-healing ones whose result carries
    per-episode traces only)."""
    import io

    from repro.engine import JsonlSink, Trace

    buf = io.StringIO()
    spec.runner(graph, observers=[JsonlSink(buf)])
    return Trace.from_jsonl(buf.getvalue())


@pytest.mark.parametrize("name", ["star", "euler", "star-heal", "star+flood"])
def test_offline_verdicts_match_oracle(name):
    family, n = CORPUS[name]
    spec = get_scenario(name)
    trace = _record(spec, families.make(family, n))
    graph = families.make(family, n)
    va = check_trace(graph, trace,
                     make_checkers(spec.invariants, arrays=True))
    vd = check_trace(graph, trace,
                     make_checkers(spec.invariants, arrays=False))
    assert _vsig(va) == _vsig(vd)


def test_parallel_rtb_verdicts_match_oracle(tmp_path):
    """The ``.rtb`` parallel audit (array checkers in a two-worker pool)
    agrees with a serial audit by the dict oracle."""
    family, n = CORPUS["wreath-heal"]
    spec = get_scenario("wreath-heal")
    trace = _record(spec, families.make(family, n))
    path = tmp_path / "run.rtb"
    to_binary(trace, path)
    graph = families.make(family, n)
    va = check_trace_parallel(graph, path, spec.invariants, jobs=2)
    vd = check_trace(graph, trace, make_checkers(spec.invariants, arrays=False))
    assert _vsig(va) == _vsig(vd)


@pytest.mark.parametrize("name", sorted(n for n in CORPUS if not n.endswith("-heal")))
def test_offline_verdicts_equal_live(name, tmp_path):
    """One run, recorded with live checkers attached to a JSONL and an
    ``.rtb`` archive at once: every offline audit of it reports the
    live verdicts — ``check_trace`` on the ``Trace`` and on the JSONL
    path, ``check_trace_parallel`` on either path inline and through a
    two-worker pool (pipelines have two segments, so they take it).

    Heal scenarios are left out: their inter-episode strikes are not in
    the trace, so offline they stay pinned as conservatively red by
    ``tests/test_conformance.py::test_heal_archive_audits_conservatively``
    until those strikes are recorded."""
    from repro.engine import Trace, trace_sink_for

    family, n = CORPUS[name]
    spec = get_scenario(name)
    jsonl, rtb = tmp_path / "run.jsonl", tmp_path / "run.rtb"
    live = make_checkers(spec.invariants)
    sinks = [trace_sink_for(jsonl), trace_sink_for(rtb)]
    try:
        spec.runner(families.make(family, n), observers=[*sinks, *live])
    finally:
        for sink in sinks:
            sink.close()
    expected = _sig(live)
    graph = families.make(family, n)
    for source in (Trace.from_jsonl(jsonl), jsonl):
        assert _vsig(check_trace(graph, source, make_checkers(spec.invariants))) == expected
    for path in (jsonl, rtb):
        for jobs in (1, 2):
            verdicts = check_trace_parallel(graph, path, spec.invariants, jobs=jobs)
            assert _vsig(verdicts) == expected, (path.suffix, jobs)


def test_default_resolves_to_arrays():
    conn, leg = make_checkers(("connectivity", "temporal-legality"))
    assert isinstance(conn, ArrayConnectivityChecker)
    assert isinstance(leg, ArrayTemporalLegalityChecker)


def test_string_labels_fall_back_to_dict_interning():
    """Non-int labels skip the int64 uid array but still verdict-match."""
    import networkx as nx

    graph = nx.relabel_nodes(
        families.make("ring", 12), {i: f"v{i:02d}" for i in range(12)}
    )
    spec = get_scenario("star")
    arrays = make_checkers(spec.invariants, arrays=True)
    oracle = make_checkers(spec.invariants, arrays=False)
    spec.runner(graph, observers=[*arrays, *oracle])
    assert _sig(arrays) == _sig(oracle)
    assert all(ok for _, ok, _ in _sig(arrays))


# ----------------------------------------------------------------------
# tamper negatives: the array path catches, with the oracle's strings
# ----------------------------------------------------------------------


class TestTamperNegatives:
    @pytest.fixture(scope="class")
    def star_run(self):
        graph = families.make("ring", 16)
        result = get_scenario("star").runner(graph, collect_trace=True)
        return graph, result.trace

    def _tamper(self, trace, index, **changes):
        tampered = dataclasses.replace(trace.records[index], **changes)
        clone = type(trace)(
            records=list(trace.records),
            perturbations=list(trace.perturbations),
        )
        clone.records[index] = tampered
        return clone

    def _both(self, graph, trace):
        """Audit with both implementations; assert byte-equal verdicts
        and return the (array) one."""
        va = check_trace(graph, trace, [ArrayTemporalLegalityChecker()])[0]
        vd = check_trace(graph, trace, [TemporalLegalityChecker()])[0]
        assert (va.ok, va.detail) == (vd.ok, vd.detail)
        return va

    def test_distance_3_activation_caught(self, star_run):
        """An activation at distance exactly 3 (one hop past legal) is
        flagged; the pair is computed from the graph because the ring
        family shuffles node order."""
        import networkx as nx

        graph, trace = star_run
        lengths = nx.shortest_path_length(graph, 0)
        far = min(v for v, d in lengths.items() if d == 3)
        idx = next(i for i, r in enumerate(trace.records) if r.round == 1)
        tampered = self._tamper(
            trace, idx,
            activations=trace.records[idx].activations | {(0, far)},
        )
        verdict = self._both(graph, tampered)
        assert not verdict.ok
        assert "distance 2" in verdict.detail

    def test_phantom_deactivation_caught(self, star_run):
        graph, trace = star_run
        idx = next(i for i, r in enumerate(trace.records) if r.round == 1)
        tampered = self._tamper(
            trace, idx,
            deactivations=trace.records[idx].deactivations | {(3, 9)},
        )
        verdict = self._both(graph, tampered)
        assert not verdict.ok
        assert "inactive edge" in verdict.detail

    def test_forged_counters_caught(self, star_run):
        graph, trace = star_run
        mid = len(trace.records) // 2
        rec = trace.records[mid]
        tampered = self._tamper(
            trace, mid,
            active_edges=rec.active_edges + 7,
            activated_edges=rec.activated_edges + 3,
        )
        verdict = self._both(graph, tampered)
        assert not verdict.ok
        assert "active_edges" in verdict.detail

    def test_suppression_counts_match_past_max_details(self, star_run):
        """Seven illegal activations overflow ``_MAX_DETAILS``; the
        bulk-counted ``+N more`` tail must equal the oracle's."""
        graph, trace = star_run
        idx = next(i for i, r in enumerate(trace.records) if r.round == 1)
        illegal = {(0, k) for k in range(3, 10)}  # all at distance >= 3
        tampered = self._tamper(
            trace, idx,
            activations=trace.records[idx].activations | illegal,
        )
        verdict = self._both(graph, tampered)
        assert not verdict.ok
        assert "more" in verdict.detail

    def test_multi_crash_strike_purges_like_the_oracle(self, star_run):
        """One strike crashing several endpoints of activated edges: the
        array checker's one-pass purge must leave the oracle's
        activated-only set, which the next round's tamper check prints
        as the replay count."""
        from repro.engine.trace import RoundRecord

        graph, trace = star_run
        k = next(i for i, r in enumerate(trace.records) if r.activated_edges >= 4)
        touched = sorted({u for r in trace.records[: k + 1] for e in r.activations for u in e})
        crashes = tuple(touched[:3])
        head = trace.records[k].round
        forged = RoundRecord(
            round=head + 1, activations=frozenset(), deactivations=frozenset(),
            active_edges=0, activated_edges=0, connected=True, barrier_epoch=0,
        )
        clone = type(trace)(
            records=[*trace.records[: k + 1], forged],
            perturbations=[PerturbationRecord(
                round=head + 1, drops=frozenset(), adds=frozenset(),
                crashes=crashes, joins=(),
            )],
        )
        verdict = self._both(graph, clone)
        assert not verdict.ok
        assert "activated_edges says 0" in verdict.detail

    def test_connectivity_break_caught(self, star_run):
        """Deactivating a cut edge (without its replacement) must read
        as a disconnection in both implementations."""
        graph, trace = star_run
        idx = next(i for i, r in enumerate(trace.records) if r.round == 1)
        # Kill every round-1 activation and cut two real cycle edges:
        # a ring minus two edges is two arcs — disconnected.
        e1, e2, *_ = graph.edges()
        tampered = self._tamper(
            trace, idx,
            activations=frozenset(),
            deactivations=frozenset({e1, e2}),
        )
        va = check_trace(graph, tampered, [ArrayConnectivityChecker()])[0]
        vd = check_trace(graph, tampered, [ConnectivityChecker()])[0]
        assert (va.ok, va.detail) == (vd.ok, vd.detail)
        assert not va.ok
        assert "disconnected" in va.detail


# ----------------------------------------------------------------------
# decode + tracker equivalence
# ----------------------------------------------------------------------


def test_rtb_array_decode_matches_scalar(tmp_path):
    from repro.engine.observers import RawRound
    from repro.engine.tracebin import BinaryTraceReader

    family, n = CORPUS["star-heal"]
    trace = _record(get_scenario("star-heal"), families.make(family, n))
    path = tmp_path / "run.rtb"
    to_binary(trace, path)
    reader = BinaryTraceReader(path)
    saw_array = False
    for si in range(len(reader.segments)):
        scalar = list(reader.iter_segment(si))
        vector = list(reader.iter_segment(si, arrays=True))
        assert len(scalar) == len(vector)
        for s, v in zip(scalar, vector):
            if isinstance(s, PerturbationRecord):
                assert v == s
                continue
            saw_array = saw_array or isinstance(v, RawRound)
            assert v.round == s.round
            assert v.active_edges == s.active_edges
            assert v.activated_edges == s.activated_edges
            assert v.connected == s.connected
            assert v.barrier_epoch == s.barrier_epoch
            assert list(v.activations) == sorted(s.activations)
            assert list(v.deactivations) == sorted(s.deactivations)
    assert saw_array  # int-label archives must take the vector path


def test_tracker_snapshot_matches_dict_fold():
    """A star run's rounds, then a strike that drops, adds, crashes and
    joins, fold to the same snapshot on the array replay as on the dict
    replay's reference ``Network`` (both fold the strike with
    ``Network.apply_external``)."""
    graph = families.make("ring", 16)
    result = get_scenario("star").runner(graph, collect_trace=True)
    net = Network(families.make("ring", 16), require_connected=False)
    arr = ArrayReplayTracker()
    arr.on_run_start(net)
    ref = _EdgeReplay()
    ref.on_run_start(net)
    for rec in result.trace.records:
        arr.fold_round(rec)
        ref.fold_round(rec)
    strike = PerturbationRecord(
        round=len(result.trace.records),
        drops=frozenset({(0, 1)}),
        adds=frozenset({(2, 9)}),
        crashes=(5,),
        joins=((99, (0, 2)),),
    )
    arr.fold_strike(strike)
    ref.fold_strike(strike)
    an, ae = arr.snapshot()
    dn, de = ref.snapshot()
    assert sorted(an) == sorted(dn)
    canon = lambda edges: sorted(tuple(sorted(e)) for e in edges)
    assert canon(ae) == canon(de)


# ----------------------------------------------------------------------
# the shared replay: linked checkers, alone, in either order
# ----------------------------------------------------------------------

#: Structural invariant selections: each checker alone (a private
#: replay in effect) and both linked, in either hook order.
SELECTIONS = [
    ("connectivity",),
    ("temporal-legality",),
    ("connectivity", "temporal-legality"),
    ("temporal-legality", "connectivity"),
]


class _Idle(NodeProgram):
    def transition(self, ctx, inbox):
        if ctx.round >= 10:
            self.halt()


@pytest.mark.parametrize("selection", SELECTIONS, ids="+".join)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_linked_live_verdicts_match_oracle(name, selection):
    _assert_live_match(name, selection)


@pytest.mark.parametrize("selection", SELECTIONS, ids="+".join)
@pytest.mark.parametrize("kind", ["churn", "crash"])
def test_linked_live_strikes_match_oracle(kind, selection):
    """Live adversary strikes (on_perturbation) through linked checkers."""
    from repro.dynamics.adversary import AdversarySpec, make_adversary

    arrays = make_checkers(selection, arrays=True)
    oracle = make_checkers(selection, arrays=False)
    result = run_program(
        families.make("ring", 24),
        _Idle,
        collect_trace=True,
        observers=[*arrays, *oracle],
        adversary=make_adversary(
            AdversarySpec(kind=kind, rate=0.2, seed=3, policy="reroute", start=2, period=2)
        ),
        backend="bulk",
    )
    assert result.trace.perturbations  # the strikes really landed
    assert _sig(arrays) == _sig(oracle)


def _struck_star_trace():
    """A star trace with a crash strike and a churn strike (crashes,
    joins and adds) folded in mid-run.  After them the committed counters
    disagree with the replay, and the join of 42 with no attachment
    leaves it isolated, so both checkers have failures to print."""
    graph = families.make("ring", 16)
    trace = get_scenario("star").runner(graph, collect_trace=True).trace
    rounds = [r.round for r in trace.records]
    a, b = rounds[len(rounds) // 3], rounds[2 * len(rounds) // 3]
    crash = PerturbationRecord(
        round=a, drops=frozenset({(0, 1)}), adds=frozenset(), crashes=(5, 11), joins=(),
    )
    churn = PerturbationRecord(
        round=b, drops=frozenset(), adds=frozenset({(2, 9)}), crashes=(7,),
        joins=((40, (0, 2)), (41, (40,)), (42, ())),
    )
    struck = type(trace)(records=list(trace.records), perturbations=[crash, churn])
    return graph, struck


@pytest.mark.parametrize("selection", SELECTIONS, ids="+".join)
def test_linked_offline_verdicts_match_oracle(selection, tmp_path):
    """``check_trace`` and ``check_trace_parallel`` (JSONL and ``.rtb``)
    over a struck trace: linked array verdicts equal the oracle's."""
    graph, trace = _struck_star_trace()
    oracle = _vsig(check_trace(graph, trace, make_checkers(selection, arrays=False)))
    assert _vsig(check_trace(graph, trace, make_checkers(selection, arrays=True))) == oracle
    assert not any(ok for _, ok, _ in oracle)
    jsonl = tmp_path / "run.jsonl"
    jsonl.write_text(trace.to_jsonl())
    rtb = tmp_path / "run.rtb"
    to_binary(trace, rtb)
    for path in (jsonl, rtb):
        va = check_trace_parallel(graph, path, selection, jobs=1)
        assert _vsig(va) == oracle


def test_make_checkers_links_one_replay():
    conn, leg, _ = make_checkers(("connectivity", "temporal-legality", "rounds:log"), arrays=True)
    assert conn._replay is leg._replay
    assert isinstance(conn._replay, ArrayReplayTracker)
    (alone,) = make_checkers(("connectivity",), arrays=True)
    assert alone._replay is not conn._replay
    assert ArrayConnectivityChecker()._replay is not ArrayTemporalLegalityChecker()._replay


def _round(no, acts=(), deacts=()):
    from repro.engine.trace import RoundRecord

    return RoundRecord(
        round=no, activations=frozenset(acts), deactivations=frozenset(deacts),
        active_edges=0, activated_edges=0, connected=True, barrier_epoch=0,
    )


def test_linked_checkers_out_of_lockstep_raise():
    net = Network(families.make("ring", 8), require_connected=False)
    first, second = _round(1), _round(2)
    # One checker runs ahead of the other.
    conn, leg = make_checkers(("connectivity", "temporal-legality"), arrays=True)
    conn.on_run_start(net)
    leg.on_run_start(net)
    conn.on_round(first)
    with pytest.raises(RuntimeError, match="out of lockstep"):
        conn.on_round(second)
    # The other checker is handed a different event than the one folded.
    conn, leg = make_checkers(("connectivity", "temporal-legality"), arrays=True)
    conn.on_run_start(net)
    leg.on_run_start(net)
    conn.on_round(first)
    with pytest.raises(RuntimeError, match="out of lockstep"):
        leg.on_round(second)
    # A checker that skipped an event can never catch up.
    conn, leg = make_checkers(("connectivity", "temporal-legality"), arrays=True)
    conn.on_run_start(net)
    leg.on_run_start(net)
    conn.on_round(first)
    leg.on_round(first)
    conn.on_round(second)
    with pytest.raises(RuntimeError, match="out of lockstep"):
        leg.on_perturbation(
            PerturbationRecord(
                round=3, drops=frozenset(), adds=frozenset(), crashes=(), joins=()
            )
        )


# ----------------------------------------------------------------------
# idle rounds: no edge work, but every per-round check still runs
# ----------------------------------------------------------------------


def _idle_streams():
    """Streams of idle and tiny rounds on an 8-node path.  ``forged``:
    round 1 activates (0, 2) legally, then the idle rounds carry forged
    counters.  ``disconnected``: round 1 drops the path's middle edge,
    then every idle round must report the split.  ``tamper``: rounds of
    a few requests each (the replay's tiny fold) naming an unknown
    node, a self-loop, an already-active edge, a distance-3 pair and an
    inactive edge to drop, between legal ones, with true counters.
    Each has more failures than ``_MAX_DETAILS``."""
    import networkx as nx

    from repro.engine.trace import RoundRecord

    graph = nx.path_graph(8)

    def rnd(no, acts=(), deacts=(), active=7, activated=0):
        return RoundRecord(
            round=no, activations=frozenset(acts), deactivations=frozenset(deacts),
            active_edges=active, activated_edges=activated, connected=True,
            barrier_epoch=0,
        )

    forged = [rnd(1, acts=[(0, 2)], active=8, activated=1)]
    for no in range(2, 12):
        active, activated = (8, 1) if no % 4 == 0 else (8 + no, 1 + no % 2)
        forged.append(rnd(no, active=active, activated=activated))
    disconnected = [rnd(1, deacts=[(3, 4)], active=6)]
    disconnected += [rnd(no, active=6) for no in range(2, 12)]
    tamper = [
        rnd(1, acts=[(0, 99), (3, 3), (0, 1), (0, 3)], active=8, activated=1),
        rnd(2, acts=[(2, 4)], deacts=[(2, 6)], active=9, activated=2),
        rnd(3, acts=[(5, 5)], deacts=[(0, 3)], active=8, activated=1),
        rnd(4, acts=[(4, 6)], deacts=[(2, 4)], active=8, activated=1),
        rnd(5, acts=[(7, 8)], deacts=[(1, 5)], active=8, activated=1),
    ]
    return graph, {"forged": forged, "disconnected": disconnected, "tamper": tamper}


def _raw(record):
    """The record as a runner hands it to a raw-round observer."""
    from repro.engine.observers import RawRound

    return RawRound(
        record.round, set(record.activations), set(record.deactivations),
        record.active_edges, record.activated_edges, record.connected,
        record.barrier_epoch,
    )


@pytest.mark.parametrize("selection", SELECTIONS, ids="+".join)
@pytest.mark.parametrize("stream", ["forged", "disconnected", "tamper"])
def test_idle_rounds_keep_per_round_checks(stream, selection):
    """Array verdicts equal the oracle's, byte for byte, on streams of
    idle and tiny rounds: forged counters are still compared, a
    disconnected replay still fails each round, and the tiny fold's
    legality codes fail illegal requests, past the ``_MAX_DETAILS``
    cap — alone and linked, live (raw rounds) and through
    ``check_trace``."""
    from repro.conformance_arrays import _TINY
    from repro.engine.trace import Trace

    graph, streams = _idle_streams()
    records = streams[stream]
    if stream == "tamper":
        assert all(len(r.activations) + len(r.deactivations) <= _TINY for r in records)
    arrays = make_checkers(selection, arrays=True)
    oracle = make_checkers(selection, arrays=False)
    net = Network(graph, require_connected=False)
    for checker in (*arrays, *oracle):
        checker.on_run_start(net)
    for record in records:
        raw = _raw(record)
        for checker in arrays:
            checker.on_round(raw)
        for checker in oracle:
            checker.on_round(record)
    live = _sig(arrays)
    assert live == _sig(oracle)
    trace = Trace(records=records, perturbations=[])
    offline = _vsig(check_trace(graph, trace, make_checkers(selection, arrays=True)))
    assert offline == _vsig(check_trace(graph, trace, make_checkers(selection, arrays=False)))
    assert offline == live
    failing = {
        "forged": "temporal-legality",
        "disconnected": "connectivity",
        "tamper": "temporal-legality",
    }[stream]
    for name, ok, detail in live:
        if name == failing:
            assert not ok and "more" in detail
        elif stream != "disconnected":
            assert ok
    if stream == "disconnected" and "temporal-legality" in selection:
        (detail,) = [d for name, _, d in live if name == "temporal-legality"]
        assert "active_edges" not in detail and "activated_edges" not in detail


def test_shared_replay_slots_each_round_once(monkeypatch):
    """Both checkers attached: each round that changes an edge is
    slotted once — two ``_to_slots`` calls (the activations and the
    deactivations) or one tiny fold — and an idle round not at all, so
    a second fold per checker would show; nor is anything slotted at
    the run start, where the replay adopts the bulk network's own key
    arrays (``DenseNetwork.slot_key_arrays``)."""
    calls = []
    to_slots = ArrayReplayTracker._to_slots
    fold_tiny = ArrayReplayTracker._fold_tiny

    def counting(self, edges):
        calls.append("slots")
        return to_slots(self, edges)

    def counting_tiny(self, apairs, dpairs):
        calls.append("tiny")
        return fold_tiny(self, apairs, dpairs)

    monkeypatch.setattr(ArrayReplayTracker, "_to_slots", counting)
    monkeypatch.setattr(ArrayReplayTracker, "_fold_tiny", counting_tiny)
    busy = []

    class BusyRounds(RoundObserver):
        accepts_raw_rounds = True

        def on_round(self, record):
            busy.append(bool(record.activations or record.deactivations))

    spec = get_scenario("star")
    checkers = make_checkers(spec.invariants, arrays=True)
    result = spec.runner(
        families.make("ring", 32), backend="bulk", observers=[*checkers, BusyRounds()]
    )
    assert all(c.ok for c in checkers)
    assert len(busy) == result.rounds and 0 < sum(busy) < result.rounds
    assert "slots" in calls and "tiny" in calls  # both fold paths ran
    assert calls.count("slots") + 2 * calls.count("tiny") == 2 * sum(busy)


def test_detour_rule_skips_most_rebuilds(monkeypatch):
    """wreath on increasing_ring, n=1024, checked: the connectivity
    checker used to rebuild on every round that dropped an edge; with
    the 2-hop detour rule it rebuilds on at most 5% of them."""
    rebuilds = []
    rebuild = ArrayConnectivityChecker._rebuild

    def counting(self):
        rebuilds.append(1)
        rebuild(self)

    monkeypatch.setattr(ArrayConnectivityChecker, "_rebuild", counting)
    drop_rounds = []

    class DropRounds(RoundObserver):
        accepts_raw_rounds = True

        def on_round(self, record):
            drop_rounds.append(bool(record.deactivations))

    spec = get_scenario("wreath")
    checkers = make_checkers(spec.invariants, arrays=True)
    spec.runner(
        families.make("increasing_ring", 1024), backend="bulk",
        observers=[*checkers, DropRounds()],
    )
    assert checkers[0].name == "connectivity" and checkers[0].ok
    assert sum(drop_rounds) > 1000
    assert len(rebuilds) <= 0.05 * sum(drop_rounds)


def test_one_edge_round_skips_classify(monkeypatch):
    """A 1-edge round takes the tiny fold: its legality codes come from
    the fold's own probes, never from ``edge_keys.classify``."""
    import repro.conformance_arrays as ca
    from repro.engine import edge_keys

    def boom(*args, **kwargs):
        raise AssertionError("classify called on a tiny round")

    monkeypatch.setattr(ca, "classify", boom)
    monkeypatch.setattr(edge_keys, "classify", boom)
    import networkx as nx

    conn, leg = make_checkers(("connectivity", "temporal-legality"), arrays=True)
    net = Network(nx.cycle_graph(8), require_connected=False)
    conn.on_run_start(net)
    leg.on_run_start(net)
    first, second = _round(1, acts=[(0, 2)]), _round(2, acts=[(0, 4)])
    first = dataclasses.replace(first, active_edges=9, activated_edges=1)
    second = dataclasses.replace(second, active_edges=10, activated_edges=2)
    for record in (_raw(first), _raw(second)):
        conn.on_round(record)
        leg.on_round(record)
    assert conn.ok
    assert leg.verdict().detail == (
        "segment 1 round 2: activated (0, 4) but endpoints are not at distance 2"
    )


# ----------------------------------------------------------------------
# the 2-hop detour rule against a rebuild on every round
# ----------------------------------------------------------------------


class _RebuildEveryRound(ArrayConnectivityChecker):
    """The union-find recomputed from the key array after every round."""

    def on_round(self, record) -> None:
        self._read(self._replay.fold_round, record)
        self._rebuild()
        if self._components > 1:
            self._fail(f"{self._where(record.round)}: network disconnected")


def _assert_agree(edges, rounds, n):
    """Feed one stream to the detour-rule checker, the rebuild-every-
    round checker and the dict oracle; assert equal verdicts and return
    the detour-rule checker's."""
    import networkx as nx

    from repro.engine.trace import Trace

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    trace = Trace(
        records=[_round(i + 1, acts, deacts) for i, (acts, deacts) in enumerate(rounds)],
        perturbations=[],
    )
    checkers = [ArrayConnectivityChecker(), _RebuildEveryRound(), ConnectivityChecker()]
    skip, every, oracle = _vsig(check_trace(graph, trace, checkers))
    assert skip == every == oracle
    return skip


@pytest.mark.parametrize(
    "edges,rounds,ok",
    [
        # A drop that disconnects: the path 0-1-2-3-4 loses an edge.
        ([(0, 1), (1, 2), (2, 3), (3, 4)], [((), [(1, 2)])], False),
        # (0, 1)'s only detour, via 2, is dropped the same round.
        ([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], [((), [(0, 1), (1, 2)])], False),
        # Adds and drops together: (0, 2) is added and is (0, 1)'s detour.
        ([(0, 1), (1, 2), (2, 3), (3, 4)], [([(0, 2)], [(0, 1)])], True),
        # Already disconnected at the start; an add joins the halves,
        # then a detoured drop keeps them joined.
        ([(0, 1), (2, 3), (3, 4)], [((), ()), ([(1, 2)], ()), ([(0, 2)], [(0, 1)])], False),
        # Disconnected, and a detoured drop does not reconnect it; a
        # later add does.
        ([(0, 1), (1, 2), (0, 2), (3, 4)], [((), [(0, 1)]), ([(2, 3)], ())], False),
    ],
)
def test_detour_rule_cases(edges, rounds, ok):
    _, verdict_ok, _ = _assert_agree(edges, rounds, 5)
    assert verdict_ok is ok


try:
    from unittest import mock

    from hypothesis import given, strategies as st
except ImportError:  # pragma: no cover - property tests skip without hypothesis
    given = None

if given is not None:

    @given(data=st.data(), n=st.integers(min_value=2, max_value=7))
    def test_detour_rule_matches_rebuild_every_round(data, n):
        """Random streams — drops of live edges (so disconnections and
        dropped detours happen), adds of any pair, both in one round,
        start graphs that may already be disconnected."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        live = set(edges)
        rounds = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            acts = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3))
            live |= set(acts)
            drops = (
                data.draw(st.lists(st.sampled_from(sorted(live)), unique=True, max_size=4))
                if live
                else []
            )
            live -= set(drops)
            rounds.append((acts, drops))
        _assert_agree(edges, rounds, n)

    def _fold_all(edges, rounds, n, tiny):
        """Fold ``rounds`` into a replay of ``edges`` over slots ``0..n-1``
        (the vector fold alone when not ``tiny``); per round, the step's
        fields, the activations' legality codes and the post-round state."""
        import repro.conformance_arrays as ca
        from repro.engine.edge_keys import classify
        from repro.engine.observers import _PairsView

        replay = ArrayReplayTracker()
        replay._start(list(range(n)), list(edges))
        out = []
        with mock.patch.object(ca, "_TINY", ca._TINY if tiny else 0):
            for acts, deacts, as_view in rounds:
                if as_view:  # the .rtb decode / kernel form: sorted arrays
                    acts, deacts = (
                        _PairsView(
                            np.array([u for u, _ in sorted(p)], dtype=np.int64),
                            np.array([v for _, v in sorted(p)], dtype=np.int64),
                        )
                        for p in (acts, deacts)
                    )
                step = replay.fold_round(_round(len(out) + 1, acts, deacts))
                codes = step.codes
                if codes is None:
                    codes = classify(step.dirs, step.su, step.sv, step.a_on, step.starts)
                out.append((
                    [step.albl(k) for k in range(step.a_on.size)],
                    [step.dlbl(k) for k in range(step.d_on.size)],
                    *(a.tolist() for a in (step.a_on, step.d_on, step.added, step.gone)),
                    codes.tolist(), replay._state.dirs.tolist(), replay._state.deg.tolist(),
                ))
        return out

    @given(data=st.data(), n=st.integers(min_value=1, max_value=6))
    def test_tiny_fold_matches_vector_fold(data, n):
        """Rounds of at most ``_TINY`` requests fold the same through the
        tiny path and the vector path: membership, applied keys,
        legality codes, label order, directed array and degrees.  Labels
        run one past each end (unknown nodes), pairs may be self-loops
        or already active, a drop may undo the same round's add, and
        the start graph may be empty."""
        from repro.conformance_arrays import _TINY

        labels = st.integers(min_value=-1, max_value=n)
        pairs = st.tuples(labels, labels)
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
        ))
        rounds = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            acts = data.draw(st.sets(pairs, max_size=_TINY))
            deacts = data.draw(st.sets(
                st.sampled_from(sorted(acts)) | pairs if acts else pairs,
                max_size=_TINY - len(acts),
            ))
            rounds.append((acts, deacts, data.draw(st.booleans())))
        assert _fold_all(edges, rounds, n, True) == _fold_all(edges, rounds, n, False)
