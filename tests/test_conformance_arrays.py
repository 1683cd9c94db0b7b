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
  (workers forced to the oracle via ``REPRO_CHECKERS=dict``) agree;
* **tamper negatives** — forged counters, phantom deactivations and
  distance-3 activations are caught by the array path with the
  oracle's exact failure strings, including the ``+N more``
  suppression past ``_MAX_DETAILS``;
* **decode equality** — ``iter_segment(..., arrays=True)`` yields
  ``RawRound``/``_PairsView`` records that are field-equal to the
  scalar decoder's ``RoundRecord``s;
* **tracker equivalence** — ``ArrayReplayTracker`` folds rounds and
  strikes to the same snapshot as ``_EdgeReplay``.
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
from repro.engine import to_binary
from repro.engine.network import Network
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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_live_verdicts_match_oracle(name):
    """Both implementations observe the same run; verdicts identical."""
    family, n = CORPUS[name]
    spec = get_scenario(name)
    arrays = make_checkers(spec.invariants, arrays=True)
    oracle = make_checkers(spec.invariants, arrays=False)
    kwargs = {"observers": [*arrays, *oracle]}
    if spec.supports_backend:
        kwargs["backend"] = "bulk"
    spec.runner(families.make(family, n), **kwargs)
    assert _sig(arrays) == _sig(oracle)


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


def test_parallel_rtb_verdicts_match_oracle(tmp_path, monkeypatch):
    """The ``.rtb`` parallel audit agrees with oracle-forced workers
    (``REPRO_CHECKERS=dict`` inherited by the pool)."""
    family, n = CORPUS["wreath-heal"]
    spec = get_scenario("wreath-heal")
    trace = _record(spec, families.make(family, n))
    path = tmp_path / "run.rtb"
    to_binary(trace, path)
    graph = families.make(family, n)
    va = check_trace_parallel(graph, path, spec.invariants, jobs=2)
    monkeypatch.setenv("REPRO_CHECKERS", "dict")
    vd = check_trace_parallel(graph, path, spec.invariants, jobs=2)
    assert _vsig(va) == _vsig(vd)


def test_default_resolves_to_arrays_env_forces_oracle(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKERS", raising=False)
    conn, leg = make_checkers(("connectivity", "temporal-legality"))
    assert isinstance(conn, ArrayConnectivityChecker)
    assert isinstance(leg, ArrayTemporalLegalityChecker)
    monkeypatch.setenv("REPRO_CHECKERS", "dict")
    conn, leg = make_checkers(("connectivity", "temporal-legality"))
    assert type(conn) is ConnectivityChecker
    assert type(leg) is TemporalLegalityChecker


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
    arr._apply_perturbation(strike)
    ref._apply_perturbation(strike)
    an, ae = arr.snapshot()
    dn, de = ref.snapshot()
    assert sorted(an) == sorted(dn)
    canon = lambda edges: sorted(tuple(sorted(e)) for e in edges)
    assert canon(ae) == canon(de)
