"""Online conformance layer: paper-bound invariants as observers.

Three tiers of evidence:

* **all-green corpus** — every registered scenario runs under its
  declared invariants on both backends and every verdict is ``ok``
  (the CI conformance corpus of the ISSUE);
* **mutation-style negatives** — deliberately broken targets must be
  *caught*: a scripted adversary that disconnects the network (the
  "mis-declared skip policy" failure), a tampered trace with an illegal
  effective set, forged counters, and budget-busting workloads each
  fire their invariant class, proving the checks can actually fail;
* **replay equivalence** — :func:`repro.conformance.check_trace` on the
  recorded trace returns the same verdicts the live observers produced.
"""

import dataclasses

import pytest

from repro import conformance
from repro.conformance import (
    ConnectivityChecker,
    TemporalLegalityChecker,
    Verdict,
    check_trace,
    make_checkers,
    verdict_columns,
)
from repro.dynamics import ScriptedAdversary
from repro.engine import BACKENDS, NodeProgram, run_program
from repro.errors import ConfigurationError, InvariantViolation
from repro.graphs import families
from repro.registry import get_scenario, scenarios

#: scenario -> (family, n): the conformance corpus (runs in the unit matrix).
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


def test_every_scenario_declares_invariants():
    for spec in scenarios():
        assert spec.invariants, f"{spec.name} declares no invariants"
        # Names must resolve (typos fail at declaration, not at --check).
        make_checkers(spec.invariants)


def test_corpus_covers_registry():
    assert set(CORPUS) == {spec.name for spec in scenarios()}


def _corpus_all_green(name, backend, arrays):
    family, n = CORPUS[name]
    spec = get_scenario(name)
    if not spec.supports_backend and backend != "reference":
        pytest.skip("centralized strategies have no backend")
    checkers = make_checkers(spec.invariants, arrays=arrays)
    kwargs = {"observers": checkers}
    if spec.supports_backend:
        kwargs["backend"] = backend
    spec.runner(families.make(family, n), **kwargs)
    columns = verdict_columns(checkers)
    assert all(v == "ok" for v in columns.values()), columns


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_all_green(name, backend):
    """The array checkers (the default) are green on the corpus."""
    _corpus_all_green(name, backend, arrays=True)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_all_green_oracle(name, backend):
    """The dict oracle, replaying on a reference ``Network``, is green
    on the corpus by itself."""
    _corpus_all_green(name, backend, arrays=False)


def test_live_and_replay_verdicts_agree():
    """check_trace on the recorded bytes reproduces the live verdicts."""
    spec = get_scenario("star")
    graph = families.make("ring", 20)
    live = make_checkers(spec.invariants)
    result = spec.runner(graph, collect_trace=True, observers=live)
    replayed = check_trace(graph, result.trace, make_checkers(spec.invariants))
    assert [(v.invariant, v.ok) for v in replayed] == [
        (c.name, c.ok) for c in live
    ]
    assert all(v.ok for v in replayed)


def test_multi_segment_archive_replays_green():
    """Regression: a streamed pipeline archive (stages concatenated, each
    restarting at round 1) must audit green offline — segment 2 replays
    against stage 1's reconstructed final graph, not against G_s."""
    import io

    from repro.engine import JsonlSink, Trace

    spec = get_scenario("star+flood")
    graph = families.make("line", 24)
    live = make_checkers(spec.invariants)
    buf = io.StringIO()
    spec.runner(graph, observers=[JsonlSink(buf), *live])
    assert all(c.ok for c in live)
    archive = Trace.from_jsonl(buf.getvalue())
    replayed = check_trace(graph, archive, make_checkers(spec.invariants))
    assert [(v.invariant, v.ok, v.detail) for v in replayed] == [
        (c.name, True, "") for c in live
    ]


def test_chained_audit_decodes_each_segment_once(monkeypatch, tmp_path):
    """An inline chained audit folds each segment's baseline in the pass
    that checks it: every segment of a pipeline archive is decoded once,
    in order, and the verdicts stay the live ones."""
    from repro.conformance import check_trace_parallel
    from repro.engine.tracebin import BinaryTraceReader, trace_sink_for

    spec = get_scenario("star+flood")
    graph = families.make("line", 64)
    path = str(tmp_path / "run.rtb")
    live = make_checkers(spec.invariants)
    sink = trace_sink_for(path)
    try:
        spec.runner(graph, observers=[sink, *live])
    finally:
        sink.close()
    decoded = []
    real = BinaryTraceReader.iter_segment

    def counted(self, i, *args, **kwargs):
        decoded.append(i)
        return real(self, i, *args, **kwargs)

    monkeypatch.setattr(BinaryTraceReader, "iter_segment", counted)
    verdicts = check_trace_parallel(graph, path, spec.invariants, jobs=1)
    assert decoded == [0, 1]
    assert [(v.invariant, v.ok, v.detail) for v in verdicts] == [
        (c.name, True, "") for c in live
    ]


def test_multi_segment_tamper_still_caught_offline():
    """Re-segmentation must not weaken the audit: tampering a record in
    the *second* stage of a pipeline archive is still flagged."""
    import io

    from repro.engine import JsonlSink, Trace

    spec = get_scenario("star+flood")
    graph = families.make("line", 24)
    buf = io.StringIO()
    spec.runner(graph, observers=[JsonlSink(buf)])
    archive = Trace.from_jsonl(buf.getvalue())
    # Second segment = the flood stage (rounds restart at 1).
    resets = [i for i, r in enumerate(archive.records) if r.round == 1]
    assert len(resets) == 2
    target = resets[1]
    archive.records[target] = dataclasses.replace(
        archive.records[target],
        active_edges=archive.records[target].active_edges + 3,
    )
    replayed = check_trace(graph, archive, [TemporalLegalityChecker()])
    assert not replayed[0].ok
    assert "segment 2" in replayed[0].detail


def test_heal_archive_audits_conservatively():
    """A self-healing archive's inter-episode strikes are outside trace
    data, so offline replay of the post-strike episodes flags legality
    failures rather than silently trusting an unreconstructable
    baseline (documented: audit heal scenarios per episode, live)."""
    import io

    from repro.engine import JsonlSink, Trace

    graph = families.make("ring", 16)
    buf = io.StringIO()
    result = get_scenario("star-heal").runner(graph, observers=[JsonlSink(buf)])
    assert len(result.episodes) > 1, "no repair episode; weak test"
    archive = Trace.from_jsonl(buf.getvalue())
    verdicts = check_trace(graph, archive, [TemporalLegalityChecker()])
    assert not verdicts[0].ok
    assert "segment 2" in verdicts[0].detail


def test_perturbed_multi_segment_archive_rejected():
    """A flattened multi-segment trace with perturbations cannot be
    audited offline; it must be rejected, not mis-verdicted."""
    from repro.engine import PerturbationRecord, RoundRecord, Trace

    trace = Trace()
    for rnd in (1, 2, 1, 2):  # two segments
        trace.append(RoundRecord(rnd, frozenset(), frozenset(), 3, 0, True))
    trace.append_perturbation(
        PerturbationRecord(2, frozenset(), frozenset(), (), ())
    )
    with pytest.raises(ConfigurationError, match="multi-segment"):
        check_trace(families.make("ring", 3), trace, [ConnectivityChecker()])


# ----------------------------------------------------------------------
# mutation-style negatives: the invariants must be able to fire
# ----------------------------------------------------------------------


class _Idle(NodeProgram):
    def transition(self, ctx, inbox):
        if ctx.round >= 10:
            self.halt()


class _Slowpoke(NodeProgram):
    """Runs Theta(n) rounds: busts every log-ish round envelope."""

    def transition(self, ctx, inbox):
        if ctx.n is not None and ctx.round >= 4 * ctx.n:
            self.halt()


def run_slowpoke(graph, **kwargs):
    return run_program(graph, _Slowpoke, knows_n=True, **kwargs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_disconnecting_adversary_is_caught(backend):
    """Invariant class 1 (connectivity): an adversary that cuts a ring
    edge twice disconnects the network; the engine (with no connectivity
    guard) executes on, but the conformance layer flags it — exactly the
    mis-declared 'skip' policy failure mode."""
    import networkx as nx

    checker = ConnectivityChecker()
    res = run_program(
        nx.cycle_graph(10),  # uids in ring order: the scripted drops land
        _Idle,
        collect_trace=True,
        observers=[checker],
        adversary=ScriptedAdversary({3: {"drops": [(0, 1), (4, 5)]}}),
        backend=backend,
    )
    # The strike really landed and really disconnected.
    assert res.trace.perturbations and len(res.trace.perturbations[0].drops) == 2
    verdict = checker.verdict()
    assert not verdict.ok
    assert "disconnected" in verdict.detail


class _Reactivate(NodeProgram):
    """Node 0 deactivates the original edge (0, 1) in round 1 and
    re-activates it in round 2, through the common neighbor 2."""

    def transition(self, ctx, inbox):
        if self.uid == 0 and ctx.round == 1:
            ctx.deactivate(1)
        elif self.uid == 0 and ctx.round == 2:
            ctx.activate(1)
        elif ctx.round >= 3:
            self.halt()


@pytest.mark.parametrize("arrays", [True, False], ids=["arrays", "dict"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_reactivated_original_edge_is_not_activated(backend, arrays, tmp_path):
    """Regression: an ``E(1)`` edge deactivated and later re-activated
    is an original edge again, not an activated one.  The engine counts
    ``|E(i) \\ E(1)| = 0`` throughout; both checker families used to
    count 1 from round 2 on (a false red verdict), live and offline."""
    import networkx as nx

    from repro.conformance import check_trace_parallel
    from repro.engine import to_binary

    graph = nx.Graph([(0, 1), (1, 2), (0, 2), (2, 3)])  # triangle + pendant
    names = ("connectivity", "temporal-legality")
    live = make_checkers(names, arrays=arrays)
    trace = run_program(
        graph, _Reactivate, collect_trace=True, observers=live, backend=backend
    ).trace
    assert [sorted(r.activations) for r in trace.records[:2]] == [[], [(0, 1)]]
    assert [r.activated_edges for r in trace.records] == [0] * len(trace.records)
    green = [(name, True, "") for name in names]
    assert [(c.name, c.ok, c.verdict().detail) for c in live] == green
    offline = check_trace(graph, trace, make_checkers(names, arrays=arrays))
    assert [(v.invariant, v.ok, v.detail) for v in offline] == green
    jsonl = tmp_path / "run.jsonl"
    jsonl.write_text(trace.to_jsonl())
    rtb = tmp_path / "run.rtb"
    to_binary(trace, rtb)
    oracle = check_trace(graph, trace, make_checkers(names, arrays=False))
    assert [(v.invariant, v.ok, v.detail) for v in oracle] == green
    for path in (jsonl, rtb):
        verdicts = check_trace_parallel(graph, path, names, jobs=1)
        assert [(v.invariant, v.ok, v.detail) for v in verdicts] == green


def test_incomparable_join_is_rejected_at_its_strike():
    """Regression: a strike joining a uid that is not order-comparable
    with the current labels (``"x"`` joining a ring of ints) is out of
    the model, like such a ``G_s``.  Both backends (live) and both
    checker families (offline) reject it at that strike with the
    constructor's one-line error; the array replay used to fail only at
    the *next* strike, while the dict checkers returned verdicts."""
    import networkx as nx

    from repro.engine import PerturbationRecord, edge_key

    graph = nx.cycle_graph(6)
    errors = []
    for backend in BACKENDS:
        with pytest.raises(ConfigurationError) as exc:
            run_program(
                graph, _Idle, backend=backend,
                adversary=ScriptedAdversary({2: {"joins": [("x", [0])]}}),
            )
        errors.append(str(exc.value))
    trace = run_program(graph, _Idle, collect_trace=True).trace
    trace.perturbations.append(PerturbationRecord(
        round=2, drops=frozenset(), adds=frozenset({edge_key(0, "x")}),
        crashes=(), joins=(("x", (0,)),),
    ))
    for arrays in (True, False):
        checkers = make_checkers(("connectivity", "temporal-legality"), arrays=arrays)
        with pytest.raises(ConfigurationError) as exc:
            check_trace(graph, trace, checkers)
        errors.append(str(exc.value))
    assert len(set(errors)) == 1, errors
    assert "mutually comparable" in errors[0] and "\n" not in errors[0]


class TestTamperedTraces:
    """Invariant class 2 (temporal legality): forged records are caught."""

    @pytest.fixture(scope="class")
    def star_run(self):
        graph = families.make("ring", 16)
        result = get_scenario("star").runner(graph, collect_trace=True)
        return graph, result.trace

    def _tamper(self, trace, index, **changes):
        tampered = dataclasses.replace(trace.records[index], **changes)
        clone = type(trace)(records=list(trace.records), perturbations=list(trace.perturbations))
        clone.records[index] = tampered
        return clone

    def _legality(self, graph, trace):
        verdicts = check_trace(graph, trace, [TemporalLegalityChecker()])
        return verdicts[0]

    def test_untampered_baseline_is_green(self, star_run):
        graph, trace = star_run
        assert self._legality(graph, trace).ok

    def test_illegal_distance_activation_caught(self, star_run):
        """An activation between far-apart nodes (no common neighbor at
        that point in history) violates the distance-2 rule."""
        graph, trace = star_run
        # Ring 0..15 in round 1: nodes 0 and 8 are 8 hops apart.
        idx = next(i for i, r in enumerate(trace.records) if r.round == 1)
        tampered = self._tamper(
            trace, idx,
            activations=trace.records[idx].activations | {(0, 8)},
        )
        verdict = self._legality(graph, tampered)
        assert not verdict.ok
        assert "distance 2" in verdict.detail

    def test_phantom_deactivation_caught(self, star_run):
        graph, trace = star_run
        idx = next(i for i, r in enumerate(trace.records) if r.round == 1)
        tampered = self._tamper(
            trace, idx,
            deactivations=trace.records[idx].deactivations | {(3, 9)},
        )
        verdict = self._legality(graph, tampered)
        assert not verdict.ok
        assert "inactive edge" in verdict.detail

    def test_forged_edge_counter_caught(self, star_run):
        graph, trace = star_run
        mid = len(trace.records) // 2
        tampered = self._tamper(
            trace, mid, active_edges=trace.records[mid].active_edges + 7
        )
        verdict = self._legality(graph, tampered)
        assert not verdict.ok
        assert "active_edges" in verdict.detail

    def test_forged_activated_counter_fires_edge_budget(self, star_run):
        """A forged activated_edges watermark trips both the tamper check
        and the scenario's edge budget."""
        graph, trace = star_run
        n = graph.number_of_nodes()
        mid = len(trace.records) // 2
        tampered = self._tamper(trace, mid, activated_edges=100 * n)
        verdicts = check_trace(
            graph, tampered, make_checkers(("temporal-legality", "edges:linear"))
        )
        assert [v.ok for v in verdicts] == [False, False]


@pytest.mark.parametrize("backend", BACKENDS)
def test_round_budget_fires_on_slow_program(backend):
    """Invariant class 3 (round envelope): a Theta(n)-round program busts
    rounds:log online, mid-run."""
    checkers = make_checkers(("rounds:log", "connectivity"))
    # 4n = 256 rounds at n=64 busts the 24*log2(64)+40 = 184 envelope.
    run_slowpoke(families.make("ring", 64), observers=checkers, backend=backend)
    columns = verdict_columns(checkers)
    assert columns["inv_connectivity"] == "ok"
    assert columns["inv_rounds:log"].startswith("FAIL")
    assert "envelope" in columns["inv_rounds:log"]


def test_edge_budget_fires_on_clique():
    """Invariant class 4 (edge budget): the Theta(n^2) clique baseline
    cannot satisfy a linear edge budget."""
    # Theta(n^2) activations (~8000 at n=128) vs the 5*n*log2(n)+40
    # (~4500) budget: the quadratic baseline must bust the n log n curve.
    checkers = make_checkers(("edges:linear", "activations:nlogn"))
    get_scenario("clique").runner(families.make("ring", 128), observers=checkers)
    columns = verdict_columns(checkers)
    assert columns["inv_edges:linear"].startswith("FAIL")
    assert columns["inv_activations:nlogn"].startswith("FAIL")


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


def test_unknown_invariant_rejected():
    with pytest.raises(ConfigurationError, match="unknown invariant"):
        make_checkers(("edges:cubic",))
    with pytest.raises(ConfigurationError, match="unknown invariant"):
        make_checkers(("bogus",))


def test_enforce_raises_with_context():
    checkers = make_checkers(("edges:linear",))
    get_scenario("clique").runner(families.make("ring", 20), observers=checkers)
    with pytest.raises(InvariantViolation, match="clique cell.*edges:linear"):
        conformance.enforce(checkers, context="clique cell")
    conformance.enforce(make_checkers(("connectivity",)))  # fresh: no-op


def test_verdict_detail_is_bounded():
    """A checker that fails every round keeps a bounded detail string."""
    import networkx as nx

    checker = ConnectivityChecker()
    run_program(
        nx.cycle_graph(8),
        _Idle,
        observers=[checker],
        adversary=ScriptedAdversary({2: {"drops": [(0, 1), (3, 4)]}}),
    )
    assert not checker.ok
    detail = checker.verdict().detail
    assert len(detail) < 2000
    assert "more" in detail or detail.count(";") <= 4


def test_verdict_cell_format():
    assert Verdict("x", True).cell == "ok"
    assert Verdict("x", False, "boom").cell == "FAIL: boom"


def test_budget_bounds_reflect_n():
    grow = conformance.BUDGETS["rounds:log"]
    assert grow(1024) > grow(16)
    assert conformance.BUDGETS["activations:quadratic"](10) == 45
    # The watermark budget family has no quadratic member: |E(i) \ E(1)|
    # can never exceed C(n,2), so such a budget would be vacuous.
    assert "edges:quadratic" not in conformance.BUDGETS


def test_multi_segment_budgets_reset_per_segment():
    """Pipeline stages are bounded per segment: the star+flood pipeline
    stays green even though its *total* rounds span two stages."""
    spec = get_scenario("star+flood")
    checkers = make_checkers(spec.invariants)
    spec.runner(families.make("line", 24), observers=checkers)
    assert all(c.ok for c in checkers)
    assert all(c._segment == 2 for c in checkers)


def test_audits_freeze_the_prebuilt_heap(monkeypatch, tmp_path):
    """``check_trace`` and inline ``check_trace_parallel`` keep the cyclic
    collector off the graph, trace and checkers, as a run does: a checker
    hook sees a frozen heap, and the freeze is gone once the audit returns."""
    import gc

    from repro.conformance import check_trace_parallel

    spec = get_scenario("star")
    graph = families.make("ring", 20, seed=3)
    trace = spec.runner(graph, collect_trace=True).trace
    path = tmp_path / "run.jsonl"
    path.write_text(trace.to_jsonl())
    seen = []
    real = conformance.make_checkers

    def spied(names, **kwargs):
        checkers = real(names, **kwargs)
        for c in checkers:
            def on_round(rec, _on_round=c.on_round):
                seen.append(gc.get_freeze_count())
                _on_round(rec)

            c.on_round = on_round
        return checkers

    monkeypatch.setattr(conformance, "make_checkers", spied)
    entry = gc.get_freeze_count()
    verdicts = check_trace(graph, trace, conformance.make_checkers(spec.invariants))
    assert all(v.ok for v in verdicts)
    assert seen and all(count > 0 for count in seen)
    assert gc.get_freeze_count() == entry
    seen.clear()
    verdicts = check_trace_parallel(graph, path, spec.invariants, jobs=1)
    assert all(v.ok for v in verdicts)
    assert seen and all(count > 0 for count in seen)
    assert gc.get_freeze_count() == entry
