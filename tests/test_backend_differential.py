"""Cross-backend differential fuzzer: bulk vs reference, trace for trace.

The bulk backend's contract (DESIGN.md, "Engine backends" and "Phase
kernels & bulk backend") is strict: for every scenario and every
adversary schedule it must produce a **byte-identical JSONL trace** and
**equal Metrics** to the reference backend.  This suite samples
(algorithm, family, n, seed, adversary) cells across the whole scenario
registry and asserts exactly that, whichever round path bulk takes
(kernel, sparse, assist or pernode).  Few registry scenarios reach the
``pernode`` path (clique does), so the runner-level tests below drive
custom programs through it — under crashes, joins, and manual dirty
tracking with a barrier — and assert through telemetry that every bulk
round was dispatched ``pernode``.

Two tiers: a small deterministic corpus that runs in CI, and a larger
``--runslow`` tier (``pytest --runslow``) that widens families, sizes,
seeds, and adversary schedules.
"""

import io

import pytest

from repro.dynamics import AdversarySpec, ChurnSchedule, ScriptedAdversary, make_adversary
from repro.engine import (
    BACKENDS,
    BinarySink,
    BinaryTraceReader,
    JsonlSink,
    Metrics,
    NodeProgram,
    SynchronousRunner,
    Trace,
    from_binary,
    iter_traces,
    run_program,
    to_binary,
)
from repro.engine.trace import PerturbationRecord
from repro.errors import ConfigurationError
from repro.graphs import families
from repro.registry import get_algorithm, scenario_names, scenarios
from repro.telemetry import TelemetryObserver


try:
    import numpy  # noqa: F401

    _HAS_NUMPY = True
except ImportError:  # pragma: no cover - numpy is a core dependency
    _HAS_NUMPY = False

#: The backends differentially compared against "reference".
COMPARISON_BACKENDS = [b for b in BACKENDS if b != "reference" and _HAS_NUMPY]


def _episode_traces(result):
    """The labelled JSONL trace(s) of any result shape (single run,
    self-healing episodes, or composition pipeline stages)."""
    return [(label, trace.to_jsonl()) for label, trace in iter_traces(result)]


def _run_cell(algorithm, family, n, seed, adversary_spec, backend):
    """Run one cell with all three trace forms: the in-memory Trace, a
    streaming JsonlSink, and a streaming BinarySink on the same
    observer pipeline."""
    runner = get_algorithm(algorithm)
    graph = families.make(family, n, seed=seed)
    sink = JsonlSink(io.StringIO())
    bsink = BinarySink(io.BytesIO(), meta={"provenance": None})
    kwargs = {"collect_trace": True, "backend": backend, "observers": [sink, bsink]}
    if adversary_spec is not None:
        kwargs["adversary"] = make_adversary(adversary_spec)
    result = runner(graph, **kwargs)
    bsink.close()
    return result, sink._fh.getvalue(), bsink._fh.getvalue()


def _binary_streamed_jsonl(data: bytes) -> str:
    """The streamed ``.rtb`` bytes, decoded segment by segment back to
    the JSONL the JsonlSink would have streamed for the same events."""
    out = []
    with BinaryTraceReader(data) as reader:
        for i in range(len(reader.segments)):
            seg = Trace()
            for rec in reader.iter_segment(i):
                if isinstance(rec, PerturbationRecord):
                    seg.append_perturbation(rec)
                else:
                    seg.append(rec)
            out.append(seg.to_jsonl())
    return "".join(out)


def _assert_cell_equivalent(algorithm, family, n, seed=0, adversary_spec=None):
    ref, ref_streamed, ref_binary = _run_cell(
        algorithm, family, n, seed, adversary_spec, "reference"
    )
    # The streaming sinks are the oracle's third and fourth forms:
    # byte-identical to the materialized traces, on every backend.
    materialized = "".join(payload for _, payload in _episode_traces(ref))
    recovery = getattr(ref, "recovery", None)
    for label_, trace in iter_traces(ref):
        # Binary conversion is lossless against the JSONL oracle over
        # the whole registry corpus (DESIGN.md, "Binary traces").
        assert from_binary(to_binary(trace)).to_jsonl() == trace.to_jsonl()
    for backend in COMPARISON_BACKENDS:
        alt, alt_streamed, alt_binary = _run_cell(
            algorithm, family, n, seed, adversary_spec, backend
        )
        label = f"{algorithm}/{family}/n={n}/seed={seed}/adv={adversary_spec}/{backend}"
        assert _episode_traces(alt) == _episode_traces(ref), f"trace diverged: {label}"
        assert alt.metrics == ref.metrics, f"metrics diverged: {label}"
        assert alt.rounds == ref.rounds, f"rounds diverged: {label}"
        assert ref_streamed == materialized, f"reference sink diverged: {label}"
        assert alt_streamed == materialized, f"{backend} sink diverged: {label}"
        assert alt_binary == ref_binary, f"{backend} binary sink diverged: {label}"
        assert _binary_streamed_jsonl(alt_binary) == materialized, (
            f"{backend} binary archive diverged from the JSONL oracle: {label}"
        )
        if recovery is not None:
            assert alt.recovery.as_dict() == recovery.as_dict(), f"recovery diverged: {label}"


# ----------------------------------------------------------------------
# CI corpus: small, deterministic, covers every engine-backed scenario
# ----------------------------------------------------------------------

CI_CORPUS = [
    ("star", "ring", 24, 0, None),
    ("star", "line", 17, 0, None),
    ("star", "gnp", 25, 0, None),
    ("star", "random_tree", 21, 3, None),
    ("star", "caterpillar", 24, 0, None),
    ("wreath", "ring", 20, 0, None),
    ("wreath", "line", 16, 2, None),
    ("thin-wreath", "ring", 16, 0, None),
    # random-UID ring cells: fresh UID permutations over the wreath
    # rebuild-assist path (repro.core.rebuild_arrays), so the splice
    # kernel's array rounds are differentially checked on placements
    # other than the canonical one
    ("wreath", "ring", 23, 7, None),
    ("wreath", "ring", 19, 13, None),
    ("thin-wreath", "ring", 21, 5, None),
    ("clique", "ring", 12, 0, None),
    ("star-heal", "ring", 16, 0, None),
    ("star-heal", "ring", 16, 0, AdversarySpec(kind="drop", rate=0.3, seed=5, policy="reroute")),
    ("wreath-heal", "ring", 16, 0, None),
    ("wreath-heal", "ring", 14, 0, AdversarySpec(kind="crash", rate=0.2, seed=3, policy="reroute")),
    # composition pipelines: transform-then-solve, end to end
    ("star+flood", "line", 24, 0, None),
    ("wreath+flood", "ring", 16, 0, None),
    ("flood-baseline", "gnp", 25, 0, None),
    ("star+leader", "random_tree", 21, 3, None),
    # seeded general-graph cells: the observer path on gnp/grid/regular3
    # with non-canonical UID permutations, not just the UID-structured
    # workloads (seed != 0 re-permutes the UIDs deterministically)
    ("star", "gnp", 25, 7, None),
    ("star", "grid", 25, 11, None),
    ("star", "regular3", 20, 5, None),
    ("wreath", "gnp", 20, 9, None),
    ("wreath", "grid", 16, 4, None),
    ("wreath", "regular3", 16, 3, None),
    ("thin-wreath", "gnp", 18, 2, None),
    ("thin-wreath", "grid", 16, 6, None),
    ("thin-wreath", "regular3", 14, 8, None),
    ("clique", "gnp", 16, 13, None),
    ("clique", "regular3", 12, 2, None),
    ("star+flood", "grid", 25, 5, None),
    ("flood-baseline", "regular3", 16, 7, None),
]


@pytest.mark.parametrize(
    "algorithm,family,n,seed,adv",
    CI_CORPUS,
    ids=[f"{a}-{f}-n{n}-s{s}-{'adv' if x else 'plain'}" for a, f, n, s, x in CI_CORPUS],
)
def test_ci_corpus_cell_equivalent(algorithm, family, n, seed, adv):
    _assert_cell_equivalent(algorithm, family, n, seed, adv)


def test_registry_is_fully_covered():
    """Every registered backend-capable scenario appears in some corpus cell."""
    engine_backed = {spec.name for spec in scenarios() if spec.supports_backend}
    covered = {cell[0] for cell in CI_CORPUS}
    assert engine_backed <= covered, f"uncovered scenarios: {engine_backed - covered}"


# ----------------------------------------------------------------------
# runner-level adversary paths (mid-run churn, crashes, scripted joins)
# ----------------------------------------------------------------------


class _Chatterer(NodeProgram):
    """A long-running program exercising messages, publics, and edges."""

    def public(self):
        return {"uid": self.uid, "seen": getattr(self, "_seen", 0)}

    def compose(self, ctx):
        if ctx.round % 3 == 0 and ctx.neighbors:
            return {v: ("ping", self.uid) for v in ctx.neighbors}
        return None

    def transition(self, ctx, inbox):
        self._seen = getattr(self, "_seen", 0) + len(inbox)
        for v, rec in ctx.neighbor_publics():
            assert rec["uid"] == v
        if ctx.round >= 30:
            self.halt()


def _run_profiled(graph, program, backend, **kwargs):
    """One traced run with telemetry attached; on bulk, assert that every
    round went through the per-node loop, so a byte-identity check on the
    result provably covers that loop."""
    telemetry = TelemetryObserver()
    res = run_program(
        graph, program, collect_trace=True, backend=backend,
        observers=[telemetry], **kwargs,
    )
    if backend == "bulk":
        prof = telemetry.profile()
        assert prof.rounds == res.metrics.rounds
        assert prof.dispatch == {"pernode": res.metrics.rounds}, prof.dispatch
    return res


@pytest.mark.parametrize("policy", ["skip", "reroute"])
def test_runner_churn_equivalent(policy):
    adversary_factory = lambda: ChurnSchedule(  # noqa: E731
        rate=0.3, seed=11, policy=policy, start=3, period=4
    )
    results = {}
    for backend in ["reference", *COMPARISON_BACKENDS]:
        graph = families.make("ring", 20)
        results[backend] = _run_profiled(
            graph, _Chatterer, backend, adversary=adversary_factory()
        )
    ref = results["reference"]
    assert ref.trace.perturbations, "the schedule never fired; weak test"
    for backend in COMPARISON_BACKENDS:
        alt = results[backend]
        assert alt.trace.to_jsonl() == ref.trace.to_jsonl(), backend
        assert alt.metrics == ref.metrics, backend
        assert set(alt.programs) == set(ref.programs), backend
        assert {u: p.crashed for u, p in alt.programs.items()} == {
            u: p.crashed for u, p in ref.programs.items()
        }, backend


def test_runner_scripted_adversary_equivalent():
    script = {
        3: {"crashes": [2], "adds": [(0, 5)]},
        6: {"joins": [(100, (0, 7))]},
        9: {"drops": [(0, 5)], "adds": [(1, 9)]},
    }
    traces = {}
    for backend in ["reference", *COMPARISON_BACKENDS]:
        graph = families.make("ring", 12)
        res = _run_profiled(
            graph, _Chatterer, backend, adversary=ScriptedAdversary(dict(script))
        )
        traces[backend] = (res.trace.to_jsonl(), res.metrics)
    for backend in COMPARISON_BACKENDS:
        assert traces[backend] == traces["reference"], backend


class _SetupReader(NodeProgram):
    """``setup()`` reads every neighbor's record, and the node's first
    edge requests depend on what it read.

    A record is ``"built"`` until the program's own ``setup()`` has run,
    ``"setup-done"`` after it.  Two nodes joined in one strike read each
    other's records as snapshotted before either ``setup()`` ran; a
    backend that snapshots a joined record only after its ``setup()``
    (or never) reads something else, requests other edges, and the
    trace diverges.
    """

    def __init__(self, uid):
        super().__init__(uid)
        self.stage = "built"
        self.read = {}
        self.acted = False

    def public(self):
        return {"uid": self.uid, "stage": self.stage}

    def setup(self, ctx):
        self.read = {v: ctx.neighbor_public(v)["stage"] for v in sorted(ctx.neighbors)}
        self.stage = "setup-done"

    def transition(self, ctx, inbox):
        if not self.acted and ctx.round % 2 == 0:
            self.acted = True
            built = [v for v, stage in self.read.items() if stage == "built"]
            for v in built or self.read:
                if v not in ctx.neighbors:
                    continue
                far = sorted(
                    w for w in ctx.neighbor_adjacency(v)
                    if w != self.uid and w not in ctx.neighbors
                )
                if far:
                    ctx.activate(far[-1] if built else far[0])
                    break
        if ctx.round >= 12:
            self.halt()


def test_runner_chained_joins_read_presetup_records():
    """One strike joins 100 attached to 0 and 1, and 101 attached to
    100: each joined setup() reads the other's record as it was before
    any setup ran, on every backend."""
    script = {4: {"joins": [(100, (0, 1)), (101, (100,))]}}
    runs = {}
    for backend in ["reference", *COMPARISON_BACKENDS]:
        runs[backend] = _run_profiled(
            families.make("ring", 10), _SetupReader, backend,
            adversary=ScriptedAdversary(dict(script)),
        )
    ref = runs["reference"]
    assert ref.metrics.adversary_joins == 2
    assert ref.programs[100].read == {0: "setup-done", 1: "setup-done", 101: "built"}
    assert ref.programs[101].read == {100: "built"}
    for backend in COMPARISON_BACKENDS:
        alt = runs[backend]
        assert alt.trace.to_jsonl() == ref.trace.to_jsonl(), backend
        assert alt.metrics == ref.metrics, backend
        for uid in (100, 101):
            assert alt.programs[uid].read == ref.programs[uid].read, backend


class _BarrierTally(NodeProgram):
    """Manual dirty tracking plus a global barrier.

    ``on_barrier`` changes every node's value, but only even uids
    publish it at once; odd uids publish theirs only at their next
    ``touch_public``.  Edge requests depend on the neighbors' published
    values, so a backend that re-snapshots an untouched record (or
    misses a touched one) activates different edges and the trace
    diverges.
    """

    manages_public_dirty = True

    def __init__(self, uid):
        super().__init__(uid)
        self.value = uid % 3

    def public(self):
        return {"uid": self.uid, "value": self.value}

    def on_barrier(self, epoch):
        super().on_barrier(epoch)
        self.value += epoch + self.uid
        if self.uid % 2 == 0:
            self.touch_public()

    def transition(self, ctx, inbox):
        if ctx.round % 2 == 0:
            for v in sorted(ctx.neighbors):
                if ctx.neighbor_public(v)["value"] % 2:
                    far = sorted(
                        w for w in ctx.neighbor_adjacency(v)
                        if w != self.uid and w not in ctx.neighbors
                    )
                    if far:
                        ctx.activate(far[0])
                        break
        elif ctx.round % 5 == 0:
            for v in sorted(ctx.neighbors):
                if not ctx.is_original(v):
                    ctx.deactivate(v)
                    break
        if ctx.round % 7 == 0 and self.uid % 2:
            self.touch_public()
        if (ctx.round + self.uid) % 4 == 0:
            self.barrier_ready = True
        if ctx.round >= 24 or (self.uid == 3 and ctx.round >= 9):
            self.halt()


def test_runner_managed_dirty_barrier_equivalent():
    runs = {}
    for backend in ["reference", *COMPARISON_BACKENDS]:
        runs[backend] = _run_profiled(
            families.make("ring", 12), _BarrierTally, backend,
            use_barrier=True, check_connectivity=True,
        )
    ref = runs["reference"]
    assert ref.barrier_epochs >= 3, "the barrier barely fired; weak test"
    assert ref.metrics.total_activations > 0, "no edge decisions; weak test"
    for backend in COMPARISON_BACKENDS:
        alt = runs[backend]
        assert alt.trace.to_jsonl() == ref.trace.to_jsonl(), backend
        assert alt.metrics == ref.metrics, backend
        assert alt.barrier_epochs == ref.barrier_epochs, backend


def test_runner_connectivity_guard_equivalent():
    for backend in ["reference", *COMPARISON_BACKENDS]:
        graph = families.make("ring", 16)
        res = run_program(
            graph, _Chatterer, collect_trace=True, check_connectivity=True,
            adversary=ChurnSchedule(rate=0.2, seed=7, policy="reroute", start=2, period=3),
            backend=backend,
        )
        assert res.trace.all_connected()


# ----------------------------------------------------------------------
# backend selection plumbing
# ----------------------------------------------------------------------


def test_backend_dispatch_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    graph = families.make("ring", 8)
    ref = SynchronousRunner(graph, _Chatterer)
    assert type(ref) is SynchronousRunner and ref.backend == "reference"
    # The retired dense backend is an unknown name like any other.
    with pytest.raises(ConfigurationError, match=r"\('reference', 'bulk'\)"):
        SynchronousRunner(graph, _Chatterer, backend="dense")
    with pytest.raises(ConfigurationError):
        SynchronousRunner(graph, _Chatterer, backend="gpu")


@pytest.mark.skipif(not _HAS_NUMPY, reason="bulk backend requires numpy")
def test_bulk_backend_dispatch(monkeypatch):
    from repro.engine.bulk import BulkRunner

    graph = families.make("ring", 8)
    bulk = SynchronousRunner(graph, _Chatterer, backend="bulk")
    assert isinstance(bulk, BulkRunner) and bulk.backend == "bulk"
    monkeypatch.setenv("REPRO_BACKEND", "bulk")
    assert isinstance(SynchronousRunner(graph, _Chatterer), BulkRunner)
    with pytest.raises(ConfigurationError):
        BulkRunner(graph, _Chatterer, backend="reference")


def test_bulk_backend_missing_numpy_message(monkeypatch):
    """With numpy unimportable, requesting the bulk backend fails with a
    clear ImportError naming the dependency and the alternative."""
    import builtins
    import sys

    monkeypatch.delitem(sys.modules, "repro.engine.bulk", raising=False)
    monkeypatch.delitem(sys.modules, "numpy", raising=False)
    real_import = builtins.__import__

    def no_numpy(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("No module named 'numpy'")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_numpy)
    graph = families.make("ring", 8)
    with pytest.raises(ImportError, match="bulk.*numpy|numpy.*bulk"):
        SynchronousRunner(graph, _Chatterer, backend="bulk")
    monkeypatch.undo()
    # The module cache was poisoned with a half-imported module on some
    # paths; force a clean re-import for later tests.
    sys.modules.pop("repro.engine.bulk", None)


def test_backend_env_default(monkeypatch):
    from repro.engine.bulk import BulkRunner

    graph = families.make("ring", 8)
    monkeypatch.setenv("REPRO_BACKEND", "bulk")
    assert isinstance(SynchronousRunner(graph, _Chatterer), BulkRunner)
    for bogus in ("bogus", "dense"):
        monkeypatch.setenv("REPRO_BACKEND", bogus)
        with pytest.raises(ConfigurationError):
            SynchronousRunner(graph, _Chatterer)
    # An explicit argument always wins over the environment.
    assert type(SynchronousRunner(graph, _Chatterer, backend="reference")) is SynchronousRunner


def test_metrics_equality_is_field_exact():
    """Metrics is the differential oracle's second channel: == must
    compare every field, including the per-round activation series."""
    a = Metrics(rounds=3, total_activations=5, per_round_activations=[2, 3, 0])
    b = Metrics(rounds=3, total_activations=5, per_round_activations=[2, 3, 0])
    assert a == b
    b.per_round_activations[-1] = 1
    assert a != b
    assert a != Metrics(rounds=3, total_activations=5)


# ----------------------------------------------------------------------
# --runslow tier: the wide corpus
# ----------------------------------------------------------------------

SLOW_ADVERSARIES = [
    None,
    AdversarySpec(kind="drop", rate=0.2, seed=2, policy="reroute"),
    AdversarySpec(kind="crash", rate=0.15, seed=9, policy="reroute", start=3, period=7),
    AdversarySpec(kind="churn", rate=0.2, seed=4, policy="reroute"),
]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize(
    "family",
    ["ring", "line", "gnp", "random_tree", "grid", "caterpillar", "regular3"],
)
@pytest.mark.parametrize("n", [17, 33, 48])
def test_slow_star_grid(family, n, seed):
    _assert_cell_equivalent("star", family, n, seed)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["wreath", "thin-wreath", "clique"])
@pytest.mark.parametrize("family", ["ring", "line", "random_tree", "gnp", "regular3"])
@pytest.mark.parametrize("n", [16, 28])
def test_slow_committee_grid(algorithm, family, n):
    _assert_cell_equivalent(algorithm, family, n)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["wreath", "thin-wreath"])
@pytest.mark.parametrize("family", ["gnp", "grid", "regular3"])
@pytest.mark.parametrize("seed", [1, 4])
def test_slow_seeded_general_graph_grid(algorithm, family, seed):
    _assert_cell_equivalent(algorithm, family, 24, seed)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["star-heal", "wreath-heal"])
@pytest.mark.parametrize("adv", SLOW_ADVERSARIES)
@pytest.mark.parametrize("n", [16, 24])
def test_slow_heal_grid(algorithm, adv, n):
    _assert_cell_equivalent(algorithm, "ring", n, 0, adv)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", scenario_names("composition"))
@pytest.mark.parametrize("family", ["ring", "line", "gnp"])
@pytest.mark.parametrize("n", [17, 33])
def test_slow_composition_grid(algorithm, family, n):
    _assert_cell_equivalent(algorithm, family, n)


def test_is_original_parity_after_crash_of_deactivated_edge_endpoint():
    """Regression: a crashed node's *deactivated* original edges must
    leave E(1) on both backends, so is_original answers False for a
    node that no longer exists (previously the stale key survived on
    the reference backend only)."""
    import networkx as nx

    from repro.engine import Network, RoundActions
    from repro.engine.dense import DenseNetwork

    answers = {}
    for cls in (Network, DenseNetwork):
        net = cls(nx.cycle_graph(5))
        actions = RoundActions()
        actions.request_deactivation(0, 0, 1)
        net.apply(actions, strict=True)
        net.apply_external(crashes=[1])
        answers[cls.__name__] = (
            net.is_original(0, 1),
            net.is_original(1, 2),
            sorted(net.original_edges),
        )
    assert answers["Network"] == answers["DenseNetwork"]
    assert answers["Network"][0] is False and answers["Network"][1] is False
