"""The fleet as arrays: kernel runs build per-node objects only on demand.

On the bulk backend a whole-run kernel run (uniform ``NodeProgram``
subclass factory, base no-op ``setup()``, no adversary, no barrier, an
accepting ``phase_kernel``) keeps the fleet as the kernel's state
columns: ``RunResult.programs`` is a read-only lazy mapping that builds
a node's program from its row on first access.  These tests pin

* the final-state contract: every program read back from a bulk run
  equals the reference backend's, field by field, in the same order;
* that the kernel path builds no program until one is read, whatever
  observers ride along, and builds exactly the ones read;
* that the runs the array path must not take (an overridden
  ``setup()``, an adversary) still run per node and match the
  reference backend.
"""

from __future__ import annotations

import pytest

from repro.core.graph_to_star import GraphToStarProgram, elected_leader
from repro.engine import SynchronousRunner
from repro.graphs import families
from repro.problems.leader_election import elected_uid
from repro.problems.token_dissemination import is_dissemination_complete
from repro.registry import get_scenario

pytest.importorskip("numpy")

FAMILIES = ["ring", "line", "random_tree", "gnp"]


def _stage_results(result):
    """``(name, RunResult)`` per engine run of a single run or pipeline."""
    return list(getattr(result, "stages", [("run", result)]))


def _final_state(scenario, family, backend):
    """Everything a caller can read off a finished run's programs."""
    graph = families.make(family, 40, seed=5)
    result = get_scenario(scenario).runner(graph, backend=backend)
    state = []
    for name, res in _stage_results(result):
        progs = res.programs
        rows = [
            (
                uid,
                prog.public(),
                getattr(prog, "status", None),
                prog.halted,
                sorted(prog.tokens) if hasattr(prog, "tokens") else None,
            )
            for uid, prog in progs.items()
        ]
        state.append((name, list(progs), rows))
    stages = dict(_stage_results(result))
    if scenario == "star":
        state.append(("elected_leader", elected_leader(result)))
    else:
        state.append(("elected_leader", elected_leader(stages["transform"])))
    if scenario == "star+leader":
        state.append(("elected_uid", elected_uid(stages["solve"])))
    if scenario == "star+flood":
        state.append(("all_informed", is_dissemination_complete(stages["solve"])))
    return state


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scenario", ["star", "star+flood", "star+leader"])
def test_final_state_matches_reference(scenario, family):
    assert _final_state(scenario, family, "bulk") == _final_state(
        scenario, family, "reference"
    )


# ---------------------------------------------------------------------------
# object-free kernel runs
# ---------------------------------------------------------------------------


@pytest.fixture
def init_count(monkeypatch):
    """Counts ``GraphToStarProgram.__init__`` calls."""
    calls = []
    original = GraphToStarProgram.__init__

    def counting(self, uid):
        calls.append(uid)
        original(self, uid)

    monkeypatch.setattr(GraphToStarProgram, "__init__", counting)
    return calls


def test_kernel_run_builds_no_programs_until_read(init_count):
    from repro.conformance import make_checkers
    from repro.telemetry import TelemetryObserver

    checkers = make_checkers(get_scenario("star").invariants)
    telemetry = TelemetryObserver()
    runner = SynchronousRunner(
        families.make("ring", 64, seed=1), GraphToStarProgram, backend="bulk",
        collect_trace=True, check_connectivity=True,
        observers=[*checkers, telemetry],
    )
    result = runner.run()
    assert runner._kernel is not None
    assert all(c.verdict().ok for c in checkers)
    assert telemetry.profile().phases  # the phase map came from the class
    result.final_graph()
    assert len(result.programs) == 64 and 7 in result.programs
    assert max(result.programs) == 63
    assert init_count == []
    prog = result.program(7)
    assert init_count == [7]
    assert result.program(7) is prog  # cached
    assert init_count == [7]
    assert prog.halted and prog.status == "follower"


def test_kernel_run_programs_are_read_only(init_count):
    result = SynchronousRunner(
        families.make("ring", 16), GraphToStarProgram, backend="bulk"
    ).run()
    with pytest.raises(TypeError):
        result.programs[3] = GraphToStarProgram(3)
    assert init_count == [3]  # the test's own instance


def test_telemetry_bind_builds_no_program(init_count):
    from repro.telemetry import TelemetryObserver

    telemetry = TelemetryObserver()
    SynchronousRunner(
        families.make("ring", 32), GraphToStarProgram, backend="bulk",
        observers=[telemetry],
    ).run()
    assert init_count == []
    phases = {row["phase"] for row in telemetry.profile().phases}
    assert phases == {"r0", "r1", "r2", "r3", "r4"}


class _SetupStar(GraphToStarProgram):
    """GraphToStar with an overridden (state-neutral) ``setup()``."""

    seen = 0

    def setup(self, ctx) -> None:
        type(self).seen += 1


def _trace(graph, factory, backend, **kwargs):
    result = SynchronousRunner(
        graph, factory, backend=backend, collect_trace=True, **kwargs
    ).run()
    return result.trace.to_jsonl(), result.metrics


def test_overridden_setup_runs_per_node():
    graph = families.make("ring", 24, seed=2)
    _SetupStar.seen = 0
    runner = SynchronousRunner(graph, _SetupStar, backend="bulk", collect_trace=True)
    result = runner.run()
    assert runner._kernel is None
    assert _SetupStar.seen == 24
    assert (result.trace.to_jsonl(), result.metrics) == _trace(
        graph, _SetupStar, "reference"
    )
    assert isinstance(result.programs, dict)


def _drop_one_edge(graph):
    """A strike after round 1 that turns the ring into a line."""
    from repro.dynamics import ScriptedAdversary

    return ScriptedAdversary({2: {"drops": [min(map(sorted, graph.edges()))]}})


@pytest.mark.parametrize("at", ["constructor", "run"])
def test_adversary_runs_per_node(at):
    """An adversary rules out the array path, whether the constructor
    or ``run()`` receives it (the latter is only known after
    construction, so the runner builds the fleet per node then)."""
    graph = families.make("ring", 24, seed=2)
    runs = {}
    for backend in ("reference", "bulk"):
        kwargs = {"adversary": _drop_one_edge(graph)} if at == "constructor" else {}
        runner = SynchronousRunner(
            graph, GraphToStarProgram, backend=backend, collect_trace=True,
            **kwargs,
        )
        result = runner.run(**({"adversary": _drop_one_edge(graph)} if at == "run" else {}))
        assert result.metrics.adversary_edge_drops == 1
        runs[backend] = (result.trace.to_jsonl(), result.metrics)
        if backend == "bulk":
            assert runner._kernel is None
            assert elected_leader(result) == 23
    assert runs["bulk"] == runs["reference"]


def test_programs_read_before_run_see_the_final_state(init_count):
    runner = SynchronousRunner(
        families.make("ring", 16), GraphToStarProgram, backend="bulk"
    )
    early = runner.programs[15]
    result = runner.run()
    assert runner._kernel is not None
    assert result.programs[15] is early
    assert early.halted and early.status == "leader"
    assert init_count == [15]


# ---------------------------------------------------------------------------
# the network from arrays
# ---------------------------------------------------------------------------


def _labelled(graph, kind):
    import networkx as nx

    if kind == "identity":
        return graph
    if kind == "sparse-int":
        return nx.relabel_nodes(graph, {u: 7 * u + 3 for u in graph})
    return nx.relabel_nodes(graph, {u: f"n{u:03d}" for u in graph})


@pytest.mark.parametrize("kind", ["identity", "sparse-int", "str"])
@pytest.mark.parametrize("family", ["ring", "gnp", "random_tree"])
def test_fresh_network_reads_need_no_views(family, kind):
    """A fresh ``DenseNetwork`` answers the edge-set reads from its key
    arrays — exactly as the reference ``Network`` does — without
    building the uid-keyed adjacency or active set; ``is_original``
    stays exact before and after per-edge rounds; the adjacency reads
    build that state."""
    from repro.engine import Network, RoundActions
    from repro.engine.dense import DenseNetwork

    graph = _labelled(families.make(family, 30, seed=4), kind)
    ref, dense = Network(graph), DenseNetwork(graph)

    def edge_reads(net):
        snap = net.snapshot_graph()
        return (
            set(net.edges()), set(net.original_edges), net.activated_edges(),
            net.num_active_edges, net.num_activated_edges,
            set(snap.nodes), {frozenset(e) for e in snap.edges},
        )

    assert edge_reads(dense) == edge_reads(ref)
    assert dense._adj is None and dense._active is None
    nodes = sorted(graph.nodes)
    pairs = [(u, v) for u in nodes[:8] for v in nodes[:8] if u != v]
    assert [dense.is_original(u, v) for u, v in pairs] == [
        ref.is_original(u, v) for u, v in pairs
    ]
    assert {u: set(dense.neighbors(u)) for u in nodes} == {
        u: set(ref.neighbors(u)) for u in nodes
    }
    assert dense._adj is not None and dense._active is not None
    # One per-edge round: activate every distance-2 pair around nodes[0].
    u = nodes[0]
    for net in (ref, dense):
        actions = RoundActions()
        for v in sorted(net.potential_neighbors(u)):
            actions.request_activation(u, u, v)
        net.apply(actions)
    assert edge_reads(dense) == edge_reads(ref)
    assert [dense.is_original(u, v) for u, v in pairs] == [
        ref.is_original(u, v) for u, v in pairs
    ]


def test_disconnected_graph_still_rejected():
    import networkx as nx

    from repro.engine.dense import DenseNetwork
    from repro.errors import ConfigurationError

    graph = nx.Graph([(0, 1), (2, 3)])
    with pytest.raises(ConfigurationError):
        DenseNetwork(graph)
    assert DenseNetwork(graph, require_connected=False).num_active_edges == 2


def test_checked_star_kernel_run_builds_no_uid_keyed_state():
    """A checked bulk star run and its sweep row read the network only
    through the key arrays: the uid-keyed adjacency, active and
    baseline sets are never built (that is what keeps the n=10^6 star
    cell's memory flat)."""
    from repro.analysis import sweep
    from repro.conformance import make_checkers

    spec = get_scenario("star")
    graph = families.make("ring", 4096, seed=0)
    checkers = make_checkers(spec.invariants)
    result = spec.runner(graph, observers=checkers, backend="bulk")
    row = sweep.measure("star", "ring", graph, result)
    net = result.network
    assert all(c.ok for c in checkers) and row.rounds == result.rounds
    assert (net._adj, net._active, net._original, net._frozen) == (None, None, None, {})
