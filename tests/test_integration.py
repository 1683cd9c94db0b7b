"""Cross-module integration tests: full pipelines, edge roles, fuzzing."""

import math
import random

import networkx as nx
import pytest

from repro import graphs
from repro.analysis import SweepPlan, format_table, measure
from repro.centralized import run_euler_ring
from repro.core import (
    run_clique_formation,
    run_graph_to_star,
    run_graph_to_thin_wreath,
    run_graph_to_wreath,
)
from repro.engine import Network, NodeProgram, RoundActions, run_program
from repro.problems import is_leader_election_solved


ALL_ALGORITHMS = {
    "star": run_graph_to_star,
    "wreath": run_graph_to_wreath,
    "thin": run_graph_to_thin_wreath,
    "clique": run_clique_formation,
}


class TestAllAlgorithmsAgree:
    """Every algorithm elects the same leader and spans the same nodes."""

    @pytest.mark.parametrize("family", ["line", "ring", "grid"])
    def test_same_leader_everywhere(self, family):
        g = graphs.make(family, 32)
        u_max = max(g.nodes())
        for name, runner in ALL_ALGORITHMS.items():
            res = runner(g)
            assert is_leader_election_solved(res), name
            leader = [u for u, p in res.programs.items() if p.status == "leader"]
            assert leader == [u_max], name

    def test_same_leader_as_centralized_root(self):
        g = graphs.make("random_tree", 40)
        res = run_euler_ring(g)  # roots at max UID by default
        star = run_graph_to_star(g)
        assert res.strategy.root == max(g.nodes())
        assert star.program(max(g.nodes())).status == "leader"


class TestOriginalEdgePreservation:
    """Original edges survive until the termination phase (note 8)."""

    @pytest.mark.parametrize("runner", [run_graph_to_star, run_graph_to_wreath])
    def test_originals_kept_until_termination(self, runner):
        g = graphs.make("ring", 24)
        res = runner(g, collect_trace=True)
        originals = {tuple(sorted(e)) for e in g.edges()}
        removed_round = {}
        for record in res.trace:
            for e in record.deactivations:
                if tuple(sorted(e)) in originals:
                    removed_round[tuple(sorted(e))] = record.round
        if removed_round:
            # All original-edge removals happen in the final clean-up
            # rounds, within one broadcast depth of the end.
            depth_budget = 3 * math.ceil(math.log2(24)) + 6
            assert min(removed_round.values()) >= res.rounds - depth_budget


class TestLenientModeFuzz:
    """Random illegal action streams are dropped, never corrupt state."""

    def test_random_actions_lenient(self):
        rng = random.Random(5)
        net = Network(nx.path_graph(12))
        for _ in range(60):
            actions = RoundActions()
            for _ in range(6):
                u = rng.randrange(12)
                v = rng.randrange(12)
                if rng.random() < 0.5:
                    actions.request_activation(u, u, v)
                else:
                    actions.request_deactivation(u, u, v)
            if rng.random() < 0.5 and net.num_active_edges > 1:
                pass
            net.apply(actions, strict=False)
        # Invariants: no self loops, adjacency symmetric.
        for u in range(12):
            assert u not in net.neighbors(u)
            for v in net.neighbors(u):
                assert u in net.neighbors(v)

    def test_program_exception_propagates(self):
        class Boom(NodeProgram):
            def transition(self, ctx, inbox):
                raise ValueError("node crashed")

        with pytest.raises(ValueError):
            run_program(nx.path_graph(3), Boom)


class TestSweepPipeline:
    def test_sweep_and_format_end_to_end(self):
        rows = SweepPlan.grid({"g2s": run_graph_to_star}, ["ring"], [16, 32]).run().rows
        text = format_table([r.as_dict() for r in rows])
        assert "g2s" in text and "ring" in text

    def test_measure_has_final_structure(self):
        g = graphs.make("line", 20)
        row = measure("wreath", "line", g, run_graph_to_wreath(g))
        assert row.final_diameter <= 2 * math.ceil(math.log2(20)) + 2
        assert row.final_max_degree <= 3


class TestDeterminism:
    """Same input, same execution: the whole stack is deterministic."""

    @pytest.mark.parametrize("runner", [run_graph_to_star, run_graph_to_wreath])
    def test_deterministic_runs(self, runner):
        g = graphs.random_uids(graphs.line_graph(24), seed=11)
        a = runner(g)
        b = runner(g)
        assert a.rounds == b.rounds
        assert a.metrics.as_dict() == b.metrics.as_dict()
        assert set(a.final_graph().edges()) == set(b.final_graph().edges())


class TestStress:
    def test_graph_to_star_larger(self):
        g = graphs.make("gnp", 300)
        res = run_graph_to_star(g)
        assert graphs.is_spanning_star(res.final_graph(), center=max(g.nodes()))

    def test_wreath_on_dense_graph(self):
        g = graphs.random_uids(nx.complete_graph(24), seed=3)
        res = run_graph_to_wreath(g)
        assert graphs.is_binary_tree(res.final_graph(), max(g.nodes()))

    def test_wreath_sorted_uid_line(self):
        """The adversarial singleton-chain case (DESIGN.md note 7c)."""
        g = graphs.line_graph(48)  # UIDs increase along the line
        res = run_graph_to_wreath(g)
        assert graphs.is_binary_tree(res.final_graph(), 47)
        assert res.metrics.max_activated_degree <= 8
