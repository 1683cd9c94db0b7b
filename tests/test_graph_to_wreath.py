"""Tests for GraphToWreath (Section 4, Theorem 4.2)."""

import gc
import math
import weakref

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import run_graph_to_wreath, wreath_leader
from repro.problems import check_depth_log_tree, is_leader_election_solved


def check_contract(g, res, *, degree_budget=8):
    """Theorem 4.2's qualitative contract on a finished run."""
    n = g.number_of_nodes()
    u_max = max(g.nodes())
    fg = res.final_graph()
    assert graphs.is_spanning_tree(fg)
    assert graphs.is_binary_tree(fg, u_max)
    assert graphs.tree_depth(fg, u_max) <= 3 * math.ceil(math.log2(max(2, n))) + 3
    assert wreath_leader(res) == u_max
    assert is_leader_election_solved(res)
    assert res.metrics.max_activated_degree <= degree_budget


class TestCorrectness:
    def test_single_node(self):
        g = nx.Graph()
        g.add_node(4)
        res = run_graph_to_wreath(g)
        assert wreath_leader(res) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 16, 25, 33])
    def test_paths(self, n):
        g = nx.path_graph(n)
        check_contract(g, run_graph_to_wreath(g))

    @pytest.mark.parametrize("n", [3, 4, 8, 20])
    def test_cycles(self, n):
        g = nx.cycle_graph(n)
        check_contract(g, run_graph_to_wreath(g))

    @pytest.mark.parametrize("family", sorted(graphs.BOUNDED_DEGREE_FAMILIES))
    def test_bounded_degree_families(self, family):
        g = graphs.make(family, 48)
        check_contract(g, run_graph_to_wreath(g))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_trees(self, seed):
        g = graphs.random_uids(graphs.random_tree(40, seed=seed), seed=seed + 9)
        # Trees may have non-constant degree; allow the input degree on top.
        check_contract(g, run_graph_to_wreath(g), degree_budget=10)

    def test_adversarial_uid_placement(self):
        g = graphs.adversarial_max_far(graphs.line_graph(32), seed=2)
        check_contract(g, run_graph_to_wreath(g))

    def test_connectivity_never_broken(self):
        g = graphs.random_uids(graphs.line_graph(24), seed=1)
        res = run_graph_to_wreath(g, check_connectivity=True)
        check_contract(g, res)

    def test_depth_log_tree_checker(self):
        g = graphs.make("ring", 32)
        res = run_graph_to_wreath(g)
        assert check_depth_log_tree(res, c=3.0, slack=3)


class TestComplexity:
    """Theorem 4.2: O(log^2 n) time, O(n log^2 n) activations, O(n) active
    edges per round, O(1) maximum activated degree."""

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_polylog_rounds(self, n):
        g = graphs.random_uids(graphs.line_graph(n), seed=n)
        res = run_graph_to_wreath(g)
        budget = 12 * math.ceil(math.log2(n)) ** 2 + 60
        assert res.rounds <= budget

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_total_activations(self, n):
        g = graphs.random_uids(graphs.line_graph(n), seed=n)
        res = run_graph_to_wreath(g)
        assert res.metrics.total_activations <= 3 * n * math.ceil(math.log2(n)) ** 2

    @pytest.mark.parametrize("family", ["line", "ring", "regular3"])
    def test_linear_active_edges(self, family):
        g = graphs.make(family, 64)
        res = run_graph_to_wreath(g)
        assert res.metrics.max_activated_edges <= 3 * g.number_of_nodes()

    @pytest.mark.parametrize("family", ["line", "ring", "grid", "regular3"])
    def test_constant_activated_degree(self, family):
        """The headline claim: activated degree stays constant."""
        small = run_graph_to_wreath(graphs.make(family, 24))
        large = run_graph_to_wreath(graphs.make(family, 96))
        assert small.metrics.max_activated_degree <= 8
        assert large.metrics.max_activated_degree <= 8

    def test_one_activation_per_node_per_round(self):
        g = graphs.make("ring", 48)
        res = run_graph_to_wreath(g)
        assert res.metrics.max_activations_per_node_round <= 1


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_any_tree(n, seed):
    g = graphs.random_uids(graphs.random_tree(n, seed=seed), seed=seed + 1)
    res = run_graph_to_wreath(g)
    u_max = max(g.nodes())
    fg = res.final_graph()
    assert graphs.is_spanning_tree(fg)
    assert graphs.is_binary_tree(fg, u_max)
    assert wreath_leader(res) == u_max


class TestSegmentDispatch:
    """Segment handlers are dispatched through a class-level table, so a
    program holds no bound methods of itself."""

    @pytest.mark.parametrize("thin", [False, True], ids=["wreath", "thin-wreath"])
    def test_program_is_freed_by_refcount(self, thin):
        from repro.core.graph_to_wreath import GraphToWreathProgram
        from repro.core.thin_wreath import GraphToThinWreathProgram

        enabled = gc.isenabled()
        gc.disable()
        try:
            prog = GraphToThinWreathProgram(7, 64) if thin else GraphToWreathProgram(7)
            ref = weakref.ref(prog)
            del prog
            assert ref() is None, "the program is part of a reference cycle"
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("backend", ["reference", "bulk"])
    def test_subclass_override_wins(self, backend):
        from repro.core.graph_to_wreath import GraphToWreathProgram
        from repro.engine import SynchronousRunner

        calls = []

        class Reporting(GraphToWreathProgram):
            def _seg_report(self, ctx, messages):
                calls.append(self.uid)
                super()._seg_report(ctx, messages)

        g = graphs.make("ring", 12)
        res = SynchronousRunner(g, Reporting, use_barrier=True, backend=backend).run()
        assert set(calls) == set(g.nodes())
        assert wreath_leader(res) == max(g.nodes())
