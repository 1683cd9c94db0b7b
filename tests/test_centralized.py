"""Tests for the centralized strategies and bound formulas (Section 6)."""

import math

import networkx as nx
import pytest

from repro import graphs
from repro.centralized import (
    centralized_activation_lower_bound,
    centralized_per_round_lower_bound,
    clique_activation_count,
    distributed_activation_curve,
    euler_tour_order,
    run_cut_in_half,
    run_euler_ring,
    time_lower_bound_line,
)
from repro.engine import CentralizedStrategy, run_centralized
from repro.errors import ConfigurationError, ProtocolViolation


class TestCutInHalf:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 100, 257])
    def test_diameter_logarithmic(self, n):
        res = run_cut_in_half(graphs.line_graph(n))
        assert graphs.diameter(res.final_graph()) <= 2 * math.ceil(math.log2(n)) + 2

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_rounds_and_activations(self, n):
        res = run_cut_in_half(graphs.line_graph(n))
        assert res.rounds <= math.ceil(math.log2(n)) + 1
        # Theorem D.5: Theta(n) total activations.
        assert res.metrics.total_activations <= n
        assert res.metrics.total_activations >= n - 2 * math.ceil(math.log2(n)) - 2

    @pytest.mark.parametrize("n", [5, 16, 100])
    def test_prune_to_tree(self, n):
        res = run_cut_in_half(graphs.line_graph(n), prune_to_tree=True)
        fg = res.final_graph()
        assert graphs.is_spanning_tree(fg)
        assert graphs.tree_depth(fg, 0) <= math.ceil(math.log2(n)) + 1

    def test_legality_enforced(self):
        # strict=True is the default: the schedule's jumps must be legal.
        res = run_cut_in_half(graphs.line_graph(600))
        assert res.rounds == math.floor(math.log2(599))

    def test_works_on_unordered_path(self):
        g = nx.Graph([(5, 2), (2, 9), (9, 1)])  # path without metadata
        res = run_cut_in_half(g)
        assert graphs.diameter(res.final_graph()) <= 3

    def test_rejects_non_path(self):
        with pytest.raises(ConfigurationError):
            run_cut_in_half(nx.cycle_graph(5))


class _CutPath(CentralizedStrategy):
    """Deactivates the middle edge of the path 0-1-2-3 in round 1."""

    def plan_round(self, network, actions):
        actions.request_deactivation(1, 1, 2)
        return False


class TestConnectivityGuard:
    def test_disconnecting_round_raises(self):
        with pytest.raises(ProtocolViolation, match="round 1 broke connectivity"):
            run_centralized(nx.path_graph(4), _CutPath(), check_connectivity=True)


class TestEulerTour:
    def test_tour_covers_all_nodes(self):
        g = graphs.random_tree(30, seed=1)
        order = euler_tour_order(g, 0)
        assert set(order) == set(g.nodes())
        assert len(order) <= 2 * 30 - 1

    def test_tour_steps_are_edges(self):
        g = graphs.make("gnp", 40)
        root = max(g.nodes())
        order = euler_tour_order(g, root)
        assert all(g.has_edge(a, b) for a, b in zip(order, order[1:]))

    def test_tour_rejects_disconnected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(ConfigurationError):
            euler_tour_order(g, 0)


class TestEulerRing:
    @pytest.mark.parametrize("family", ["line", "ring", "random_tree", "gnp", "grid"])
    @pytest.mark.parametrize("n", [10, 60, 150])
    def test_log_diameter_any_graph(self, family, n):
        g = graphs.make(family, n)
        res = run_euler_ring(g)
        m = g.number_of_nodes()
        assert graphs.diameter(res.final_graph()) <= 2 * math.ceil(math.log2(2 * m)) + 2
        assert res.rounds <= math.ceil(math.log2(2 * m)) + 1

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_linear_activations(self, n):
        """Theorem 6.3: Theta(n) total edge activations."""
        g = graphs.make("random_tree", n)
        res = run_euler_ring(g)
        assert res.metrics.total_activations <= 2 * n

    def test_depth_log_tree_output(self):
        g = graphs.make("grid", 100)
        res = run_euler_ring(g, prune_to_tree=True)
        fg = res.final_graph()
        root = max(g.nodes())
        m = g.number_of_nodes()
        assert graphs.is_spanning_tree(fg)
        assert graphs.tree_depth(fg, root) <= 2 * math.ceil(math.log2(2 * m)) + 2

    def test_custom_root(self):
        g = graphs.make("ring", 20)
        root = min(g.nodes())
        res = run_euler_ring(g, root=root, prune_to_tree=True)
        assert graphs.tree_depth(res.final_graph(), root) <= 12


class TestBoundFormulas:
    def test_time_lower_bound_growth(self):
        values = [time_lower_bound_line(n) for n in (8, 64, 512, 4096)]
        assert values == sorted(values)
        assert values[-1] >= 8  # close to log2(n)

    def test_time_lower_bound_small(self):
        assert time_lower_bound_line(2) == 0

    def test_centralized_activation_bound(self):
        assert centralized_activation_lower_bound(1024) == 1024 - 1 - 20

    def test_per_round_bound(self):
        assert centralized_per_round_lower_bound(1024) == pytest.approx(1003 / 10)

    def test_distributed_curve(self):
        assert distributed_activation_curve(1024) == pytest.approx(10240.0)

    def test_clique_count(self):
        assert clique_activation_count(10) == 45
