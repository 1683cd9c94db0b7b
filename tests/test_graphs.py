"""Tests for graph generators, UID schemes, and validators."""

import networkx as nx
import pytest

from repro import graphs
from repro.errors import ConfigurationError


class TestGenerators:
    def test_line(self):
        g = graphs.line_graph(5)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 4
        assert graphs.diameter(g) == 4

    def test_line_singleton(self):
        assert graphs.line_graph(1).number_of_nodes() == 1

    def test_ring(self):
        g = graphs.ring_graph(6)
        assert graphs.is_ring(g)

    def test_ring_too_small(self):
        with pytest.raises(ConfigurationError):
            graphs.ring_graph(2)

    def test_star(self):
        g = graphs.star_graph(7)
        assert graphs.is_spanning_star(g, center=6)

    def test_star_custom_center(self):
        g = graphs.star_graph(5, center=2)
        assert graphs.is_spanning_star(g, center=2)

    def test_complete_binary_tree(self):
        g = graphs.complete_binary_tree(15)
        assert graphs.is_binary_tree(g, 0)
        assert graphs.tree_depth(g, 0) == 3

    def test_random_tree_is_tree(self):
        for seed in range(5):
            g = graphs.random_tree(40, seed=seed)
            assert graphs.is_spanning_tree(g)

    def test_gnp_connected(self):
        for seed in range(5):
            g = graphs.random_connected_gnp(50, seed=seed)
            assert nx.is_connected(g)

    def test_grid(self):
        g = graphs.grid_graph(4, 5)
        assert g.number_of_nodes() == 20
        assert graphs.max_degree(g) == 4

    def test_regular(self):
        g = graphs.random_regular(20, 3, seed=1)
        assert all(d == 3 for _, d in g.degree())
        assert nx.is_connected(g)

    def test_caterpillar(self):
        g = graphs.caterpillar(5, 2)
        assert g.number_of_nodes() == 15
        assert graphs.is_spanning_tree(g)

    def test_lollipop(self):
        g = graphs.lollipop(4, 3)
        assert g.number_of_nodes() == 7
        assert nx.is_connected(g)

    def test_hypercube(self):
        g = graphs.hypercube(3)
        assert g.number_of_nodes() == 8
        assert all(d == 3 for _, d in g.degree())

    def test_binary_tree_with_path(self):
        g = graphs.binary_tree_with_path(3, 10)
        assert graphs.is_spanning_tree(g)
        assert g.number_of_nodes() == 25


class TestUidSchemes:
    def test_random_uids_permutation(self):
        g = graphs.random_uids(graphs.line_graph(10), seed=3)
        assert sorted(g.nodes()) == list(range(10))
        assert g.number_of_edges() == 9

    def test_random_uids_spread(self):
        g = graphs.random_uids(graphs.line_graph(10), seed=3, spread=7)
        assert all(u % 7 == 0 for u in g.nodes())

    def test_order_metadata_translated(self):
        g = graphs.random_uids(graphs.line_graph(5), seed=1)
        order = g.graph["order"]
        assert sorted(order) == sorted(g.nodes())
        # consecutive order entries are adjacent
        assert all(g.has_edge(a, b) for a, b in zip(order, order[1:]))

    def test_adversarial_max_far(self):
        g = graphs.adversarial_max_far(graphs.line_graph(21), seed=0)
        ecc = nx.eccentricity(g)
        assert ecc[20] == max(ecc.values())

    def test_increasing_along_order(self):
        g = graphs.increasing_along_order(graphs.ring_graph(8))
        order = g.graph["order"]
        assert order == sorted(order)

    def test_increasing_requires_order(self):
        with pytest.raises(ConfigurationError):
            graphs.increasing_along_order(graphs.star_graph(4))


class TestValidators:
    def test_is_spanning_star_negative(self):
        assert not graphs.is_spanning_star(graphs.line_graph(4))

    def test_is_spanning_star_k2(self):
        g = graphs.line_graph(2)
        assert graphs.is_spanning_star(g)
        assert graphs.is_spanning_star(g, center=0)
        assert graphs.is_spanning_star(g, center=1)

    def test_depth_d_tree(self):
        g = graphs.complete_binary_tree(7)
        assert graphs.is_depth_d_tree(g, 0, 2)
        assert not graphs.is_depth_d_tree(g, 0, 1)

    def test_is_binary_tree_negative(self):
        g = graphs.star_graph(5)
        assert not graphs.is_binary_tree(g, g.graph["center"])

    def test_is_kary_tree(self):
        g = graphs.star_graph(5, center=0)
        assert graphs.is_kary_tree(g, 0, 4)
        assert not graphs.is_kary_tree(g, 0, 3)

    def test_is_wreath(self):
        ring = graphs.ring_graph(7)
        ring_edges = set(ring.edges())
        tree = graphs.complete_binary_tree(7)
        tree_edges = set(tree.edges())
        g = nx.Graph()
        g.add_edges_from(ring_edges | tree_edges)
        assert graphs.is_wreath(g, ring_edges, tree_edges, 0)
        assert not graphs.is_wreath(g, ring_edges, set(), 0)


class TestFamilies:
    @pytest.mark.parametrize("name", sorted(graphs.FAMILIES))
    def test_families_connected(self, name):
        g = graphs.make(name, 24)
        assert nx.is_connected(g)
        assert g.number_of_nodes() >= 12

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            graphs.make("nope", 10)

    @pytest.mark.parametrize("n", [0, -4])
    @pytest.mark.parametrize("name", sorted(graphs.FAMILIES))
    def test_non_positive_n_rejected(self, name, n):
        # Families that round small sizes up (ring, caterpillar, grid)
        # must not turn n <= 0 into a silently different graph.
        with pytest.raises(ConfigurationError, match=f"n must be >= 1, got {n}"):
            graphs.make(name, n)

    def test_bounded_degree_families_bounded(self):
        for name in graphs.BOUNDED_DEGREE_FAMILIES:
            g = graphs.make(name, 64)
            assert graphs.max_degree(g) <= 5
