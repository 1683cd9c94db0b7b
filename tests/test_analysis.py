"""Tests for the analysis tooling: potentials, symmetry, fits, tables."""

import math

import networkx as nx
import pytest

from repro import graphs
from repro.analysis import (
    KnowledgeReplay,
    SweepPlan,
    best_model,
    fit_constant,
    format_table,
    growth_exponent,
    initial_potential,
    live_round_profile,
    measure,
    symmetry_ratio,
)
from repro.core import run_graph_to_star
from repro.engine import Trace
from repro.engine.trace import RoundRecord


def make_trace(events):
    t = Trace()
    for i, (acts, deacts) in enumerate(events, start=1):
        t.append(
            RoundRecord(
                round=i,
                activations=frozenset(acts),
                deactivations=frozenset(deacts),
                active_edges=0,
                activated_edges=0,
                connected=True,
            )
        )
    return t


class TestKnowledgeReplay:
    def test_knowledge_spreads_one_hop_per_round(self):
        g = nx.path_graph(4)
        trace = make_trace([([], []), ([], []), ([], [])])
        kr = KnowledgeReplay(g, trace)
        kr.step()
        assert 0 in kr.knowledge[1]
        assert 0 not in kr.knowledge[2]
        kr.step()
        assert 0 in kr.knowledge[2]

    def test_potential_drops_with_knowledge(self):
        g = nx.path_graph(5)
        assert initial_potential(g, 0, 4) == 4
        trace = make_trace([([], [])] * 4)
        kr = KnowledgeReplay(g, trace)
        kr.run()
        assert kr.potential(0, 4) == 0.0

    def test_activation_halves_potential(self):
        g = nx.path_graph(5)
        # Round 1 activates the (0,2) and (2,4) shortcuts.
        trace = make_trace([([(0, 2), (2, 4)], [])])
        kr = KnowledgeReplay(g, trace)
        kr.run()
        # UID 0 is now known at node 1; distance from 1 to 4 over shortcuts
        # is 1-2-4 = 2.
        assert kr.potential(0, 4) == 2

    def test_observation_1_on_solution(self):
        """After GraphToStar solves Depth-1 Tree, all potentials are tiny."""
        g = graphs.make("ring", 16)
        res = run_graph_to_star(g, collect_trace=True)
        kr = KnowledgeReplay(g, res.trace)
        kr.run()
        assert kr.max_pairwise_potential() <= math.log2(16)


class TestSymmetry:
    def test_live_rounds_on_increasing_ring(self):
        g = graphs.increasing_along_order(graphs.ring_graph(32))
        res = run_graph_to_star(g, collect_trace=True)
        profile = live_round_profile(res.trace, 32)
        assert profile.total == res.metrics.total_activations
        assert len(profile.live_rounds()) >= int(math.log2(32)) - 2

    def test_symmetry_ratio_high_on_increasing_ring(self):
        g = graphs.increasing_along_order(graphs.ring_graph(64))
        res = run_graph_to_star(g, collect_trace=True)
        assert symmetry_ratio(res.trace, 64) >= 0.8

    def test_empty_trace(self):
        profile = live_round_profile(make_trace([]), 8)
        assert profile.total == 0
        assert symmetry_ratio(make_trace([]), 8) == 1.0


class TestFitting:
    def test_exact_fit(self):
        ns = [16, 64, 256, 1024]
        ys = [3 * n * math.log2(n) for n in ns]
        c, err = fit_constant(ns, ys, "n log")
        assert c == pytest.approx(3.0)
        assert err < 1e-9

    def test_best_model_selection(self):
        ns = [16, 64, 256, 1024]
        assert best_model(ns, [5 * math.log2(n) for n in ns])[0] == "log"
        assert best_model(ns, [0.5 * n**2 for n in ns])[0] == "n^2"

    def test_growth_exponent(self):
        ns = [16, 64, 256]
        assert growth_exponent(ns, [n**2 for n in ns]) == pytest.approx(2.0, abs=0.01)


class TestSweepAndTables:
    def test_sweep_rows(self):
        rows = SweepPlan.grid({"g2s": run_graph_to_star}, ["line"], [8, 16]).run().rows
        assert len(rows) == 2
        assert rows[0].final_diameter <= 2
        assert rows[0].as_dict()["algorithm"] == "g2s"

    def test_measure(self):
        g = graphs.make("ring", 12)
        res = run_graph_to_star(g)
        row = measure("g2s", "ring", g, res)
        assert row.n == 12
        assert row.rounds == res.rounds

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        assert "| a " in text
        assert "2.50" in text
        assert text.count("\n") == 3
