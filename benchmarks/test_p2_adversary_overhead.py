"""P2 — adversary hook guard: ``adversary=None`` keeps the PR-1 hot path.

The round loop's only unconditional new cost is one ``is None`` test per
round; everything else (perturbation application, connectivity rebuilds,
context-``n`` refresh) is gated behind an active adversary.  These tests
pin that *relationally*: a run with no adversary must match a run whose
adversary never fires, and the P1 straggler property (per-round cost
independent of halted-node count) must keep holding when the adversary
argument is passed explicitly as ``None``.
"""

import statistics
import time

import networkx as nx

from conftest import run_once
from repro import graphs
from repro.core import run_graph_to_star
from repro.dynamics import AdversarySpec, ScriptedAdversary
from repro.dynamics.scenarios import run_star_self_healing
from repro.engine import NodeProgram, run_program

ROUNDS = 300


class Straggler(NodeProgram):
    rounds = ROUNDS

    def transition(self, ctx, inbox):
        if self.uid == 0:
            if ctx.round >= self.rounds:
                self.halt()
        else:
            self.halt()


def _run_straggler(n: int, rounds: int = ROUNDS, adversary=None):
    prog = type("Straggler_", (Straggler,), {"rounds": rounds})
    return run_program(
        nx.star_graph(n - 1), prog, max_rounds=rounds + 10, adversary=adversary
    )


def _no_adversary():
    return None


def _paired_marginal_costs(cases, pairs: int = 9) -> list:
    """Each case's marginal per-round cost, a case being ``(n,
    adversary_factory)``: the median over ``pairs`` passes, each pass
    timing one short and one long run per case in turn.  Alternating
    the cases exposes them to the same host slowdowns (the e2e
    harness's paired method), and the median drops the passes a
    collection or a neighbour spoils."""
    costs = [[] for _ in cases]
    for _ in range(pairs):
        for cost, (n, adversary) in zip(costs, cases):
            short, long = adversary(), adversary()
            t0 = time.perf_counter()
            _run_straggler(n, rounds=5, adversary=short)
            t1 = time.perf_counter()
            _run_straggler(n, rounds=ROUNDS, adversary=long)
            t2 = time.perf_counter()
            cost.append(max((t2 - t1) - (t1 - t0), 0.0) / (ROUNDS - 5))
    return [statistics.median(cost) for cost in costs]


def test_p2_adversary_none_matches_silent_adversary():
    """adversary=None must cost no more than a never-firing adversary.

    The None path skips the whole perturbation hook; an empty
    ScriptedAdversary enters it every round and immediately returns.
    If None were measurably slower than that, the default path would
    have picked up un-gated work.  Generous 1.5x + epsilon headroom for
    timer noise in both directions.
    """
    _run_straggler(512)  # warm up
    none_cost, silent_cost = _paired_marginal_costs(
        ((512, _no_adversary), (512, lambda: ScriptedAdversary({})))
    )
    floor = 2e-6
    assert none_cost < 1.5 * max(silent_cost, floor) + floor, (
        f"adversary=None slower than a never-firing adversary: "
        f"{none_cost*1e6:.1f}us vs {silent_cost*1e6:.1f}us per round"
    )


def test_p2_straggler_property_survives_with_none():
    """P1's core property, restated with adversary=None passed explicitly:
    marginal per-round cost with one live node must not scale with n."""
    _run_straggler(256)
    small, large = _paired_marginal_costs(((256, _no_adversary), (2048, _no_adversary)))
    assert large < 4 * max(small, 2e-6), (
        f"straggler round cost scaled with halted nodes under adversary=None: "
        f"n=256 {small*1e6:.1f}us/round vs n=2048 {large*1e6:.1f}us/round"
    )


def test_p2_bench_star_heal(benchmark):
    """BENCH: self-healing GraphToStar under a rerouting drop adversary."""
    g = graphs.make("ring", 64)
    spec = AdversarySpec("drop", rate=0.2, seed=3, policy="reroute")
    run_once(benchmark, run_star_self_healing, g, adversary=spec, strikes=3)


def test_p2_bench_star_unperturbed_reference(benchmark):
    """BENCH: the same workload without an adversary (overhead reference)."""
    g = graphs.make("ring", 64)
    run_once(benchmark, run_graph_to_star, g)
