"""Self-healing: restart wrappers and resilience metrics.

The paper's committee algorithms are terminating transformations, not
self-stabilizing protocols: a perturbation in the middle of a committee
phase can invalidate the invariants their correctness proofs rest on.
Repair therefore follows the classic self-stabilization round model —
the adversary strikes a *quiescent* network, damage is detected, and the
algorithm re-enters its transformation on the damaged topology as a
fresh initial network (DESIGN.md note 8):

    build -> strike -> (target broken?) -> repair -> strike -> ...

:func:`run_self_healing` drives that loop for any registered transform
and any :class:`~repro.dynamics.adversary.Adversary`; each repair
episode is an ordinary engine run, so every episode inherits the
engine's hot path, legality guard, and determinism.  Resilience is
summarized by :class:`RecoveryMetrics`: rounds-to-recover per strike,
total repair activations, and the round/activation *stretch* relative
to the unperturbed baseline build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import networkx as nx

from ..engine import Metrics, Network, RunResult, aggregate_metrics
from ..errors import ConfigurationError
from ..graphs.validate import (
    is_binary_tree,
    is_spanning_star,
    is_spanning_tree,
    tree_depth,
)
from .adversary import Adversary, Perturbation


# ----------------------------------------------------------------------
# target predicates (graph -> bool): has the adversary broken the target?
# ----------------------------------------------------------------------


def star_target(graph: nx.Graph) -> bool:
    """GraphToStar's target: a spanning star centered at the max UID."""
    return is_spanning_star(graph, center=max(graph.nodes()))


def wreath_target(graph: nx.Graph, c: float = 3.0, slack: int = 3) -> bool:
    """GraphToWreath's target: a shallow binary tree rooted at the max UID."""
    root = max(graph.nodes())
    if not is_spanning_tree(graph) or not is_binary_tree(graph, root):
        return False
    n = graph.number_of_nodes()
    budget = int(c * math.ceil(math.log2(max(2, n)))) + slack
    return tree_depth(graph, root) <= budget


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class StrikeRecord:
    """One adversary strike and the repair (if any) that answered it."""

    strike: int
    perturbation: Perturbation
    damaged: bool
    repair_rounds: int = 0
    repair_activations: int = 0


@dataclass
class RecoveryMetrics:
    """Resilience summary of a self-healing run."""

    strikes: int
    repairs: int
    rounds_to_recover: list
    repair_rounds: int
    repair_activations: int
    round_stretch: float
    activation_stretch: float

    def as_dict(self) -> dict:
        return {
            "strikes": self.strikes,
            "repairs": self.repairs,
            "mean_rounds_to_recover": (
                sum(self.rounds_to_recover) / len(self.rounds_to_recover)
                if self.rounds_to_recover
                else 0.0
            ),
            "repair_rounds": self.repair_rounds,
            "repair_activations": self.repair_activations,
            "round_stretch": self.round_stretch,
            "activation_stretch": self.activation_stretch,
        }


@dataclass
class SelfHealingResult:
    """Everything produced by one build-strike-repair history.

    Exposes the same measurement surface as :class:`RunResult`
    (``rounds``, ``metrics``, ``final_graph()``), so a self-healing
    scenario sweeps and tabulates like any other algorithm; ``metrics``
    aggregates all episodes (totals summed, watermarks maxed).
    """

    episodes: list = field(default_factory=list)
    strikes: list = field(default_factory=list)
    graph: nx.Graph = None
    metrics: Metrics = None
    recovery: RecoveryMetrics = None
    trace = None  # episode traces live on the episodes themselves

    @property
    def baseline(self) -> RunResult:
        """The unperturbed initial build (episode 0)."""
        return self.episodes[0]

    @property
    def rounds(self) -> int:
        return sum(ep.rounds for ep in self.episodes)

    def final_graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.graph.nodes())
        g.add_edges_from(self.graph.edges())
        return g

    def final_keys(self):
        """The final graph as ``(uids, keys)``, read from ``graph``'s
        adjacency without a copy (its labels are a network's, so they
        sort)."""
        from ..engine.graph_keys import slot_keys

        return slot_keys(self.graph)


# ----------------------------------------------------------------------
# the self-healing loop
# ----------------------------------------------------------------------


def run_self_healing(
    graph: nx.Graph,
    transform: Callable,
    adversary: Adversary,
    *,
    target_check: Callable[[nx.Graph], bool],
    strikes: int = 3,
    runner_kwargs: dict | None = None,
) -> SelfHealingResult:
    """Build the target, strike it ``strikes`` times, repair as needed.

    Each strike calls ``adversary.strike`` on the quiescent target
    network (ungated, so every strike round counts); if the perturbed
    topology fails ``target_check``, ``transform`` re-runs on it as a
    fresh initial network.  Deterministic: one seeded adversary, reset
    at entry, drives the whole history.
    """
    if strikes < 0:
        raise ConfigurationError(f"strikes must be >= 0, got {strikes}")
    kwargs = dict(runner_kwargs or {})
    adversary.reset()

    baseline = transform(graph, **kwargs)
    episodes = [baseline]
    current = baseline.final_graph()
    strike_records: list = []
    clock = baseline.rounds

    for s in range(1, strikes + 1):
        view = Network(current)
        clock += 1
        pert = adversary.strike(view, clock)
        if pert is None:
            pert = Perturbation(round=clock)
            strike_records.append(StrikeRecord(strike=s, perturbation=pert, damaged=False))
            continue
        view.apply_external(
            drops=pert.drops, adds=pert.adds, crashes=pert.crashes, joins=pert.joins
        )
        current = view.snapshot_graph()
        record = StrikeRecord(strike=s, perturbation=pert, damaged=not target_check(current))
        if record.damaged:
            repair = transform(current, **kwargs)
            episodes.append(repair)
            current = repair.final_graph()
            clock += repair.rounds
            record.repair_rounds = repair.rounds
            record.repair_activations = repair.metrics.total_activations
        strike_records.append(record)

    metrics = aggregate_metrics(ep.metrics for ep in episodes)
    rounds_to_recover = [r.repair_rounds for r in strike_records if r.damaged]
    recovery = RecoveryMetrics(
        strikes=len(strike_records),
        repairs=len(rounds_to_recover),
        rounds_to_recover=rounds_to_recover,
        repair_rounds=sum(rounds_to_recover),
        repair_activations=sum(r.repair_activations for r in strike_records),
        round_stretch=(
            metrics.rounds / baseline.rounds if baseline.rounds else 1.0
        ),
        activation_stretch=(
            metrics.total_activations / baseline.metrics.total_activations
            if baseline.metrics.total_activations
            else 1.0
        ),
    )
    return SelfHealingResult(
        episodes=episodes,
        strikes=strike_records,
        graph=current,
        metrics=metrics,
        recovery=recovery,
    )
