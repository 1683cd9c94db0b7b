"""Composition (Section 1.3): transform first, then compute.

The paper's motivation for (poly)log-diameter targets: any algorithm B
that assumes small diameter and an elected leader can run after the
transformation.  This module composes a transformation with a
small-diameter solver and reports end-to-end round counts, next to the
no-transformation baseline (flooding on ``G_s`` directly, which pays the
original diameter).

Pipelines are first-class scenarios: :class:`PipelineResult` exposes the
same measurement surface as :class:`~repro.engine.RunResult` (``rounds``,
``metrics``, ``final_graph()``), so the registered composition scenarios
(``star+flood``, ``wreath+flood``, ``flood-baseline``, ``star+leader``)
run, sweep, trace, and differential-test like any other algorithm, on
either engine backend, with per-stage columns stamped into sweep rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import networkx as nx

from ..engine import Metrics, RunResult, aggregate_metrics
from .leader_election import run_leader_election
from .token_dissemination import (
    is_dissemination_complete,
    run_token_dissemination,
)


@dataclass
class CompositionResult:
    """Round/edge accounting of transform-then-disseminate."""

    transform: RunResult
    disseminate: RunResult

    @property
    def total_rounds(self) -> int:
        return self.transform.rounds + self.disseminate.rounds

    @property
    def total_activations(self) -> int:
        return (
            self.transform.metrics.total_activations
            + self.disseminate.metrics.total_activations
        )

    @property
    def complete(self) -> bool:
        return is_dissemination_complete(self.disseminate)


def transform_then_disseminate(
    graph: nx.Graph, transformer: Callable[[nx.Graph], RunResult]
) -> CompositionResult:
    """Run ``transformer`` on ``graph``, then flood tokens on its output."""
    transform = transformer(graph)
    disseminate = run_token_dissemination(transform.final_graph())
    return CompositionResult(transform=transform, disseminate=disseminate)


def disseminate_without_transform(graph: nx.Graph) -> RunResult:
    """The baseline: flood tokens over ``G_s`` itself (pays its diameter)."""
    return run_token_dissemination(graph)


# ----------------------------------------------------------------------
# pipeline scenarios
# ----------------------------------------------------------------------


@dataclass
class PipelineResult:
    """End-to-end accounting of a transform-then-solve pipeline.

    ``stages`` is an ordered list of ``(name, result)`` pairs — each
    stage an ordinary engine run on the previous stage's final graph.
    The aggregate surface matches :class:`~repro.engine.RunResult`
    (totals summed, watermarks maxed, round series concatenated), so
    pipelines sweep and tabulate like single runs; per-stage traces live
    on the stage results (``trace`` is ``None`` here, exactly like
    self-healing results).
    """

    stages: list = field(default_factory=list)
    metrics: Metrics = None
    trace = None  # stage traces live on the stage results themselves

    @property
    def rounds(self) -> int:
        return sum(res.rounds for _, res in self.stages)

    @property
    def programs(self):
        """The final stage's programs (the solver's output state)."""
        return self.stages[-1][1].programs

    def stage(self, name: str):
        for stage_name, res in self.stages:
            if stage_name == name:
                return res
        raise KeyError(f"no pipeline stage {name!r}; stages: "
                       f"{[s for s, _ in self.stages]}")

    def final_graph(self) -> nx.Graph:
        return self.stages[-1][1].final_graph()

    def final_keys(self):
        return self.stages[-1][1].final_keys()

    def stage_columns(self) -> dict:
        """Per-stage sweep-row columns (``<stage>_rounds``/``_activations``)."""
        cols = {}
        for name, res in self.stages:
            cols[f"{name}_rounds"] = res.rounds
            cols[f"{name}_activations"] = res.metrics.total_activations
        return cols


def run_pipeline(graph: nx.Graph, stages, **runner_kwargs) -> PipelineResult:
    """Run ``stages`` (``(name, runner)`` pairs) back to back, each on the
    previous stage's final graph, forwarding ``runner_kwargs`` (backend,
    collect_trace, check_connectivity, ...) to every stage."""
    results = []
    current = graph
    for name, runner in stages:
        res = runner(current, **runner_kwargs)
        results.append((name, res))
        current = res.final_graph()
    return PipelineResult(
        stages=results,
        metrics=aggregate_metrics(res.metrics for _, res in results),
    )


def run_star_then_flood(graph: nx.Graph, **kwargs) -> PipelineResult:
    """``star+flood``: GraphToStar, then token dissemination on the star."""
    from ..core import run_graph_to_star

    return run_pipeline(
        graph,
        (("transform", run_graph_to_star), ("solve", run_token_dissemination)),
        **kwargs,
    )


def run_wreath_then_flood(graph: nx.Graph, **kwargs) -> PipelineResult:
    """``wreath+flood``: GraphToWreath, then token dissemination."""
    from ..core import run_graph_to_wreath

    return run_pipeline(
        graph,
        (("transform", run_graph_to_wreath), ("solve", run_token_dissemination)),
        **kwargs,
    )


def run_flood_baseline(graph: nx.Graph, **kwargs) -> PipelineResult:
    """``flood-baseline``: token dissemination directly on ``G_s``.

    A single-stage pipeline, so baseline rows carry the same
    ``solve_*`` columns as the transformed scenarios they compare to.
    """
    return run_pipeline(graph, (("solve", run_token_dissemination),), **kwargs)


def run_star_then_leader(graph: nx.Graph, **kwargs) -> PipelineResult:
    """``star+leader``: GraphToStar, then max-UID leader election."""
    from ..core import run_graph_to_star

    return run_pipeline(
        graph,
        (("transform", run_graph_to_star), ("solve", run_leader_election)),
        **kwargs,
    )
