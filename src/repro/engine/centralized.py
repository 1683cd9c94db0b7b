"""Centralized transformation strategies (Section 6 / Appendix D).

A centralized strategy has full knowledge of the network and submits one
:class:`RoundActions` batch per round.  It runs under exactly the same
legality rules and metrics as distributed programs, which makes the
centralized-vs-distributed comparison of Section 6 an apples-to-apples
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..errors import ExecutionError
from .actions import RoundActions
from .metrics import Metrics, MetricsRecorder
from .network import Network
from .observers import TraceObserver
from .runner import frozen_heap
from .trace import RoundRecord, Trace


class CentralizedStrategy:
    """Base class: override :meth:`plan_round`.

    ``plan_round`` inspects the live :class:`Network` (full knowledge) and
    fills in the actions for the current round.  Return ``False`` when the
    strategy has finished (the returned batch is still applied if non-empty).
    """

    def setup(self, network: Network) -> None:
        """Called once before the first round."""

    def plan_round(self, network: Network, actions: RoundActions) -> bool:
        raise NotImplementedError


@dataclass
class CentralizedResult:
    network: Network
    metrics: Metrics
    trace: Trace | None
    rounds: int

    def final_graph(self) -> nx.Graph:
        return self.network.snapshot_graph()


def run_centralized(
    graph: nx.Graph,
    strategy: CentralizedStrategy,
    *,
    strict: bool = True,
    check_connectivity: bool = False,
    collect_trace: bool = False,
    max_rounds: int = 10_000,
    observers=(),
) -> CentralizedResult:
    """Execute a centralized strategy round by round.

    Feeds the same :class:`~repro.engine.observers.RoundObserver`
    pipeline as the distributed backends (``collect_trace`` is one
    :class:`TraceObserver` on it), so streaming sinks and conformance
    checkers work identically on centralized scenarios.
    """
    network = Network(graph)
    strategy.setup(network)
    recorder = MetricsRecorder(network)
    pipeline = list(observers)
    trace_observer = None
    if collect_trace:
        trace_observer = TraceObserver()
        pipeline.append(trace_observer)
    obs = tuple(pipeline) if pipeline else None
    if obs is not None:
        for o in obs:
            o.on_run_start(network)

    running = True
    with frozen_heap():
        while running:
            if network.round > max_rounds:
                raise ExecutionError(f"round limit {max_rounds} exceeded")
            actions = RoundActions()
            running = strategy.plan_round(network, actions)
            if not running and not actions:
                break
            per_node = actions.activation_count_by_actor()
            round_no = network.round
            # Emitted after the break decision so every round-start is
            # followed by exactly one committed-round record.
            if obs is not None:
                for o in obs:
                    o.on_round_start(round_no)
            activations, deactivations = network.apply(actions, strict=strict)
            recorder.record_round(activations, deactivations, per_node)
            connected = network.is_connected() if check_connectivity else True
            if obs is not None:
                record = RoundRecord(
                    round=round_no,
                    activations=frozenset(activations),
                    deactivations=frozenset(deactivations),
                    active_edges=network.num_active_edges,
                    activated_edges=len(network.activated_edges()),
                    connected=connected,
                )
                for o in obs:
                    o.on_round(record)

    recorder.metrics.rounds = network.round - 1
    if obs is not None:
        for o in obs:
            o.on_run_end(recorder.metrics)
    return CentralizedResult(
        network=network,
        metrics=recorder.metrics,
        trace=trace_observer.trace if trace_observer is not None else None,
        rounds=network.round - 1,
    )
