"""Centralized transformation strategies (Section 6 / Appendix D).

A centralized strategy has full knowledge of the network and submits one
:class:`RoundActions` batch per round.  It runs on the reference round
loop (:class:`CentralizedRunner`), whose only difference from a
distributed run is where a round's actions come from: the commit — the
legality rules, the metrics, the connectivity guard and the observer
stream — is the one every distributed round goes through, which makes
the centralized-vs-distributed comparison of Section 6 an
apples-to-apples measurement.
"""

from __future__ import annotations

import networkx as nx

from .actions import RoundActions
from .network import Network
from .runner import RunResult, SynchronousRunner


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


class CentralizedRunner(SynchronousRunner):
    """The reference round loop driven by one strategy instead of a fleet.

    There are no node programs: the strategy is the run's only live
    actor, and the run ends after the round in which ``plan_round``
    returns ``False`` (or, with an empty batch, before it).
    """

    def __init__(self, graph: nx.Graph, strategy: CentralizedStrategy, **kwargs) -> None:
        self.strategy = strategy
        super().__init__(graph, None, **kwargs)

    def _init_fleet(self) -> None:
        self.programs = {}
        self._live = {"strategy": None}

    def _setup(self, adversary) -> None:
        self.strategy.setup(self.network)

    def _run_round(self, recorder, observers) -> None:
        net = self.network
        actions = self._actions
        actions.clear()
        if not self.strategy.plan_round(net, actions):
            self._live.clear()
            if not actions:
                return
        round_no = net.round
        if observers is not None:
            for obs in observers:
                obs.on_round_start(round_no)
        activations, deactivations = self._commit_round(recorder, observers)
        if self._probe is not None:
            self._probe.probe_round(
                round_no, dispatch="centralized",
                acts=len(activations), deacts=len(deactivations),
            )


def run_centralized(
    graph: nx.Graph,
    strategy: CentralizedStrategy,
    *,
    strict: bool = True,
    check_connectivity: bool = False,
    collect_trace: bool = False,
    max_rounds: int = 10_000,
    observers=(),
) -> RunResult:
    """Execute a centralized strategy round by round.

    Feeds the same :class:`~repro.engine.observers.RoundObserver`
    pipeline as the distributed backends (``collect_trace`` is one
    :class:`~repro.engine.observers.TraceObserver` on it), so streaming
    sinks, conformance checkers and telemetry work identically on
    centralized scenarios.  ``check_connectivity`` raises
    :class:`~repro.errors.ProtocolViolation` on a round that disconnects
    the network, as on every other executor.
    """
    return CentralizedRunner(
        graph,
        strategy,
        strict=strict,
        check_connectivity=check_connectivity,
        collect_trace=collect_trace,
        max_rounds=max_rounds,
        observers=observers,
    ).run()
