"""CutInHalf (Appendix D): the centralized strategy on a spanning line.

In round ``i`` it activates the edges ``(u_j, u_{j + 2^i})`` for every
``j ≡ 0 (mod 2^i)`` along the line order, doubling jump lengths each
round.  After ``ceil(log2 (n-1))`` rounds the graph has diameter
``O(log n)`` and a depth-``O(log n)`` spanning tree rooted at the line's
first node, using ``Θ(n)`` total edge activations — the matching upper
bound for Lemmas D.3/D.4 and the engine of Theorem D.5.
"""

from __future__ import annotations

import networkx as nx

from ..engine import CentralizedStrategy, RoundActions, RunResult, run_centralized
from ..errors import ConfigurationError


class CutInHalfStrategy(CentralizedStrategy):
    """Centralized doubling along a given (possibly virtual) line order.

    Parameters
    ----------
    order:
        The node sequence of the line.  Entries may repeat (virtual
        positions hosted by the same physical node, as in the Euler-ring
        reduction of Theorem 6.3); degenerate jumps between slots hosted
        by one node are skipped.
    prune_to_tree:
        After the doubling rounds, spend one final round deactivating
        every edge outside the depth-``O(log n)`` jump tree, yielding a
        Depth-log n Tree instance rooted at ``order[0]``.
    """

    def __init__(self, order: list, *, prune_to_tree: bool = False) -> None:
        if not order:
            raise ConfigurationError("empty line order")
        self.order = list(order)
        self.prune_to_tree = prune_to_tree
        self._jump = 2  # round i jumps 2^i; the base edges are the line's own
        self._pruned = False

    # -- tree extraction -------------------------------------------------

    def tree_parents(self) -> dict:
        """Parent map of the jump tree over physical nodes.

        Virtual position ``p`` attaches to position ``p - 2^i`` for the
        largest ``2^i`` dividing ``p``; first occurrences define the
        physical parents.
        """
        parents: dict = {self.order[0]: None}
        for p, host in enumerate(self.order):
            if host in parents:
                continue
            q = p
            while q:
                low = q & -q
                q -= low
                anchor = self.order[q]
                if anchor != host:
                    parents[host] = anchor
                    break
            else:  # pragma: no cover - q == 0 means host == order[0]
                parents[host] = self.order[0]
        return parents

    def _tree_edges(self) -> set:
        return {
            tuple(sorted((u, v)))
            for u, v in self.tree_parents().items()
            if v is not None
        }

    # -- rounds ----------------------------------------------------------

    def plan_round(self, network, actions: RoundActions) -> bool:
        m = len(self.order)
        if self._jump < m:
            step = self._jump
            for j in range(0, m - step, step):
                a, b = self.order[j], self.order[j + step]
                if a != b and not network.has_edge(a, b):
                    actions.request_activation(a, a, b)
            self._jump *= 2
            return True
        if self.prune_to_tree and not self._pruned:
            keep = self._tree_edges()
            for u, v in list(network.edges()):
                if tuple(sorted((u, v))) not in keep:
                    actions.request_deactivation(u, u, v)
            self._pruned = True
            return True
        return False


def run_cut_in_half(line: nx.Graph, *, prune_to_tree: bool = False, **kwargs) -> RunResult:
    """Run CutInHalf on a path graph (uses its recorded or derived order)."""
    order = line.graph.get("order")
    if order is None:
        ends = [v for v, d in line.degree() if d == 1]
        if line.number_of_nodes() == 1:
            order = list(line.nodes())
        elif len(ends) != 2:
            raise ConfigurationError("input is not a path graph")
        else:
            order = nx.shortest_path(line, ends[0], ends[1])
    strategy = CutInHalfStrategy(order, prune_to_tree=prune_to_tree)
    return run_centralized(line, strategy, **kwargs)
