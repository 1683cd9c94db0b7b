"""Property tests: each PhaseKernel agrees with its per-node wrapper.

The phase-kernel layer (PR 6) restates per-node program logic as pure
bulk functions.  The cross-backend differential harness already checks
whole executions; these tests attack the kernels directly on *random
legal states* — states the harness would only reach through specific
graphs — against independent straight-line reimplementations of the
per-node semantics.
"""

from __future__ import annotations

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without the extra
    HAVE_HYPOTHESIS = False

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

from repro.core.graph_to_star import PHASE_LEN, StarPhaseKernel
from repro.core.modes import Mode
from repro.problems.token_dissemination import FloodPhaseKernel

pytestmark = pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")


# ---------------------------------------------------------------------------
# FloodPhaseKernel vs a per-node one-round simulation
# ---------------------------------------------------------------------------


def _random_connected_graph(rng: random.Random, n: int) -> list:
    """Adjacency sets of a random connected graph: a uniform-attachment
    tree plus a few extra edges.  Every node has degree >= 1, matching
    the connected networks the kernel actually runs on."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(rng.randrange(n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _random_flood_state(rng: random.Random, n: int, adj: list) -> tuple:
    """A random *legal* mid-flood state: every node knows its own token,
    fresh tokens are a subset of known tokens, and only complete nodes
    may have halted."""
    tokens = []
    fresh = []
    halted = []
    for i in range(n):
        known = {i} | {t for t in range(n) if rng.random() < 0.5}
        tokens.append(known)
        fresh.append({t for t in known if rng.random() < 0.3})
        halted.append(len(known) == n and rng.random() < 0.3)
    return tokens, fresh, halted


def _flood_round_spec(n, adj, tokens, fresh, halted):
    """One flooding round, simulated per node.  Written from the program
    docstring, not from the kernel: live nodes with fresh tokens send
    them to all neighbors; live receivers merge what is new to them; a
    live node halts when it is complete, learned nothing new, and every
    neighbor's start-of-round count is already ``n``.  Mutates the three
    state lists in place and returns the newly halted indices."""
    counts0 = [len(t) for t in tokens]
    incoming = [set() for _ in range(n)]
    for i in range(n):
        if not halted[i] and fresh[i]:
            for j in adj[i]:
                incoming[j] |= fresh[i]
    newly_halted = []
    for i in range(n):
        if halted[i]:
            fresh[i] = set()
            continue
        new = incoming[i] - tokens[i]
        neigh_min = min((counts0[j] for j in adj[i]), default=n)
        if counts0[i] == n and not new and neigh_min == n:
            newly_halted.append(i)
            halted[i] = True
        tokens[i] |= new
        fresh[i] = new
    return newly_halted


def _pack_state(n, adj, tokens, fresh, halted) -> dict:
    """The per-node state in the kernel's struct-of-arrays layout."""
    words = (n + 63) >> 6
    bits = np.zeros((n, words), dtype=np.uint64)
    fbits = np.zeros((n, words), dtype=np.uint64)
    for i in range(n):
        for t in tokens[i]:
            bits[i, t >> 6] |= np.uint64(1) << np.uint64(t & 63)
        for t in fresh[i]:
            fbits[i, t >> 6] |= np.uint64(1) << np.uint64(t & 63)
    degrees = np.fromiter((len(s) for s in adj), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        (j for s in adj for j in sorted(s)), dtype=np.int64, count=int(indptr[-1])
    )
    return {
        "n": n,
        "uid_of": list(range(n)),
        "bits": bits,
        "fresh": fbits,
        "counts": np.fromiter((len(t) for t in tokens), dtype=np.int64, count=n),
        "halted": np.asarray(halted, dtype=bool),
        "indptr": indptr,
        "indices": indices,
    }


def _unpack_rows(matrix) -> list:
    n = matrix.shape[0]
    out = []
    for i in range(n):
        row = set()
        for w, word in enumerate(matrix[i].tolist()):
            base = w << 6
            while word:
                low = word & -word
                row.add(base + low.bit_length() - 1)
                word ^= low
        out.append(row)
    return out


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestFloodKernelAgreement:
    @given(
        n=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None)
    def test_step_arrays_matches_per_node_round(self, n, seed):
        rng = random.Random(seed)
        adj = _random_connected_graph(rng, n)
        tokens, fresh, halted = _random_flood_state(rng, n, adj)
        state = _pack_state(n, adj, tokens, fresh, halted)

        got_halted = FloodPhaseKernel.step_arrays(state)
        want_halted = _flood_round_spec(n, adj, tokens, fresh, halted)

        assert got_halted == want_halted
        assert _unpack_rows(state["bits"]) == tokens
        assert _unpack_rows(state["fresh"]) == fresh
        assert state["halted"].tolist() == halted
        assert state["counts"].tolist() == [len(t) for t in tokens]

    @given(
        n=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None)
    def test_kernel_runs_to_completion_from_start(self, n, seed):
        """From the genuine initial state the two semantics stay in
        lockstep for the whole execution, and everyone halts complete."""
        rng = random.Random(seed)
        adj = _random_connected_graph(rng, n)
        tokens = [{i} for i in range(n)]
        fresh = [{i} for i in range(n)]
        halted = [False] * n
        state = _pack_state(n, adj, tokens, fresh, halted)

        for _ in range(3 * n + 4):
            got = FloodPhaseKernel.step_arrays(state)
            want = _flood_round_spec(n, adj, tokens, fresh, halted)
            assert got == want
            if all(halted):
                break
        assert all(halted)
        assert state["halted"].all()
        assert all(t == set(range(n)) for t in tokens)


# ---------------------------------------------------------------------------
# StarPhaseKernel.select_candidate vs an independent reduction
# ---------------------------------------------------------------------------


def _select_candidate_spec(uid, entries):
    """The r2 selection rule, restated from DESIGN.md: among foreign
    committees with a higher cid that are not pulling, pick the highest
    cid; among that committee's sensed edges prefer a gateway at the
    leader itself, then the max gateway uid, then the max via uid."""
    foreign_exists = bool(entries)
    eligible = [e for e in entries if e[0] > uid and e[1] != Mode.PULLING]
    if not eligible:
        return (None, None, None), foreign_exists
    target = max(e[0] for e in eligible)
    best = max(
        ((x == uid, x, y) for cid, _, y, x in eligible if cid == target),
    )
    _, x, y = best
    return (target, y, x), foreign_exists


_modes = st.sampled_from(list(Mode))
_uids = st.integers(min_value=0, max_value=60)
_entries = st.lists(
    st.tuples(_uids, _modes, _uids, _uids),
    min_size=0,
    max_size=12,
)


class TestStarSelectCandidate:
    @given(uid=_uids, entries=_entries)
    @settings(deadline=None)
    def test_matches_spec(self, uid, entries):
        got = StarPhaseKernel.select_candidate(uid, entries)
        assert got == _select_candidate_spec(uid, entries)

    @given(uid=_uids, entries=_entries, seed=st.integers(0, 2**16))
    @settings(deadline=None)
    def test_order_independent(self, uid, entries, seed):
        shuffled = list(entries)
        random.Random(seed).shuffle(shuffled)
        assert StarPhaseKernel.select_candidate(
            uid, shuffled
        ) == StarPhaseKernel.select_candidate(uid, entries)


# ---------------------------------------------------------------------------
# StarPhaseKernel.next_wake contract
# ---------------------------------------------------------------------------


_wake_args = dict(
    is_leader=st.booleans(),
    mode=_modes,
    has_foreign=st.booleans(),
    hot_until=st.integers(min_value=0, max_value=80),
    next_round=st.integers(min_value=1, max_value=80),
)


class TestStarNextWake:
    @given(**_wake_args)
    @settings(deadline=None)
    def test_result_is_none_or_future_round(
        self, is_leader, mode, has_foreign, hot_until, next_round
    ):
        r = StarPhaseKernel.next_wake(is_leader, mode, has_foreign, hot_until, next_round)
        assert r is None or r >= next_round

    @given(**_wake_args)
    @settings(deadline=None)
    def test_active_roles_never_park(
        self, is_leader, mode, has_foreign, hot_until, next_round
    ):
        if is_leader or mode in (Mode.MERGING, Mode.TERMINATION):
            assert (
                StarPhaseKernel.next_wake(is_leader, mode, has_foreign, hot_until, next_round)
                == next_round
            )

    @given(**_wake_args)
    @settings(deadline=None)
    def test_returned_round_is_stable(
        self, is_leader, mode, has_foreign, hot_until, next_round
    ):
        """Whatever round the kernel schedules must itself be runnable:
        re-asking at that round returns that round (no skipped wake).
        The one exception is a hot-window rollover that lands past
        ``hot_until`` — the engine still runs the node at the scheduled
        round, and re-asking there may legitimately re-park it."""
        r = StarPhaseKernel.next_wake(is_leader, mode, has_foreign, hot_until, next_round)
        if r is not None and (r <= hot_until or next_round > hot_until):
            assert StarPhaseKernel.next_wake(is_leader, mode, has_foreign, hot_until, r) == r

    @given(**_wake_args)
    @settings(deadline=None)
    def test_quiescent_followers_run_reports(
        self, is_leader, mode, has_foreign, hot_until, next_round
    ):
        """A non-hot boundary follower lands exactly on the next report
        round (r2); interiors with nothing to report park entirely."""
        if is_leader or mode in (Mode.MERGING, Mode.TERMINATION):
            return
        if next_round <= hot_until:
            return
        r = StarPhaseKernel.next_wake(is_leader, mode, has_foreign, hot_until, next_round)
        if not has_foreign:
            assert r is None
        else:
            assert r is not None
            assert (r - 1) % PHASE_LEN == 2
            assert r - next_round < PHASE_LEN

    @given(**_wake_args)
    @settings(deadline=None)
    def test_hot_window_never_skips_follower_positions(
        self, is_leader, mode, has_foreign, hot_until, next_round
    ):
        """Inside the hot window every follower-relevant position
        (r0/r1/r2) is scheduled; only the leader-only tail of a phase is
        skipped, and never past the start of the next phase."""
        if is_leader or mode in (Mode.MERGING, Mode.TERMINATION):
            return
        if next_round > hot_until:
            return
        r = StarPhaseKernel.next_wake(is_leader, mode, has_foreign, hot_until, next_round)
        assert r is not None
        pos = (next_round - 1) % PHASE_LEN
        if pos <= 2:
            assert r == next_round
        else:
            assert (r - 1) % PHASE_LEN == 0
            assert r - next_round == PHASE_LEN - pos


# ---------------------------------------------------------------------------
# StarDenseKernel: whole-round array dispatch vs per-node execution
# ---------------------------------------------------------------------------


def _trace_bytes(algorithm, graph, backend) -> str:
    import io

    from repro.engine import JsonlSink
    from repro.registry import get_algorithm

    buf = io.StringIO()
    get_algorithm(algorithm)(graph, backend=backend, observers=[JsonlSink(buf)])
    return buf.getvalue()


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestStarDenseKernelLockstep:
    """The star dense-phase kernel executes whole rounds as array ops;
    on random connected graphs and random UID placements its emitted
    trace must match the per-node reference backend byte for byte."""

    @given(
        n=st.integers(min_value=4, max_value=40),
        family=st.sampled_from(["ring", "line", "gnp", "random_tree", "grid"]),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=12)
    def test_bulk_trace_matches_reference(self, n, family, seed):
        from repro.graphs import families

        graph = families.make(family, n, seed=seed)
        assert _trace_bytes("star", graph, "bulk") == _trace_bytes(
            "star", graph, "reference"
        )

    def test_kernel_path_engages(self):
        from repro.core.graph_to_star import GraphToStarProgram
        from repro.engine import SynchronousRunner
        from repro.graphs import families

        runner = SynchronousRunner(
            families.make("ring", 32), GraphToStarProgram, backend="bulk"
        )
        runner.run()
        assert runner._kernel is not None


def _consumer_run(scenario, graph, backend, consumer):
    """Run ``scenario`` with one kernel-round consumer attached; return
    what that consumer saw plus the result's metrics and final graph."""
    import io

    from repro import conformance
    from repro.engine import JsonlSink
    from repro.engine.trace import iter_traces
    from repro.engine.tracebin import BinarySink
    from repro.registry import get_scenario

    spec = get_scenario(scenario)
    kwargs = {"backend": backend}
    seen = None
    if consumer == "collect_trace":
        kwargs["collect_trace"] = True
    elif consumer == "jsonl":
        seen = JsonlSink(io.StringIO())
        kwargs["observers"] = [seen]
    elif consumer == "rtb":
        seen = BinarySink(io.BytesIO(), meta={"provenance": None})
        kwargs["observers"] = [seen]
    elif consumer == "dict-checkers":
        seen = conformance.make_checkers(spec.invariants, arrays=False)
        kwargs["observers"] = seen
    else:
        kwargs["check_connectivity"] = True
    result = spec.runner(graph, **kwargs)
    if consumer == "collect_trace":
        seen = [t.to_jsonl() for _, t in iter_traces(result)]
    elif consumer == "jsonl":
        seen = seen._fh.getvalue()
    elif consumer == "rtb":
        seen.close()
        seen = seen._fh.getvalue()
    elif consumer == "dict-checkers":
        seen = [(c.name, c.verdict().ok, c.verdict().detail) for c in seen]
    final = result.final_graph()
    # Every stage's network as programs would read it afterwards: the
    # Python views a kernel run leaves behind are synced on first read.
    nets = [res.network for _, res in getattr(result, "stages", [(None, result)])]
    views = [
        ({u: list(net.neighbors(u)) for u in sorted(net.nodes)},
         net.num_active_edges, net.num_activated_edges)
        for net in nets
    ]
    return (
        seen, result.metrics, views,
        set(final.nodes), {tuple(sorted(e)) for e in final.edges},
    )


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestStarArrayRoundConsumers:
    """Kernel rounds stay in array form from the kernel to the
    observers: every consumer of them — trace, sinks, the dict checkers
    (which iterate the pair views), the connectivity guard — and the
    next pipeline stage, which reads the network the kernel left behind,
    must see exactly what the reference backend produces."""

    @pytest.mark.parametrize("scenario,family", [
        ("star", "ring"), ("star+flood", "line"), ("star+leader", "random_tree"),
    ])
    @pytest.mark.parametrize("consumer", [
        "collect_trace", "jsonl", "rtb", "dict-checkers", "check_connectivity",
    ])
    def test_bulk_matches_reference(self, scenario, family, consumer):
        from repro.graphs import families

        graph = families.make(family, 40, seed=3)
        ref = _consumer_run(scenario, graph, "reference", consumer)
        bulk = _consumer_run(scenario, graph, "bulk", consumer)
        assert bulk == ref

    def test_kernel_rounds_skip_the_per_edge_apply(self, monkeypatch):
        from repro.core.graph_to_star import GraphToStarProgram
        from repro.engine import SynchronousRunner
        from repro.engine.dense import DenseNetwork
        from repro.graphs import families

        def per_edge_apply(self, actions, *, strict=True):
            raise AssertionError("kernel round took the per-edge apply")

        monkeypatch.setattr(DenseNetwork, "apply", per_edge_apply)
        runner = SynchronousRunner(
            families.make("ring", 64, seed=1), GraphToStarProgram,
            backend="bulk", check_connectivity=True,
        )
        result = runner.run()
        assert runner._kernel is not None
        assert result.metrics.total_activations > 0


# ---------------------------------------------------------------------------
# WreathSpliceKernel: the REBUILD array assist vs per-node execution
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestWreathRebuildAssistLockstep:
    """The rebuild assist simulates whole REBUILD rounds in array form
    (repro.core.rebuild_arrays); on random-UID placements the bulk trace
    must match the reference backend byte for byte, for both tree
    arities (wreath k=2, thin-wreath k~log n)."""

    @given(
        n=st.integers(min_value=6, max_value=40),
        algorithm=st.sampled_from(["wreath", "thin-wreath"]),
        family=st.sampled_from(["ring", "random_tree", "gnp"]),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=12)
    def test_bulk_trace_matches_reference(self, n, algorithm, family, seed):
        from repro.graphs import families

        graph = families.make(family, n, seed=seed)
        assert _trace_bytes(algorithm, graph, "bulk") == _trace_bytes(
            algorithm, graph, "reference"
        )

    def test_assist_engages_and_settles(self, monkeypatch):
        import repro.core.rebuild_arrays as ra
        from repro.core.graph_to_wreath import GraphToWreathProgram
        from repro.engine import SynchronousRunner
        from repro.graphs import families

        calls = []
        orig = ra.RebuildSim.step_round

        def counting(self, *args, **kwargs):
            calls.append(self)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(ra.RebuildSim, "step_round", counting)
        runner = SynchronousRunner(
            families.make("ring", 64),
            GraphToWreathProgram,
            backend="bulk",
            use_barrier=True,
        )
        runner.run()
        assert calls, "rebuild assist never engaged"
        # Every armed simulation ran to the all-settled scatter.
        for sim in {id(s): s for s in calls}.values():
            assert sim.settled.all()
        assert runner._wreath_assist is None

    def test_assist_rounds_go_through_the_runners_emission(self, monkeypatch):
        """Assist rounds reach observers through the runner's own
        emission: raw-round observers get a ``RawRound`` over the
        runner's sets, record observers an equal ``RoundRecord``."""
        import repro.core.rebuild_arrays as ra
        from repro.core.graph_to_wreath import GraphToWreathProgram
        from repro.engine import SynchronousRunner
        from repro.engine.observers import RawRound, RoundObserver
        from repro.engine.trace import RoundRecord
        from repro.graphs import families

        assist = []
        orig = ra.RebuildSim.step_round

        def marking(self, runner, recorder, observers):
            assist.append(runner.network.round)
            return orig(self, runner, recorder, observers)

        monkeypatch.setattr(ra.RebuildSim, "step_round", marking)

        class Seen(RoundObserver):
            def __init__(self, raw):
                self.accepts_raw_rounds = raw
                self.rounds = {}

            def on_round(self, record):
                self.rounds[record.round] = (
                    type(record),
                    frozenset(record.activations),
                    frozenset(record.deactivations),
                    record.active_edges,
                    record.activated_edges,
                )

        raw, rec = Seen(True), Seen(False)
        SynchronousRunner(
            families.make("ring", 64), GraphToWreathProgram, backend="bulk",
            use_barrier=True, observers=[raw, rec],
        ).run()
        assert assist, "rebuild assist never engaged"
        for r in assist:
            assert raw.rounds[r][0] is RawRound
            assert rec.rounds[r][0] is RoundRecord
            assert raw.rounds[r][1:] == rec.rounds[r][1:]
