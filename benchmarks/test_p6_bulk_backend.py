"""P6 — bulk backend: array-native wake scheduling for large n.

The bulk backend (``backend="bulk"``; DESIGN.md, "Phase kernels & bulk
backend") runs only *due* nodes each round, with the fleet's wake state
in numpy arrays.  Its contract is byte-identical JSONL traces and equal
metrics to the reference backend — asserted below on the benchmarked
workload family itself, so the gates provably compare equal
computations.

The anchor workload is GraphToWreath on ``increasing_ring`` — UIDs
increasing along the ring, the long-segment worst case whose splice
walks take ~2n rounds with a tiny per-round active set.  The retired
dense backend (every program every round) measured ~132 s at n=8192 on
the reference machine (the recorded anchor below); bulk runs the same
execution in ~10 s because only ~0.5% of node-rounds are due.  The flip
side, recorded honestly: on *random*-UID rings the same n finishes in
~700 high-activity rounds where parking buys much less (see DESIGN.md's
Amdahl notes).

Slow-tier gates (``--runslow``) additionally smoke the xlarge regime
(n=1e5) under wall-clock and peak-RSS ceilings, and record all measured
rows into ``BENCH_engine.json``.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.core import run_graph_to_wreath
from repro.graphs import families
from repro.telemetry import TelemetryObserver

#: Wall seconds of the retired dense backend for GraphToWreath
#: increasing_ring n=8192 on the reference machine.  A recorded
#: constant, not a fresh measurement: the acceptance bar is "10x faster
#: than the dense anchor".
DENSE_ANCHOR_S = 132.0

#: Ceiling on the wake set's mean size as a share of the live fleet,
#: GraphToWreath increasing_ring n=512 on bulk.  Deterministic: measured
#: 0.0586 (mean due 29.95 of mean live 511.08 over 1098 rounds) before
#: the dense backend was retired.  A wake path where everything goes
#: stale every round drives it towards 1.0.
SMALL_N_DUE_SHARE_CEILING = 0.10

ANCHOR_N = 8192
ANCHOR_FAMILY = "increasing_ring"

XLARGE_N = 100_000
XLARGE_WALL_CEILING_S = 600.0
XLARGE_RSS_CEILING_KB = 4 * 1024 * 1024  # 4 GiB


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_p6_trace_identity_oracle_on_anchor_family():
    """Bulk's speedup gates compare equal computations: byte-identical
    traces and equal metrics on the anchor workload family."""
    for family, n in ((ANCHOR_FAMILY, 256), ("ring", 256)):
        graph = families.make(family, n)
        ref = run_graph_to_wreath(graph, collect_trace=True, backend="reference")
        bulk = run_graph_to_wreath(graph, collect_trace=True, backend="bulk")
        assert bulk.trace.to_jsonl() == ref.trace.to_jsonl(), family
        assert bulk.metrics == ref.metrics, family


def test_p6_wake_set_stays_sparse_at_small_n(experiment_rows):
    """At small n the wreath's segments are short, so parking amortizes
    poorly — but the wake set must still stay a small share of the
    fleet.  A deterministic count, not a timing: it catches a regressed
    wake path (e.g. everything going stale every round) on any machine."""
    graph = families.make(ANCHOR_FAMILY, 512)
    telemetry = TelemetryObserver()
    res = run_graph_to_wreath(graph, backend="bulk", observers=[telemetry])
    prof = telemetry.profile()
    share = prof.due["mean"] / prof.live["mean"]
    experiment_rows(
        "P6 bulk backend",
        {"workload": f"GraphToWreath {ANCHOR_FAMILY} n=512",
         "dense_ms": "-", "bulk_ms": round(prof.wall_s * 1e3, 1),
         "speedup": f"due/live={share:.4f}"},
    )
    # Every round stays on the sparse scheduler or its rebuild assist.
    assert set(prof.dispatch) <= {"sparse", "assist"}, prof.dispatch
    assert sum(prof.dispatch.values()) == res.metrics.rounds
    assert share < SMALL_N_DUE_SHARE_CEILING, (
        f"wake set too large at n=512: mean due {prof.due['mean']:.1f} of "
        f"mean live {prof.live['mean']:.1f} ({share:.4f} >= "
        f"{SMALL_N_DUE_SHARE_CEILING})"
    )


@pytest.mark.slow
def test_p6_wreath_anchor_gate(experiment_rows, bench_engine):
    """The PR's acceptance gate: GraphToWreath increasing_ring n=8192 on
    bulk must beat the recorded dense anchor (~132 s) by >= 10x.

    The trace-identity oracle runs first at n=1024 on both backends of
    the same family, so the timed bulk run is known to compute the same
    execution the reference backend would.
    """
    oracle = families.make(ANCHOR_FAMILY, 1024)
    ref = run_graph_to_wreath(oracle, collect_trace=True, backend="reference")
    bulk = run_graph_to_wreath(oracle, collect_trace=True, backend="bulk")
    assert bulk.trace.to_jsonl() == ref.trace.to_jsonl()
    assert bulk.metrics == ref.metrics

    graph = families.make(ANCHOR_FAMILY, ANCHOR_N)
    result = {}
    telemetry = TelemetryObserver()

    def run():
        result["res"] = run_graph_to_wreath(
            graph, backend="bulk", observers=[telemetry]
        )

    wall = _wall(run)
    rounds = result["res"].metrics.rounds
    experiment_rows(
        "P6 bulk backend",
        {"workload": f"GraphToWreath {ANCHOR_FAMILY} n={ANCHOR_N}",
         "dense_ms": round(DENSE_ANCHOR_S * 1e3, 1), "bulk_ms": round(wall * 1e3, 1),
         "speedup": round(DENSE_ANCHOR_S / wall, 2)},
    )
    bench_engine(
        "wreath", ANCHOR_N, "bulk", wall * 1e3,
        rounds=rounds, activations=result["res"].metrics.total_activations,
        phases=telemetry.profile().phases,
    )
    assert wall * 10 < DENSE_ANCHOR_S, (
        f"bulk wreath n={ANCHOR_N} took {wall:.1f} s over {rounds} rounds — "
        f"less than 10x under the {DENSE_ANCHOR_S:.0f} s dense anchor"
    )


_XLARGE_SMOKE = """\
import json, resource, time
from repro.core import run_graph_to_star
from repro.graphs import families
from repro.telemetry import TelemetryObserver
g = families.make("ring", {n})
telemetry = TelemetryObserver()
t0 = time.perf_counter()
r = run_graph_to_star(g, backend="bulk", observers=[telemetry])
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "wall_s": wall, "rss_kb": rss, "rounds": r.metrics.rounds,
    "activations": r.metrics.total_activations,
    "phases": telemetry.profile().phases,
}}))
"""


@pytest.mark.slow
def test_p6_xlarge_star_smoke(experiment_rows, bench_engine):
    """GraphToStar ring n=1e5 on bulk, in a fresh interpreter so the
    peak-RSS ceiling measures this workload and nothing else."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _XLARGE_SMOKE.format(n=XLARGE_N)],
        capture_output=True, text=True, env=env, timeout=2 * XLARGE_WALL_CEILING_S,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    row = json.loads(proc.stdout)
    wall_s, rss_kb = row["wall_s"], row["rss_kb"]
    experiment_rows(
        "P6 bulk backend",
        {"workload": f"GraphToStar ring n={XLARGE_N}",
         "dense_ms": "-", "bulk_ms": round(wall_s * 1e3, 1),
         "speedup": f"rounds={row['rounds']} rss={rss_kb // 1024}MB"},
    )
    bench_engine(
        "star", XLARGE_N, "bulk", wall_s * 1e3, rss_kb=rss_kb,
        rounds=row["rounds"], activations=row["activations"],
        phases=row["phases"],
    )
    assert wall_s < XLARGE_WALL_CEILING_S, f"xlarge star took {wall_s:.0f} s"
    assert rss_kb < XLARGE_RSS_CEILING_KB, f"xlarge star peaked at {rss_kb} KiB"


@pytest.mark.slow
def test_p6_xlarge_sweep_check(tmp_path, bench_engine):
    """``repro sweep --tier xlarge --check`` completes at n=1e5 with
    every online invariant green, through the real CLI entry point."""
    from repro.cli import main

    out = tmp_path / "xlarge.json"
    t0 = time.perf_counter()
    rc = main(["sweep", "--tier", "xlarge", "--check", "--json", str(out), "--quiet"])
    wall = time.perf_counter() - t0
    assert rc == 0
    rows = json.loads(out.read_text())
    assert rows, "xlarge sweep produced no rows"
    for row in rows:
        assert row["n"] == XLARGE_N
        assert row["backend"] == "bulk"
        verdicts = {k: v for k, v in row.items() if k.startswith("inv_")}
        assert verdicts, f"no invariant verdicts in row {row['algorithm']}"
        bad = {k: v for k, v in verdicts.items() if v != "ok"}
        assert not bad, f"{row['algorithm']}: {bad}"
    # One combined row: per-cell walls are not separable through the CLI,
    # but the paper measures are — summed from the sweep rows, so the
    # perf trajectory never records null rounds/activations.
    from repro.telemetry.bench import sweep_totals

    total_rounds, total_activations = sweep_totals(rows)
    bench_engine(
        "sweep-xlarge", XLARGE_N, "bulk", wall * 1e3,
        rounds=total_rounds, activations=total_activations,
    )
