"""P9 — dense-activity kernels: star whole-round array path and the
wreath rebuild assist.

PR 6 left two honest parity notes (DESIGN.md, Amdahl): star's committee
phases are dense — a leader rebind wakes every member, so parking buys
nothing — and random-UID wreath rings finish in ~700 high-activity
rounds where bulk's scheduler is pure overhead.  PR 9 closes both with
whole-round array kernels (DESIGN.md, "Dense-activity kernels"): the
star dense-phase kernel runs the entire population per round as
vectorized passes, and the wreath splice kernel's *rebuild assist*
simulates REBUILD-segment rounds as segment-array surgery.

Both gates compare against recorded anchors of the retired dense
backend (constants below, on the reference 1-core machine), with the
byte-identity oracle against the reference backend run first on the
same workload family so the timed bulk run provably computes the same
execution.  Profiled runs keep the kernels engaged (the star
kernel reports ``kernel`` dispatch, the assist ``assist``), so the
BENCH_engine.json rows recorded here carry the per-phase breakdown of
the execution that was actually measured.

Slow-tier gates (``--runslow``) additionally smoke the xxlarge regime
(star ring n=1e6, fresh interpreter) under explicit wall/RSS ceilings
and run ``sweep --tier xxlarge --check`` through the real CLI.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.core import run_graph_to_star, run_graph_to_wreath
from repro.graphs import families
from repro.telemetry import TelemetryObserver

ANCHOR_N = 8192

#: Wall seconds of the retired dense backend on the reference machine —
#: recorded constants, not fresh measurements, so a slow CI box cannot
#: relax the gates.  Measured star
#: ring n=8192: dense 2.03 s vs bulk 0.45 s (4.5x); wreath random-UID
#: ring n=8192: dense 56.0 s vs bulk 16.5 s (3.4x).
STAR_DENSE_ANCHOR_S = 2.0
WREATH_RAND_DENSE_ANCHOR_S = 56.0

#: The acceptance bar: bulk must beat the dense anchor by >= 1.5x.
GATE = 1.5

XXLARGE_N = 1_000_000
#: Star ring n=1e6 on bulk measured ~230 s (run only; graph build is
#: excluded) at ~5.0 GiB peak RSS in a fresh interpreter.  Ceilings
#: leave ~2x wall and ~1.4x RSS headroom for slower CI boxes.
XXLARGE_WALL_CEILING_S = 480.0
XXLARGE_RSS_CEILING_KB = 7 * 1024 * 1024  # 7 GiB
#: ``sweep --tier xxlarge --check`` adds the online-invariant path on
#: top of the raw run; measured ~11 min in-process on the reference
#: machine.
XXLARGE_SWEEP_CEILING_S = 1500.0


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _assert_identical(run, family, n):
    graph = families.make(family, n)
    ref = run(graph, collect_trace=True, backend="reference")
    bulk = run(graph, collect_trace=True, backend="bulk")
    assert bulk.trace.to_jsonl() == ref.trace.to_jsonl(), (run, family, n)
    assert bulk.metrics == ref.metrics, (run, family, n)


def test_p9_trace_identity_oracle_on_anchor_families():
    """Both kernels' speedup gates compare equal computations: the
    byte-identity oracle on the benchmarked family (random-UID ring)."""
    _assert_identical(run_graph_to_star, "ring", 256)
    _assert_identical(run_graph_to_wreath, "ring", 256)


def _profiled_bulk(run, graph):
    telemetry = TelemetryObserver()
    result = {}
    wall = _wall(lambda: result.setdefault(
        "res", run(graph, backend="bulk", observers=[telemetry])))
    return wall, result["res"], telemetry.profile()


@pytest.mark.slow
def test_p9_star_dense_kernel_gate(experiment_rows, bench_engine):
    """GraphToStar ring n=8192 on bulk beats the recorded dense anchor
    by >= 1.5x, through the whole-round dense-phase kernel."""
    _assert_identical(run_graph_to_star, "ring", 1024)

    graph = families.make("ring", ANCHOR_N)
    wall, res, prof = _profiled_bulk(run_graph_to_star, graph)
    assert "kernel" in prof.dispatch, (
        f"star kernel never engaged: dispatch={prof.dispatch}"
    )
    experiment_rows(
        "P9 dense kernels",
        {"workload": f"GraphToStar ring n={ANCHOR_N}",
         "dense_ms": round(STAR_DENSE_ANCHOR_S * 1e3, 1),
         "bulk_ms": round(wall * 1e3, 1),
         "speedup": round(STAR_DENSE_ANCHOR_S / wall, 2)},
    )
    bench_engine(
        "star", ANCHOR_N, "bulk", wall * 1e3,
        rounds=res.metrics.rounds, activations=res.metrics.total_activations,
        phases=prof.phases,
    )
    assert wall * GATE < STAR_DENSE_ANCHOR_S, (
        f"star bulk n={ANCHOR_N} took {wall:.1f} s — less than {GATE}x under "
        f"the {STAR_DENSE_ANCHOR_S:.0f} s dense anchor"
    )


@pytest.mark.slow
def test_p9_wreath_random_ring_gate(experiment_rows, bench_engine):
    """GraphToWreath *random-UID* ring n=8192 on bulk beats the recorded
    dense anchor by >= 1.5x (PR 6 measured only parity here), through
    the rebuild assist."""
    _assert_identical(run_graph_to_wreath, "ring", 1024)

    graph = families.make("ring", ANCHOR_N)
    wall, res, prof = _profiled_bulk(run_graph_to_wreath, graph)
    assert "assist" in prof.dispatch, (
        f"rebuild assist never engaged: dispatch={prof.dispatch}"
    )
    experiment_rows(
        "P9 dense kernels",
        {"workload": f"GraphToWreath ring (random UIDs) n={ANCHOR_N}",
         "dense_ms": round(WREATH_RAND_DENSE_ANCHOR_S * 1e3, 1),
         "bulk_ms": round(wall * 1e3, 1),
         "speedup": round(WREATH_RAND_DENSE_ANCHOR_S / wall, 2)},
    )
    # Distinct scenario key: ("wreath", 8192, "bulk") is PR 6's
    # increasing_ring anchor row; this is the random-UID placement.
    bench_engine(
        "wreath-rand", ANCHOR_N, "bulk", wall * 1e3,
        rounds=res.metrics.rounds, activations=res.metrics.total_activations,
        phases=prof.phases,
    )
    assert wall * GATE < WREATH_RAND_DENSE_ANCHOR_S, (
        f"wreath random-ring bulk n={ANCHOR_N} took {wall:.1f} s — less than "
        f"{GATE}x under the {WREATH_RAND_DENSE_ANCHOR_S:.0f} s dense anchor"
    )


_XXLARGE_SMOKE = """\
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
def test_p9_xxlarge_star_smoke(experiment_rows, bench_engine):
    """GraphToStar ring n=1e6 on bulk, in a fresh interpreter so the
    peak-RSS ceiling measures this workload and nothing else."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _XXLARGE_SMOKE.format(n=XXLARGE_N)],
        capture_output=True, text=True, env=env,
        timeout=2 * XXLARGE_WALL_CEILING_S,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    row = json.loads(proc.stdout)
    wall_s, rss_kb = row["wall_s"], row["rss_kb"]
    experiment_rows(
        "P9 dense kernels",
        {"workload": f"GraphToStar ring n={XXLARGE_N}",
         "dense_ms": "-", "bulk_ms": round(wall_s * 1e3, 1),
         "speedup": f"rounds={row['rounds']} rss={rss_kb // 1024}MB"},
    )
    bench_engine(
        "star", XXLARGE_N, "bulk", wall_s * 1e3, rss_kb=rss_kb,
        rounds=row["rounds"], activations=row["activations"],
        phases=row["phases"],
    )
    assert wall_s < XXLARGE_WALL_CEILING_S, f"xxlarge star took {wall_s:.0f} s"
    assert rss_kb < XXLARGE_RSS_CEILING_KB, f"xxlarge star peaked at {rss_kb} KiB"


@pytest.mark.slow
def test_p9_xxlarge_sweep_check(tmp_path, bench_engine):
    """``repro sweep --tier xxlarge --check`` completes at n=1e6 with
    every online invariant green, through the real CLI entry point."""
    from repro.cli import main

    out = tmp_path / "xxlarge.json"
    t0 = time.perf_counter()
    rc = main(["sweep", "--tier", "xxlarge", "--check", "--json", str(out), "--quiet"])
    wall = time.perf_counter() - t0
    assert rc == 0
    rows = json.loads(out.read_text())
    assert rows, "xxlarge sweep produced no rows"
    for row in rows:
        assert row["n"] == XXLARGE_N
        assert row["backend"] == "bulk"
        verdicts = {k: v for k, v in row.items() if k.startswith("inv_")}
        assert verdicts, f"no invariant verdicts in row {row['algorithm']}"
        bad = {k: v for k, v in verdicts.items() if v != "ok"}
        assert not bad, f"{row['algorithm']}: {bad}"
    from repro.telemetry.bench import sweep_totals

    total_rounds, total_activations = sweep_totals(rows)
    bench_engine(
        "sweep-xxlarge", XXLARGE_N, "bulk", wall * 1e3,
        rounds=total_rounds, activations=total_activations,
    )
    assert wall < XXLARGE_SWEEP_CEILING_S, f"xxlarge sweep took {wall:.0f} s"
