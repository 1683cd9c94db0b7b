"""P10 — conformance overhead: array-native online checking.

PR 10 replaced the dict-based structural checkers on the hot path with
array-native twins (``repro.conformance_arrays``): packed int64 edge
keys, batched distance-2 membership, flat union-find.  The dict
checkers remain the oracle — verdicts are asserted byte-identical in
``tests/test_conformance_arrays.py`` — so these gates only measure.

Reference-machine numbers (star ring, bulk backend, fresh interpreter
per leg, sequential):

* n=1e5: raw 10.3 s; array-checked 13.0 s (**1.26x**); dict-checked
  37.7 s (3.5x) — the gap the ISSUE closes.
* n=1e5 with the bulk kernel's array rounds (2-vCPU VM, medians of 3):
  raw 3.3 s; array-checked 4.4 s (**1.35x**, single pairs up to
  1.44x).  A faster raw leg raises this ratio: the checkers replay
  every round on their own.
* n=1e6: raw ~203 s; array-checked measured by the xxlarge cell below
  (was ~793 s dict-checked before this PR).

Gates are ratios measured on the same box in the same session (both
legs fresh interpreters), so a slow CI machine cannot skew them; the
xxlarge cell additionally records an absolute ceiling because the
n=1e6 checked sweep is the ISSUE's acceptance number.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.conformance import make_checkers, verdict_columns
from repro.core import run_graph_to_star
from repro.graphs import families
from repro.registry import get_scenario

XLARGE_N = 100_000
#: The acceptance bar: online checking may cost at most 1.5x the raw
#: run at the xlarge anchor (measured 1.26x on the reference machine).
CHECKED_RATIO_CEILING = 1.5

XXLARGE_N = 1_000_000
#: The ISSUE's n=1e6 target: checked sweep cell under 400 s (dict
#: checkers measured ~793 s; raw ~203 s).
XXLARGE_CHECKED_WALL_CEILING_S = 400.0
XXLARGE_CHECKED_RSS_CEILING_KB = 7 * 1024 * 1024  # 7 GiB

#: One benchmark leg in a fresh interpreter: peak RSS and wall measure
#: this workload and nothing else, and the raw leg provably imports no
#: checker code.
_LEG = """\
import json, resource, time
from repro.core import run_graph_to_star
from repro.graphs import families
g = families.make("ring", {n})
checkers = []
if {checked}:
    from repro.conformance import make_checkers, verdict_columns
    from repro.registry import get_scenario
    checkers = make_checkers(get_scenario("star").invariants)
t0 = time.perf_counter()
r = run_graph_to_star(g, backend="bulk", observers=list(checkers))
wall = time.perf_counter() - t0
if checkers:
    cols = verdict_columns(checkers)
    assert all(v == "ok" for v in cols.values()), cols
print(json.dumps({{
    "wall_s": wall,
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "rounds": r.metrics.rounds,
    "activations": r.metrics.total_activations,
}}))
"""


def _run_leg(n: int, *, checked: bool, timeout_s: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _LEG.format(n=n, checked=checked)],
        capture_output=True, text=True, env=env, timeout=timeout_s,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_p10_checked_run_all_green(experiment_rows):
    """The default checker set (array-native when numpy imports) rides
    a bulk run green, with its overhead recorded informationally —
    timing gates live in the slow tier where legs get fresh
    interpreters."""
    n = 4096
    spec = get_scenario("star")
    graph = families.make("ring", n)
    t0 = time.perf_counter()
    run_graph_to_star(graph, backend="bulk")
    raw = time.perf_counter() - t0
    checkers = make_checkers(spec.invariants)
    t0 = time.perf_counter()
    run_graph_to_star(graph, backend="bulk", observers=list(checkers))
    checked = time.perf_counter() - t0
    cols = verdict_columns(checkers)
    assert all(v == "ok" for v in cols.values()), cols
    experiment_rows(
        "P10 conformance overhead",
        {"workload": f"GraphToStar ring n={n}",
         "raw_ms": round(raw * 1e3, 1), "checked_ms": round(checked * 1e3, 1),
         "ratio": round(checked / raw, 2)},
    )


@pytest.mark.slow
def test_p10_xlarge_checked_overhead_gate(experiment_rows, bench_engine):
    """The PR's acceptance gate: online checking at the xlarge anchor
    (star ring n=1e5, bulk) costs <= 1.5x the raw run.  Both legs run
    sequentially in fresh interpreters on the same box, so the ratio is
    machine-independent."""
    raw = _run_leg(XLARGE_N, checked=False, timeout_s=600)
    chk = _run_leg(XLARGE_N, checked=True, timeout_s=600)
    ratio = chk["wall_s"] / raw["wall_s"]
    experiment_rows(
        "P10 conformance overhead",
        {"workload": f"GraphToStar ring n={XLARGE_N}",
         "raw_ms": round(raw["wall_s"] * 1e3, 1),
         "checked_ms": round(chk["wall_s"] * 1e3, 1),
         "ratio": round(ratio, 2)},
    )
    bench_engine(
        "star-checked", XLARGE_N, "bulk", chk["wall_s"] * 1e3,
        rss_kb=chk["rss_kb"], rounds=chk["rounds"],
        activations=chk["activations"],
        raw_ms=round(raw["wall_s"] * 1e3, 1),
        checked_over_raw=round(ratio, 3),
    )
    assert ratio <= CHECKED_RATIO_CEILING, (
        f"checked/raw = {chk['wall_s']:.1f}/{raw['wall_s']:.1f} s = "
        f"{ratio:.2f}x exceeds {CHECKED_RATIO_CEILING}x at n={XLARGE_N}"
    )


@pytest.mark.slow
def test_p10_xxlarge_checked_cell(experiment_rows, bench_engine):
    """The ISSUE's n=1e6 number: the checked star cell (all online
    invariants green) completes under 400 s wall in a fresh
    interpreter — closing the gap from ~793 s dict-checked."""
    chk = _run_leg(
        XXLARGE_N, checked=True, timeout_s=3 * XXLARGE_CHECKED_WALL_CEILING_S
    )
    wall_s, rss_kb = chk["wall_s"], chk["rss_kb"]
    experiment_rows(
        "P10 conformance overhead",
        {"workload": f"GraphToStar ring n={XXLARGE_N}",
         "raw_ms": "-", "checked_ms": round(wall_s * 1e3, 1),
         "ratio": f"rss={rss_kb // 1024}MB"},
    )
    bench_engine(
        "star-checked", XXLARGE_N, "bulk", wall_s * 1e3, rss_kb=rss_kb,
        rounds=chk["rounds"], activations=chk["activations"],
    )
    assert wall_s < XXLARGE_CHECKED_WALL_CEILING_S, (
        f"xxlarge checked star took {wall_s:.0f} s"
    )
    assert rss_kb < XXLARGE_CHECKED_RSS_CEILING_KB, (
        f"xxlarge checked star peaked at {rss_kb} KiB"
    )
