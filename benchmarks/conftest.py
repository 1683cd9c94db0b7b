"""Shared benchmark fixtures: per-experiment row collection and tables.

Each benchmark file reproduces one experiment from DESIGN.md's index;
rows accumulate in a session-wide registry and are printed as markdown
tables at the end of the session.

Engine benchmarks additionally record machine-readable rows into
``BENCH_engine.json`` at the repo root (the ``bench_engine`` fixture):
one ``repro-bench-engine/2`` row per measured configuration — wall/RSS
plus the paper's own measures (rounds, activations), optional per-phase
timings, and a provenance stamp (git sha, python/numpy versions,
backend) — merge-updated by key so re-runs refresh rather than
duplicate, and written only by ``--runslow`` sessions.  Rows from a
pre-migration v1 file merge cleanly (the compat reader in
:mod:`repro.telemetry.bench` normalizes them).  CI archives
the file; perf gates read their anchors from constants, not from it, so
a stale file can never relax a gate.
"""

import collections

import pytest

from repro.analysis import format_table
from repro.telemetry import build_provenance
from repro.telemetry.bench import bench_row, merge_bench

_ROWS = collections.defaultdict(list)
_BENCH_ROWS = {}

_BENCH_FILE = "BENCH_engine.json"


@pytest.fixture
def experiment_rows():
    """Append dict-rows under an experiment id; printed at session end."""

    def add(experiment: str, row: dict) -> None:
        _ROWS[experiment].append(row)

    return add


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB.

    Delegates to the telemetry layer's platform-normalized reading
    (``ru_maxrss`` is KiB on Linux but bytes on macOS).  The value is a
    high-water mark, so rows recorded late in a session include earlier
    tests' peaks — gates that need a tight bound run their workload in a
    fresh interpreter instead.
    """
    from repro.telemetry.observer import peak_rss_kb as _peak

    return _peak()


@pytest.fixture
def bench_engine():
    """Record one BENCH_engine.json row, keyed by (scenario, n, backend).

    ``rounds``/``activations``/``phases`` are optional.  Scenario runs
    on kernel-covered families stamp ``phases`` from the telemetry
    profile (PR 7); rows whose measurement has no per-phase engine wall
    to separate — combined sweep totals, serialization benchmarks —
    keep it None rather than fabricate one.  The provenance stamp is
    always attached here.
    """

    def add(
        scenario: str, n: int, backend: str, wall_ms: float, rss_kb: int = None,
        *, rounds: int = None, activations: int = None, phases: list = None,
        **extra,
    ) -> None:
        key = (scenario, int(n), backend)
        _BENCH_ROWS[key] = bench_row(
            scenario, n, backend, wall_ms,
            peak_rss_kb=peak_rss_kb() if rss_kb is None else int(rss_kb),
            rounds=rounds, activations=activations, phases=phases,
            provenance=build_provenance(backend), **extra,
        )

    return add


def _write_bench_file(rootpath) -> None:
    merge_bench(rootpath / _BENCH_FILE, list(_BENCH_ROWS.values()))


def pytest_sessionfinish(session, exitstatus):
    # Only slow-tier sessions refresh the tracked file: a plain tier-1
    # run must leave the checkout clean, and every CI step whose rows the
    # archived file carries runs with --runslow.
    if _BENCH_ROWS and session.config.getoption("--runslow", default=False):
        _write_bench_file(session.config.rootpath)
        print(f"\nBENCH rows written to {_BENCH_FILE}: {len(_BENCH_ROWS)} updated")
    if not _ROWS:
        return
    out = ["", "=" * 70, "EXPERIMENT TABLES (paper-shape output)", "=" * 70]
    for exp in sorted(_ROWS):
        out.append(f"\n--- {exp} ---")
        out.append(format_table(_ROWS[exp]))
    print("\n".join(out))


def pytest_addoption(parser):
    # tests/conftest.py registers the same option; both directories are
    # initial testpaths, so whichever loads second must tolerate the
    # duplicate — and a benchmarks-only invocation still needs it.
    try:
        parser.addoption(
            "--runslow",
            action="store_true",
            default=False,
            help="run tests marked slow (large differential-fuzzer tier)",
        )
    except ValueError:
        pass


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow", default=False):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a simulation exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
