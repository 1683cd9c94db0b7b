"""BENCH_engine.json is refreshed by slow-tier sessions only.

A plain ``pytest -x -q`` collects row-recording gates too (the bulk
telemetry overhead gate records a wreath row); the session hook must
not rewrite the tracked file for them, so a tier-1 run leaves the
checkout clean.
"""

import types

import conftest
from repro.telemetry.bench import bench_row


def _session(root, runslow: bool):
    config = types.SimpleNamespace(
        rootpath=root, getoption=lambda name, default=None: runslow
    )
    return types.SimpleNamespace(config=config)


def test_bench_rows_are_written_only_by_runslow_sessions(tmp_path, monkeypatch):
    row = bench_row("probe", 8, "bulk", 1.0, peak_rss_kb=1)
    monkeypatch.setattr(conftest, "_BENCH_ROWS", {("probe", 8, "bulk"): row})
    monkeypatch.setattr(conftest, "_ROWS", {})
    out = tmp_path / conftest._BENCH_FILE

    conftest.pytest_sessionfinish(_session(tmp_path, runslow=False), 0)
    assert not out.exists()

    conftest.pytest_sessionfinish(_session(tmp_path, runslow=True), 0)
    assert '"probe"' in out.read_text()
