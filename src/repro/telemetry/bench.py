"""The ``BENCH_engine.json`` schema: versioned engine-benchmark rows.

Schema v2 (``repro-bench-engine/2``) rows carry the wall and peak RSS,
the paper's own measures and a provenance stamp::

    {"scenario": "wreath", "n": 8192, "backend": "bulk",
     "wall_ms": 11253.7, "peak_rss_kb": 200476,
     "rounds": 16389, "activations": 24571,
     "phases": [...per-phase breakdown rows or null...],
     "provenance": {"git_sha": ..., "python": ..., "numpy": ...,
                    "platform": ..., "backend": "bulk"}}

:func:`bench_row` writes every field (None where unmeasured), and
:func:`read_bench` reads v2 files only.  Perf gates read their anchors
from constants, never from this file, so a stale row can never relax a
gate.
"""

from __future__ import annotations

import json
import os

#: Current schema tag (written by :func:`write_bench`).
BENCH_SCHEMA = "repro-bench-engine/2"


def bench_row(
    scenario: str,
    n: int,
    backend: str,
    wall_ms: float,
    peak_rss_kb: int | None = None,
    *,
    rounds: int | None = None,
    activations: int | None = None,
    phases: list | None = None,
    provenance: dict | None = None,
    **extra,
) -> dict:
    """One complete v2 row (the merge key is (scenario, n, backend)).

    Extra keyword fields (e.g. archive-size measures) ride along in the
    row and survive merges.
    """
    row = {
        "scenario": scenario,
        "n": int(n),
        "backend": backend,
        "wall_ms": round(float(wall_ms), 1),
        "peak_rss_kb": None if peak_rss_kb is None else int(peak_rss_kb),
        "rounds": None if rounds is None else int(rounds),
        "activations": None if activations is None else int(activations),
        "phases": phases,
        "provenance": provenance,
    }
    row.update(extra)
    return row


def sweep_totals(rows) -> tuple[int, int]:
    """Combined ``(rounds, activations)`` across sweep rows.

    For BENCH rows that record one wall over a whole sweep (e.g. the
    xlarge tier smoke), the paper measures are still separable: sum them
    from the per-cell sweep rows instead of recording ``null``.
    """
    return (
        sum(int(row["rounds"]) for row in rows),
        sum(int(row["total_activations"]) for row in rows),
    )


def row_key(row: dict) -> tuple:
    return (row["scenario"], int(row["n"]), row["backend"])


def read_bench(path) -> list[dict]:
    """Rows of a v2 BENCH_engine.json file.

    Raises ``ValueError`` on any other schema tag, ``OSError`` when the
    file is absent/unreadable.
    """
    with open(os.fspath(path)) as fh:
        payload = json.load(fh)
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(f"unknown BENCH schema {schema!r}; expected {BENCH_SCHEMA!r}")
    return payload.get("rows", [])


def write_bench(path, rows: list) -> None:
    """Write rows as a v2 file, sorted by (scenario, n, backend)."""
    ordered = sorted(rows, key=row_key)
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": BENCH_SCHEMA, "rows": ordered}, indent=2) + "\n")


def merge_bench(path, new_rows: list) -> list[dict]:
    """Merge fresh rows into the file (fresh rows win on key collision,
    previous rows survive), write v2, return all rows."""
    merged = {row_key(r): r for r in new_rows}
    try:
        for row in read_bench(path):
            merged.setdefault(row_key(row), row)
    except (OSError, ValueError, KeyError, TypeError):
        pass  # absent, unreadable, or foreign file: start fresh
    rows = [merged[k] for k in sorted(merged)]
    write_bench(path, rows)
    return rows
