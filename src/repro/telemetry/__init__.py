"""Runtime telemetry & profiling (see DESIGN.md, "Telemetry & profiling").

Public surface:

* :class:`TelemetryObserver` — per-round instrumentation riding the
  observer stream plus runner-side probes (``bind_runner`` /
  ``probe_round`` / ``probe_wake`` / ``unbind_runner``).
* :class:`RunProfile` — the bounded-size aggregate (histograms,
  extremes, per-phase breakdown, provenance) with JSON export.
* :func:`profile_columns` — flat ``prof_*`` sweep-row columns.
* :func:`format_heartbeat` — the one heartbeat line format shared by
  round heartbeats and ``repro sweep --progress``.
* :func:`build_provenance` / :func:`git_sha` — the measurement stamp.
* :mod:`repro.telemetry.bench` — the versioned ``BENCH_engine.json``
  schema (v2 rows, written and read).
"""

from .heartbeat import format_heartbeat
from .observer import TelemetryObserver
from .profile import (
    PROFILE_SCHEMA,
    WAKE_CAUSES,
    RunProfile,
    percentile_from_hist,
    profile_columns,
)
from .provenance import build_provenance, git_sha

__all__ = [
    "PROFILE_SCHEMA",
    "RunProfile",
    "TelemetryObserver",
    "WAKE_CAUSES",
    "build_provenance",
    "format_heartbeat",
    "git_sha",
    "percentile_from_hist",
    "profile_columns",
]
