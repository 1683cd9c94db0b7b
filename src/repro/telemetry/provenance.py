"""Perf provenance: the stamp that makes a measurement comparable.

A wall-time or RSS number is meaningless next to another one unless both
record what produced them; every :class:`~repro.telemetry.RunProfile`
and every ``repro-bench-engine/2`` row carries this stamp (git sha,
python/numpy versions, platform, backend).
"""

from __future__ import annotations

import platform
import subprocess
from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=1)
def git_sha() -> str | None:
    """The short sha of the working tree this package was imported from,
    or None (not a checkout, git unavailable)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def build_provenance(backend: str | None = None) -> dict:
    """The full provenance stamp for one measurement."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "backend": backend,
    }
