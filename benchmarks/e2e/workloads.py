"""The end-to-end benchmark's workloads: one checked user cell each.

Shared by the harness (``run.py``) and the per-rep child (``cell.py``);
it imports nothing from ``repro`` so the harness stays light and can
refuse cleanly when the package is missing.  README.md records why each
workload was chosen and which layer it stresses.
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    name: str
    algorithm: str
    family: str
    n: int
    #: ``live``: run the cell with its checkers (``repro sweep --check``);
    #: ``archive``: the same plus a ``.rtb`` sink (``--trace-out x.rtb``);
    #: ``audit``: audit an archive the prep step recorded
    #: (``repro check-trace``).
    mode: str
    #: False when the family rejects non-zero seeds; the workload then
    #: always runs the canonical seed-0 instance.
    seeded: bool
    #: Invariants whose red verdict is the pinned, expected output.
    expected_red: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "star-ring-8k", "star", "ring", 8192, "live", True, (),
            "star on a random-UID ring: dense per-activation array work "
            "on the whole-round kernel (about 41k activations)",
        ),
        Workload(
            "wreath-gnp-1k", "wreath", "gnp", 1024, "live", True, (),
            "wreath on a random connected G(n,p) with random UIDs: "
            "high-activity barrier rounds on sparse scheduling and the "
            "REBUILD assist; checkers are a small share",
        ),
        Workload(
            "wreath-seqring-1k", "wreath", "increasing_ring", 1024, "archive",
            False, ("rounds:polylog",),
            "wreath on increasing_ring with a .rtb archive: about 2k "
            "near-idle rounds, so fixed per-round costs and the sink "
            "dominate",
        ),
        Workload(
            "audit-star-16k", "star", "ring", 16384, "audit", True, (),
            "offline audit of a recorded star archive: tracebin decode "
            "plus the array checkers, with no engine",
        ),
    )
}
