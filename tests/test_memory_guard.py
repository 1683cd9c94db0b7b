"""Memory guard: streamed large-n runs hold bounded peak memory.

The whole point of the observer pipeline is that a large-n run with a
streaming sink never materializes its trace: peak RSS must be a
function of the *graph*, not of the round count or the cumulative
activation volume.  The guard runs a streamed n=4096 GraphToWreath in a
subprocess (so the measurement is not polluted by pytest) and asserts
its peak RSS via ``resource.getrusage`` stays under a ceiling that an
in-memory trace of the same run demonstrably exceeds by a wide margin.

Slow tier: run with ``pytest --runslow tests/test_memory_guard.py``
(CI runs it as a dedicated step).
"""

import subprocess
import sys

import pytest

#: Peak-RSS ceiling for the streamed run, in MiB.  Measured on the
#: reference machine: the streamed n=4096 run peaks at ~79 MiB (graph +
#: engine state), while the same run with collect_trace=True peaks at
#: ~124 MiB — the ceiling sits between the two, so a regression that
#: buffers rounds fires the guard while the streamed path keeps ~40%
#: headroom.
RSS_CEILING_MIB = 110

_CHILD = r"""
import resource
import sys

from repro.core import run_graph_to_wreath
from repro.engine import JsonlSink
from repro.graphs import families

n = int(sys.argv[1])
out = sys.argv[2]

with JsonlSink(out) as sink:
    result = run_graph_to_wreath(
        families.make("ring", n), observers=[sink], backend="bulk"
    )

peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"rounds={result.rounds} lines={sink.lines} peak_kib={peak_kib}")
"""


@pytest.mark.slow
def test_streamed_wreath_4096_peak_rss_bounded(tmp_path):
    out = tmp_path / "wreath-4096.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "4096", str(out)],
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stderr
    stats = dict(
        pair.split("=") for pair in proc.stdout.split() if "=" in pair
    )
    rounds = int(stats["rounds"])
    peak_mib = int(stats["peak_kib"]) / 1024
    assert rounds > 500, "unexpectedly short run; weak guard"
    assert int(stats["lines"]) == rounds
    assert peak_mib < RSS_CEILING_MIB, (
        f"streamed n=4096 wreath peaked at {peak_mib:.0f} MiB "
        f"(ceiling {RSS_CEILING_MIB} MiB): the trace is being buffered"
    )
    # The streamed file holds the complete trace all the same.
    assert sum(1 for _ in open(out)) == rounds


_BINARY_CHILD = r"""
import resource
import sys

from repro.core import run_graph_to_wreath
from repro.engine import BinarySink
from repro.graphs import families

n = int(sys.argv[1])
out = sys.argv[2]

with BinarySink(out) as sink:
    result = run_graph_to_wreath(
        families.make("ring", n), observers=[sink], backend="bulk"
    )

peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"rounds={result.rounds} frames={sink.frames} peak_kib={peak_kib}")
"""

_READER_CHILD = r"""
import resource
import sys

from repro.engine import BinaryTraceReader
from repro.engine.trace import RoundRecord

path = sys.argv[1]

with BinaryTraceReader(path) as reader:
    rounds = sum(1 for rec in reader if isinstance(rec, RoundRecord))
    assert rounds == reader.n_rounds

peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"rounds={rounds} peak_kib={peak_kib}")
"""


@pytest.mark.slow
def test_binary_sink_and_reader_4096_peak_rss_bounded(tmp_path):
    """The binary twin of the JSONL guard, both directions: a streamed
    ``.rtb`` write holds the same ceiling as the JsonlSink, and the
    offset-seekable reader streams the archive back without ever
    materializing it (one decompression block at a time)."""
    out = tmp_path / "wreath-4096.rtb"
    proc = subprocess.run(
        [sys.executable, "-c", _BINARY_CHILD, "4096", str(out)],
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stderr
    stats = dict(pair.split("=") for pair in proc.stdout.split() if "=" in pair)
    rounds = int(stats["rounds"])
    peak_mib = int(stats["peak_kib"]) / 1024
    assert rounds > 500, "unexpectedly short run; weak guard"
    assert int(stats["frames"]) == rounds
    assert peak_mib < RSS_CEILING_MIB, (
        f"streamed n=4096 wreath (.rtb) peaked at {peak_mib:.0f} MiB "
        f"(ceiling {RSS_CEILING_MIB} MiB): the trace is being buffered"
    )

    proc = subprocess.run(
        [sys.executable, "-c", _READER_CHILD, str(out)],
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stderr
    stats = dict(pair.split("=") for pair in proc.stdout.split() if "=" in pair)
    assert int(stats["rounds"]) == rounds
    reader_mib = int(stats["peak_kib"]) / 1024
    assert reader_mib < RSS_CEILING_MIB, (
        f"seekable reader peaked at {reader_mib:.0f} MiB reading the "
        f"n=4096 archive (ceiling {RSS_CEILING_MIB} MiB): segments are "
        f"being materialized"
    )


#: Peak-RSS ceiling for building ``families.make("ring", 200_000,
#: seed=1)``, in MiB above the interpreter's footprint after import.
#: Measured on the reference machine (CPython 3.11, networkx 3.6): the
#: one-pass build adds 99 MiB — the graph itself plus two UID lists —
#: while the generator-then-relabel chain it replaced (two full
#: relabel copies) added 288 MiB.  The ceiling is the measured value
#: plus ~40% headroom, far below the chain's.
RING_BUILD_CEILING_MIB = 140

_RING_BUILD_CHILD = r"""
import resource

from repro.graphs import families

base_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
graph = families.make("ring", 200_000, seed=1)
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"nodes={graph.number_of_nodes()} base_kib={base_kib} peak_kib={peak_kib}")
"""


@pytest.mark.slow
def test_family_build_ring_200k_peak_rss_bounded():
    """A family graph is built once, under its final UIDs: no
    intermediate relabel copy may come back."""
    proc = subprocess.run(
        [sys.executable, "-c", _RING_BUILD_CHILD],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    stats = dict(pair.split("=") for pair in proc.stdout.split() if "=" in pair)
    assert int(stats["nodes"]) == 200_000
    added_mib = (int(stats["peak_kib"]) - int(stats["base_kib"])) / 1024
    assert added_mib < RING_BUILD_CEILING_MIB, (
        f"building the n=200000 ring added {added_mib:.0f} MiB of peak RSS "
        f"(ceiling {RING_BUILD_CEILING_MIB} MiB): the build copies the graph"
    )
