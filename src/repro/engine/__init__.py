"""Synchronous actively-dynamic-network simulation engine."""

from .actions import RoundActions, canonical_view, edge_key
from .centralized import CentralizedStrategy, run_centralized
from .dense import DenseConnectivityTracker, DenseNetwork
from .metrics import Metrics, MetricsRecorder, aggregate_metrics
from .network import ConnectivityTracker, Network
from .observers import ActivityObserver, JsonlSink, RoundObserver, TraceObserver
from .program import Context, NodeProgram, PhaseKernel
from .runner import (
    BACKENDS,
    RunResult,
    SynchronousRunner,
    resolve_backend,
    run_program,
)
from .trace import PerturbationRecord, RoundRecord, Trace, iter_traces, split_segments
from .tracebin import (
    BinarySink,
    BinaryTraceReader,
    from_binary,
    load_trace,
    to_binary,
    trace_sink_for,
)


def __getattr__(name):
    # BulkRunner is imported lazily so that a missing numpy only fails
    # when the bulk backend is actually requested (with a clear message).
    if name == "BulkRunner":
        from .bulk import BulkRunner

        return BulkRunner
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BulkRunner",
    "ActivityObserver",
    "BACKENDS",
    "BinarySink",
    "BinaryTraceReader",
    "CentralizedStrategy",
    "ConnectivityTracker",
    "Context",
    "JsonlSink",
    "RoundObserver",
    "TraceObserver",
    "DenseConnectivityTracker",
    "DenseNetwork",
    "Metrics",
    "MetricsRecorder",
    "Network",
    "NodeProgram",
    "PerturbationRecord",
    "PhaseKernel",
    "RoundActions",
    "RoundRecord",
    "RunResult",
    "SynchronousRunner",
    "Trace",
    "aggregate_metrics",
    "canonical_view",
    "edge_key",
    "from_binary",
    "iter_traces",
    "load_trace",
    "resolve_backend",
    "run_centralized",
    "run_program",
    "split_segments",
    "to_binary",
    "trace_sink_for",
]
