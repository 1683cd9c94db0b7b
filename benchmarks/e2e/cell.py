"""One benchmark rep: a single user cell in a fresh interpreter.

``run.py`` starts this script once per rep (never imports it) and reads
the JSON object it prints as its last stdout line::

    python cell.py WORKLOAD --n N --seed S [--archive PATH] [--prep] [--trace]

A live rep makes the public calls ``repro.analysis.sweep._execute_cell``
makes, in its order: ``families.make``, ``conformance.make_checkers``
(plus the ``.rtb`` sink for archive workloads), the scenario runner on
the bulk backend, ``sweep.measure`` and ``conformance.verdict_columns``.
An audit rep builds the graph and calls
``conformance.check_trace_parallel`` on the archive the prep step
(``--prep``: a live rep that writes ``--archive``) recorded.  Setup and
cell each run once, cold, as a sweep cell pays them.  Untraced, the rep
takes timestamps only between those calls.

``--trace`` wraps every observer in :class:`TimedObserver`, attaches a
:class:`~repro.telemetry.TelemetryObserver` and wraps the final-graph
measurement, recording one span per layer boundary (see README.md).

Around the rep, :func:`calibrate` times fixed work; ``scale`` is
``CALIBRATION_REF_S`` over that time.  ``setup_s`` and ``cell_s`` are
wall times multiplied by ``scale`` (reference-CPU seconds), which
cancels the CPU speed swings of a shared host; the raw wall times are
reported too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import sys
from contextlib import ExitStack
from dataclasses import fields
from time import perf_counter
from unittest import mock

from workloads import WORKLOADS

#: The span every other span of a rep descends from: setup plus cell.
ROOT = "rep"
#: What :func:`calibrate` takes on the reference CPU: one vCPU of the
#: 2-vCPU Xeon VM the benchmark was sized on, in its fast state.
CALIBRATION_REF_S = 0.010


def calibrate() -> float:
    """Median time of a fixed piece of dict, set and sort work.

    The host this benchmark was sized on slows a vCPU by up to 2x, for
    seconds to minutes at a time; this work, timed just before and just
    after a rep, measures which speed the rep ran at.  It shares no code
    with ``repro`` but does what ``repro``'s layers mostly do (hashing,
    set building, sorting), which tracked the reps' slowdowns more
    closely than arithmetic loops or numpy kernels did.
    """
    rng = random.Random(0)
    keys = [rng.getrandbits(30) for _ in range(20_000)]
    times = []
    for _ in range(5):
        t = perf_counter()
        table = {k: (k, k + 1) for k in keys}
        frozenset({table[k][0] ^ 5 for k in keys})
        sorted(table)
        times.append(perf_counter() - t)
    return statistics.median(times)


class Spans:
    """In-memory spans: name -> total seconds, call count, parent name."""

    def __init__(self) -> None:
        self.spans: dict = {}

    def slot(self, name: str, parent: str | None) -> dict:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = {"s": 0.0, "calls": 0, "parent": parent}
        return span

    def wrap(self, name: str, parent: str | None, fn):
        span = self.slot(name, parent)

        def timed(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["s"] += perf_counter() - t
                span["calls"] += 1

        return timed


def call(spans: Spans | None, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, as a child span of the rep when tracing."""
    if spans is None:
        return fn(*args, **kwargs)
    return spans.wrap(name, ROOT, fn)(*args, **kwargs)


def _timed_hook(hook: str):
    def forward(self, *args):
        t = perf_counter()
        getattr(self._inner, hook)(*args)
        span = self._span
        span["s"] += perf_counter() - t
        span["calls"] += 1

    forward.__name__ = hook
    return forward


class TimedObserver:
    """Times every hook of one observer into a single span.

    ``accepts_raw_rounds`` is forwarded, so checkers still receive the
    runner's borrowed ``RawRound``; ``telemetry_probe`` is never
    forwarded, so the proxy is never taken for the runner's probe.
    Every other attribute read or write goes to the wrapped observer
    (the offline audit sets and reads checker state directly).
    """

    telemetry_probe = False

    def __init__(self, inner, span: dict) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_span", span)
        object.__setattr__(
            self, "accepts_raw_rounds", bool(getattr(inner, "accepts_raw_rounds", False))
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value) -> None:
        setattr(self._inner, name, value)

    on_run_start = _timed_hook("on_run_start")
    on_round_start = _timed_hook("on_round_start")
    on_round = _timed_hook("on_round")
    on_perturbation = _timed_hook("on_perturbation")
    on_run_end = _timed_hook("on_run_end")


def _timed_telemetry(span: dict):
    """A TelemetryObserver whose per-round probe is itself timed, so its
    cost is a layer of its own rather than hidden in the engine's."""
    from repro.telemetry import TelemetryObserver

    class TimedTelemetry(TelemetryObserver):
        def probe_round(self, round_no, **kwargs) -> None:
            t = perf_counter()
            super().probe_round(round_no, **kwargs)
            span["s"] += perf_counter() - t
            span["calls"] += 1

    return TimedTelemetry(keep_samples=True)


def _profile(telemetry) -> dict:
    """Dispatch counts, per-phase wall and exact round-time deciles (the
    profile's own percentiles are power-of-two bucket bounds)."""
    profile = telemetry.profile()
    dts = [s[1] for seg in telemetry.samples_by_segment() for s in seg]
    deciles = statistics.quantiles(dts, n=10)
    return {
        "dispatch": dict(profile.dispatch),
        "phases": {row["phase"]: row["wall_ms"] / 1e3 for row in profile.phases},
        "round_p50_us": deciles[4] * 1e6,
        "round_p90_us": deciles[8] * 1e6,
    }


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _verdicts(verdicts) -> dict:
    return {v.invariant: [v.ok, v.detail] for v in verdicts}


def _peak_rss_mb() -> float:
    from repro.telemetry.observer import peak_rss_kb

    return peak_rss_kb() / 1024.0


def run_live(spec, w, n: int, seed: int, archive: str | None, spans) -> dict:
    """Setup and cell of one live rep (plus its archive, if any)."""
    from repro import conformance
    from repro.analysis import sweep
    from repro.engine.tracebin import from_binary, trace_sink_for
    from repro.graphs import families

    t0 = perf_counter()
    graph = call(spans, "graphs.build", families.make, w.family, n, seed=seed)
    checkers = call(
        spans, "conformance.make_checkers", conformance.make_checkers, spec.invariants
    )
    observers = list(checkers)
    sink = None
    if archive is not None:
        sink = call(spans, "tracebin.sink_open", trace_sink_for, archive)
        observers.append(sink)
    t1 = perf_counter()

    telemetry = None
    if spans is not None:
        observers = [
            TimedObserver(
                o, spans.slot(f"conformance.{o.name}" if o in checkers else "tracebin.sink",
                              "engine.run"),
            )
            for o in observers
        ]
        telemetry = _timed_telemetry(spans.slot("telemetry.probe", "engine.run"))
        observers.append(telemetry)
    try:
        result = call(
            spans, "engine.run", spec.runner, graph, backend="bulk", observers=observers
        )
    finally:
        if sink is not None:
            call(spans, "tracebin.sink_close", sink.close)
    with ExitStack() as stack:
        if spans is not None:
            for fn in ("diameter", "max_degree"):
                timed = spans.wrap("graphs.measure", "analysis.measure", getattr(sweep, fn))
                stack.enter_context(mock.patch.object(sweep, fn, timed))
            result.final_graph = spans.wrap(
                "engine.final_graph", "analysis.measure", result.final_graph
            )
        row = call(spans, "analysis.measure", sweep.measure, w.algorithm, w.family, graph, result)
    row.extra.update(
        call(spans, "conformance.verdicts", conformance.verdict_columns, checkers)
    )
    t2 = perf_counter()

    out = {
        "setup_s": t1 - t0,
        "cell_s": t2 - t1,
        "rep_s": t2 - t0,
        "peak_rss_mb": _peak_rss_mb(),
        "verdicts": _verdicts(c.verdict() for c in checkers),
        "counts": {
            "engine.rounds": result.rounds,
            "engine.activations": result.metrics.total_activations,
        },
    }
    payload = {
        "row": {f.name: getattr(row, f.name) for f in fields(row) if f.name != "extra"},
        "seed": seed,
        "verdicts": out["verdicts"],
    }
    if archive is not None:
        out["counts"]["tracebin.archive_bytes"] = os.path.getsize(archive)
        payload["archive_jsonl_sha256"] = hashlib.sha256(
            from_binary(archive).to_jsonl().encode()
        ).hexdigest()
    out["digest"] = _digest(payload)
    if telemetry is not None:
        out.update(_profile(telemetry))
    return out


def run_audit(spec, w, n: int, seed: int, archive: str, spans) -> dict:
    """Setup and cell of one offline-audit rep (``repro check-trace``)."""
    from repro import conformance
    from repro.engine.tracebin import BinaryTraceReader
    from repro.graphs import families

    t0 = perf_counter()
    graph = call(spans, "graphs.build", families.make, w.family, n, seed=seed)
    t1 = perf_counter()
    with ExitStack() as stack:
        if spans is not None:
            make_checkers = conformance.make_checkers

            def timed_checkers(names, **kwargs):
                return [
                    TimedObserver(c, spans.slot(f"conformance.{c.name}", "conformance.audit"))
                    for c in make_checkers(names, **kwargs)
                ]

            stack.enter_context(mock.patch.object(conformance, "make_checkers", timed_checkers))
        verdicts = call(
            spans, "conformance.audit", conformance.check_trace_parallel,
            graph, archive, spec.invariants, jobs=2,
        )
    t2 = perf_counter()
    out = {
        "setup_s": t1 - t0,
        "cell_s": t2 - t1,
        "rep_s": t2 - t0,
        "peak_rss_mb": _peak_rss_mb(),
        "verdicts": _verdicts(verdicts),
        "counts": {},
    }
    with BinaryTraceReader(archive) as reader:
        rounds = reader.n_rounds
    out["digest"] = _digest(
        {"n": n, "seed": seed, "archive_rounds": rounds, "verdicts": out["verdicts"]}
    )
    if spans is not None:
        def decode_only():
            with BinaryTraceReader(archive) as reader:
                for i in range(len(reader.segments)):
                    for _ in reader.iter_segment(i, arrays=True):
                        pass

        spans.wrap("tracebin.decode", None, decode_only)()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one end-to-end benchmark rep")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--archive", default=None, help=".rtb path to write (live) or audit")
    parser.add_argument("--prep", action="store_true", help="record the audit's archive")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    t = perf_counter()
    import repro.analysis.sweep  # noqa: F401 (timed: every rep pays the import)
    import repro.conformance  # noqa: F401
    from repro.registry import get_scenario

    spec = get_scenario(w.algorithm)
    import_s = perf_counter() - t

    spans = Spans() if args.trace else None
    calib_s = calibrate()
    if w.mode == "audit" and not args.prep:
        out = run_audit(spec, w, args.n, args.seed, args.archive, spans)
    else:
        out = run_live(spec, w, args.n, args.seed, args.archive, spans)
    calib_s = (calib_s + calibrate()) / 2
    out["scale"] = CALIBRATION_REF_S / calib_s
    for name in ("setup_s", "cell_s"):
        out[name.replace("_s", "_wall_s")] = out[name]
        out[name] *= out["scale"]
    out["import_s"] = import_s
    rep_s = out.pop("rep_s")
    if spans is not None:
        spans.slot(ROOT, None).update(s=rep_s, calls=1)
        out["spans"] = spans.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
