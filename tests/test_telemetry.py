"""The telemetry layer: sample stream, profiles, heartbeat, bench schema.

Covers the tentpole guarantees of the telemetry PR:

* **sample stream** — a :class:`TelemetryObserver` samples every executed
  round exactly once, in order, on both backends, including under
  adversary perturbations and across multi-stage pipeline results;
* **no-op identity** — attaching telemetry changes nothing about the
  execution: traces are byte-identical and metrics equal with and
  without the observer (the ≤5% *enabled* wall-clock overhead is gated
  separately in ``benchmarks/test_p7_telemetry.py``);
* **profiles** — per-phase breakdowns keyed off ``PhaseKernel.phase_of``,
  dispatch/occupancy/wake-cause accounting per backend, JSON round-trip,
  and exact multi-segment merging;
* **surfaces** — the shared heartbeat line format and the versioned
  ``BENCH_engine.json`` schema (v2 writer and reader).
"""

import gc
import io
import json

import pytest

from repro.dynamics import ChurnSchedule, ScriptedAdversary
from repro.engine import BACKENDS, NodeProgram, iter_traces, run_program
from repro.engine.trace import RoundRecord
from repro.errors import ExecutionError
from repro.graphs import families
from repro.registry import get_scenario
from repro.telemetry import (
    PROFILE_SCHEMA,
    RunProfile,
    TelemetryObserver,
    WAKE_CAUSES,
    build_provenance,
    format_heartbeat,
    percentile_from_hist,
    profile_columns,
)
from repro.telemetry.bench import (
    BENCH_SCHEMA,
    bench_row,
    merge_bench,
    read_bench,
    write_bench,
)


def _round_counts(result):
    """Per-segment committed-round streams, from the traced result."""
    return [
        [(rec.round, len(rec.activations), len(rec.deactivations))
         for rec in trace.records if isinstance(rec, RoundRecord)]
        for _, trace in iter_traces(result)
    ]


def _run(name, family, n, backend, observers, **kwargs):
    spec = get_scenario(name)
    if spec.supports_backend and backend is not None:
        kwargs["backend"] = backend
    return spec.runner(
        families.make(family, n), collect_trace=True, observers=observers, **kwargs
    )


class TestSampleStream:
    """Every executed round is sampled exactly once, in order."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name,family,n", [
        ("star", "ring", 20),
        ("wreath", "ring", 16),
        ("euler", "ring", 20),
    ])
    def test_rounds_sampled_once_in_order(self, name, family, n, backend):
        telemetry = TelemetryObserver(keep_samples=True)
        result = _run(name, family, n, backend, [telemetry])
        streams = telemetry.samples_by_segment()
        traced = _round_counts(result)
        assert len(streams) == len(traced)
        for samples, rounds in zip(streams, traced):
            assert [s[0] for s in samples] == [r for r, _, _ in rounds]
            # activation/deactivation counts agree with the trace
            assert [(s[5], s[6]) for s in samples] == [
                (a, d) for _, a, d in rounds
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_stage_pipeline_segments(self, backend):
        telemetry = TelemetryObserver(keep_samples=True)
        result = _run("star+flood", "line", 20, backend, [telemetry])
        traced = _round_counts(result)
        assert len(traced) > 1, "star+flood stopped being multi-stage; weak test"
        assert len(telemetry.segments) == len(traced)
        for seg, rounds in zip(telemetry.segments, traced):
            assert seg.rounds == len(rounds)
        merged = telemetry.profile()
        assert merged.rounds == sum(len(r) for r in traced)
        assert merged.segments == len(traced)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adversary_rounds_sampled_and_counted(self, backend):
        class Chatty(NodeProgram):
            def transition(self, ctx, inbox):
                if ctx.round >= 25:
                    self.halt()

        telemetry = TelemetryObserver(keep_samples=True)
        res = run_program(
            families.make("ring", 16),
            Chatty,
            collect_trace=True,
            observers=[telemetry],
            adversary=ChurnSchedule(
                rate=0.4, seed=11, policy="reroute", start=3, period=4
            ),
            backend=backend,
        )
        assert res.trace.perturbations, "the schedule never fired; weak test"
        samples = telemetry.samples_by_segment()[0]
        assert [s[0] for s in samples] == list(range(1, res.metrics.rounds + 1))
        assert telemetry.profile().perturbations == len(res.trace.perturbations)


class TestNoOpIdentity:
    """Attaching telemetry must not change the execution."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_byte_identical_with_telemetry(self, backend):
        bare = _run("wreath", "ring", 16, backend, [])
        telemetry = TelemetryObserver()
        probed = _run("wreath", "ring", 16, backend, [telemetry])
        assert probed.trace.to_jsonl() == bare.trace.to_jsonl()
        assert probed.metrics == bare.metrics
        assert telemetry.profile().rounds == bare.metrics.rounds

    def test_trace_identity_under_scripted_adversary(self):
        class Chatty(NodeProgram):
            def transition(self, ctx, inbox):
                if ctx.round >= 20:
                    self.halt()

        def go(observers):
            return run_program(
                families.make("ring", 10),
                Chatty,
                collect_trace=True,
                observers=observers,
                adversary=ScriptedAdversary(
                    {3: {"adds": [(0, 5)]}, 6: {"crashes": [2]}}
                ),
            )

        bare, probed = go([]), go([TelemetryObserver()])
        assert probed.trace.to_jsonl() == bare.trace.to_jsonl()


class TestBackendProfiles:
    @pytest.mark.parametrize("backend,name", [
        ("reference", "wreath"),
        # clique's programs are not bulk-sparse: bulk's per-node loop
        ("bulk", "clique"),
    ])
    def test_pernode_dispatch(self, backend, name):
        telemetry = TelemetryObserver()
        _run(name, "ring", 16, backend, [telemetry])
        prof = telemetry.profile()
        assert prof.dispatch == {"pernode": prof.rounds}
        assert prof.live is not None and prof.live["max"] <= 16
        assert prof.due is None

    def test_bulk_sparse_occupancy_and_wake_causes(self):
        telemetry = TelemetryObserver()
        _run("wreath", "increasing_ring", 64, "bulk", [telemetry])
        prof = telemetry.profile()
        # REBUILD segments run under the rebuild assist (its own
        # dispatch label); everything else dispatches sparse.
        assert set(prof.dispatch) == {"sparse", "assist"}
        assert sum(prof.dispatch.values()) == prof.rounds
        assert prof.due is not None
        assert prof.due["mean"] <= prof.live["mean"]
        assert set(prof.wake_hits) <= set(WAKE_CAUSES)
        # the wreath construction exercises rebinds and adjacency changes
        assert prof.wake_hits["rebind"] > 0
        assert prof.wake_hits["adjacency"] > 0

    def test_bulk_kernel_dispatch(self):
        telemetry = TelemetryObserver()
        _run("flood-baseline", "gnp", 25, "bulk", [telemetry])
        prof = telemetry.profile()
        assert prof.dispatch == {"kernel": prof.rounds}

    def test_bulk_perturbation_wake_hits(self):
        class Chatty(NodeProgram):
            # sparse contract holds trivially: the default bulk_next_wake
            # wakes every round, so nothing is ever skipped.
            bulk_sparse = True

            def transition(self, ctx, inbox):
                if ctx.round >= 25:
                    self.halt()

        telemetry = TelemetryObserver()
        res = run_program(
            families.make("ring", 16),
            Chatty,
            collect_trace=True,
            observers=[telemetry],
            adversary=ChurnSchedule(
                rate=0.4, seed=11, policy="reroute", start=3, period=4
            ),
            backend="bulk",
        )
        assert res.trace.perturbations
        assert telemetry.profile().wake_hits.get("perturbation", 0) > 0

    def test_phase_breakdown_follows_phase_of(self):
        telemetry = TelemetryObserver()
        res = _run("star", "ring", 20, "reference", [telemetry])
        prof = telemetry.profile()
        assert [row["phase"] for row in prof.phases] == [
            "r0", "r1", "r2", "r3", "r4"
        ]
        assert sum(row["rounds"] for row in prof.phases) == res.metrics.rounds
        assert sum(row["share"] for row in prof.phases) == pytest.approx(1.0, abs=0.01)
        assert sum(row["activations"] for row in prof.phases) == prof.activations

    def test_no_phase_kernel_single_all_row(self):
        class Plain(NodeProgram):
            def transition(self, ctx, inbox):
                if ctx.round >= 3:
                    self.halt()

        telemetry = TelemetryObserver()
        run_program(families.make("ring", 8), Plain, observers=[telemetry])
        prof = telemetry.profile()
        assert [row["phase"] for row in prof.phases] == ["all"]
        assert prof.phases[0]["rounds"] == prof.rounds

    def test_rss_and_provenance_recorded(self):
        telemetry = TelemetryObserver(rss_every=1)
        _run("star", "ring", 20, "reference", [telemetry])
        prof = telemetry.profile()
        assert prof.rss["samples"] >= prof.rounds
        assert prof.rss["peak_kb"] > 0
        for key in ("git_sha", "python", "numpy", "platform", "backend"):
            assert key in prof.provenance
        assert prof.provenance["backend"] == "reference"
        assert prof.provenance == build_provenance("reference")


class TestRunProfile:
    def _profile(self):
        telemetry = TelemetryObserver()
        _run("wreath", "ring", 16, "bulk", [telemetry])
        return telemetry.profile()

    def test_json_round_trip(self, tmp_path):
        prof = self._profile()
        back = RunProfile.from_dict(json.loads(prof.to_json()))
        assert back.as_dict() == prof.as_dict()
        out = tmp_path / "profile.json"
        prof.to_json(out)
        assert RunProfile.from_dict(json.loads(out.read_text())).rounds == prof.rounds

    def test_from_dict_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="repro-run-profile"):
            RunProfile.from_dict({"schema": "something-else/9"})

    def test_schema_tag(self):
        assert self._profile().as_dict()["schema"] == PROFILE_SCHEMA

    def test_merge_is_exact_on_sums_and_extremes(self):
        a = RunProfile(
            backend="bulk", n=8, rounds=2, wall_s=0.004,
            round_us={"mean": 2000.0, "min": 1000.0, "max": 3000.0,
                      "p50": 2048.0, "p90": 4096.0},
            histogram_us={"1024": 1, "4096": 1},
            slowest=[[2, 3000.0], [1, 1000.0]],
            dispatch={"sparse": 2}, wake_hits={"message": 3},
            activations=4, deactivations=1,
            rss={"samples": 1, "peak_kb": 100},
            phases=[{"phase": "all", "rounds": 2, "wall_ms": 4.0,
                     "share": 1.0, "mean_us": 2000.0, "activations": 4}],
        )
        b = RunProfile(
            backend="bulk", n=8, rounds=1, wall_s=0.008,
            round_us={"mean": 8000.0, "min": 8000.0, "max": 8000.0,
                      "p50": 8192.0, "p90": 8192.0},
            histogram_us={"8192": 1},
            slowest=[[1, 8000.0]],
            dispatch={"sparse": 1}, wake_hits={"message": 2, "rebind": 1},
            activations=1, deactivations=0,
            rss={"samples": 2, "peak_kb": 120},
            phases=[{"phase": "all", "rounds": 1, "wall_ms": 8.0,
                     "share": 1.0, "mean_us": 8000.0, "activations": 1}],
        )
        m = RunProfile.merge([a, b])
        assert m.rounds == 3
        assert m.wall_s == pytest.approx(0.012)
        assert m.round_us["min"] == 1000.0
        assert m.round_us["max"] == 8000.0
        assert m.round_us["mean"] == pytest.approx(4000.0)
        assert m.histogram_us == {"1024": 1, "4096": 1, "8192": 1}
        assert m.dispatch == {"sparse": 3}
        assert m.wake_hits == {"message": 5, "rebind": 1}
        assert m.activations == 5 and m.deactivations == 1
        assert m.rss == {"samples": 3, "peak_kb": 120}
        assert m.segments == 2
        assert m.slowest[0] == [1, 8000.0]
        (row,) = m.phases
        assert row["rounds"] == 3 and row["activations"] == 5
        assert row["share"] == pytest.approx(1.0)

    def test_merge_of_empty_and_singleton(self):
        empty = RunProfile.merge([])
        assert empty.rounds == 0
        assert empty.round_us["p90"] == 0.0
        one = self._profile()
        assert RunProfile.merge([one]) is one

    def test_percentile_from_hist(self):
        hist = {"1": 5, "1024": 4, "8192": 1}
        assert percentile_from_hist(hist, 0.50) == 1.0
        assert percentile_from_hist(hist, 0.90) == 1024.0
        assert percentile_from_hist(hist, 0.999) == 8192.0
        assert percentile_from_hist({}, 0.5) == 0.0

    def test_summary_and_columns(self):
        prof = self._profile()
        row = prof.summary_row()
        assert row["rounds"] == prof.rounds
        assert "sparse" in row["dispatch"]
        cols = profile_columns(prof)
        assert set(cols) >= {
            "prof_wall_ms", "prof_round_mean_us", "prof_round_max_us",
            "prof_dispatch", "prof_live_mean", "prof_due_mean",
            "prof_rss_peak_kb",
        }
        assert all(k.startswith("prof_") for k in cols)
        assert prof.breakdown_table() == prof.phases
        assert prof.breakdown_table() is not prof.phases


class TestGcProfile:
    """The cyclic collector's work lands in ``RunProfile.gc``; the hook
    lives on ``gc.callbacks`` only while a profiled run is bound."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_profiled_run_counts_collections(self, backend):
        class Collects(NodeProgram):
            def transition(self, ctx, inbox):
                if self.uid == 0:
                    gc.collect(1)
                if ctx.round == 3:
                    self.halt()

        before = list(gc.callbacks)
        telemetry = TelemetryObserver()
        run_program(families.make("ring", 8), Collects,
                    observers=[telemetry], backend=backend)
        assert gc.callbacks == before
        stats = telemetry.profile().gc
        assert len(stats["collections"]) == 3
        assert stats["collections"][1] >= 3 and stats["pause_s"] > 0.0
        assert "gc_ms" in telemetry.profile().summary_row()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unprofiled_and_failed_runs_leave_callbacks_alone(self, backend):
        class NeverHalts(NodeProgram):
            pass

        before = list(gc.callbacks)
        _run("star", "ring", 16, backend, [])
        assert gc.callbacks == before
        with pytest.raises(ExecutionError):
            run_program(families.make("ring", 8), NeverHalts, max_rounds=3,
                        observers=[TelemetryObserver()], backend=backend)
        assert gc.callbacks == before

    def test_centralized_run_has_gc_field(self):
        # The centralized executor is a runner like any other: it binds
        # the probe, so its profile counts the collector's work too.
        telemetry = TelemetryObserver()
        _run("euler", "ring", 16, "reference", [telemetry])
        prof = telemetry.profile()
        assert prof.gc is not None
        assert len(prof.gc["collections"]) == len(gc.get_count())
        assert "gc_ms" in prof.summary_row()

    def test_merge_sums_and_old_payloads_load(self):
        a = RunProfile(gc={"collections": [5, 1, 0], "pause_s": 0.002})
        b = RunProfile(gc={"collections": [2, 0, 1], "pause_s": 0.001})
        m = RunProfile.merge([a, b, RunProfile()])
        assert m.gc == {"collections": [7, 1, 1], "pause_s": pytest.approx(0.003)}
        assert RunProfile.merge([RunProfile(), RunProfile()]).gc is None
        old = RunProfile(rounds=3).as_dict()
        del old["gc"]
        assert RunProfile.from_dict(old).gc is None


class TestHeartbeat:
    def test_format_with_and_without_total(self):
        line = format_heartbeat(
            "wreath/ring n=64", 120, 480, elapsed_s=4.25, unit="rounds",
            extra="live=12",
        )
        assert line == "[wreath/ring n=64] 120/480 rounds (25%) elapsed 4.2s live=12"
        assert format_heartbeat("sweep", 3, elapsed_s=0.0) == "[sweep] 3 elapsed 0.0s"

    def test_observer_emits_to_stream(self):
        buf = io.StringIO()
        telemetry = TelemetryObserver(
            heartbeat_every=1, heartbeat_stream=buf, heartbeat_label="test-hb"
        )
        res = _run("star", "ring", 16, "reference", [telemetry])
        lines = buf.getvalue().splitlines()
        assert len(lines) == res.metrics.rounds
        assert all(line.startswith("[test-hb] ") for line in lines)
        assert "rounds" in lines[0]

    def test_min_interval_throttles(self):
        buf = io.StringIO()
        telemetry = TelemetryObserver(
            heartbeat_every=1, heartbeat_min_interval_s=3600.0,
            heartbeat_stream=buf,
        )
        _run("star", "ring", 16, "reference", [telemetry])
        # the first beat passes (hb_last starts at 0), the rest throttle
        assert len(buf.getvalue().splitlines()) <= 1

    def test_min_rounds_throttles(self):
        # The xxlarge regime's second gate: at microsecond rounds the
        # wall-time throttle alone would still print every round that
        # lands after the interval, so the round-count gate must bound
        # the stream to one line per ``heartbeat_min_rounds`` rounds.
        buf = io.StringIO()
        telemetry = TelemetryObserver(
            heartbeat_every=1, heartbeat_min_rounds=10, heartbeat_stream=buf,
        )
        res = _run("star", "ring", 16, "reference", [telemetry])
        lines = buf.getvalue().splitlines()
        assert len(lines) == res.metrics.rounds // 10

    def test_disabled_by_default(self):
        buf = io.StringIO()
        telemetry = TelemetryObserver(heartbeat_stream=buf)
        _run("star", "ring", 16, "reference", [telemetry])
        assert buf.getvalue() == ""


class TestBenchSchema:
    def _rows(self):
        return [
            bench_row("wreath", 64, "bulk", 12.34, 2048, rounds=100,
                      activations=50, provenance=build_provenance("bulk")),
            bench_row("star", 32, "dense", 5.6),
        ]

    def test_v2_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(path, self._rows())
        payload = json.loads(path.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        rows = read_bench(path)
        assert [r["scenario"] for r in rows] == ["star", "wreath"]  # sorted
        wreath = rows[1]
        assert wreath["rounds"] == 100
        assert wreath["provenance"]["backend"] == "bulk"
        star = rows[0]
        assert star["peak_rss_kb"] is None and star["phases"] is None

    def test_merge_fresh_wins_old_survives(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(path, [
            bench_row("wreath", 64, "bulk", 99.0),
            bench_row("legacy", 1, "dense", 1.0),
        ])
        merged = merge_bench(path, self._rows())
        by_key = {(r["scenario"], r["n"], r["backend"]): r for r in merged}
        assert by_key[("wreath", 64, "bulk")]["wall_ms"] == 12.3  # fresh won
        assert by_key[("legacy", 1, "dense")]["wall_ms"] == 1.0  # survived
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA

    def test_v1_file_is_refused(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "repro-bench-engine/1",
            "rows": [{"scenario": "wreath", "n": 8192, "backend": "bulk",
                      "wall_ms": 9000.1, "peak_rss_kb": 12345}],
        }))
        with pytest.raises(ValueError, match="unknown BENCH schema 'repro-bench-engine/1'"):
            read_bench(path)

    def test_unknown_schema_raises_but_merge_recovers(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "not-a-bench/3", "rows": []}))
        with pytest.raises(ValueError, match="unknown BENCH schema"):
            read_bench(path)
        merged = merge_bench(path, self._rows())  # starts fresh, no raise
        assert len(merged) == 2


class TestPeakRss:
    """Regression: ``ru_maxrss`` is KiB on Linux but *bytes* on macOS,
    and the old ``_rss_kb`` returned the raw reading everywhere — a
    1024x overreport in every profile and sweep column off-Linux."""

    class _Usage:
        ru_maxrss = 524_288  # 512 MiB in bytes, 512 GiB-looking in KiB

    def test_macos_reading_is_normalized_to_kib(self, monkeypatch):
        import sys

        from repro.telemetry import observer

        monkeypatch.setattr(observer.resource, "getrusage", lambda who: self._Usage)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert observer.peak_rss_kb() == 512

    def test_linux_reading_passes_through(self, monkeypatch):
        import sys

        from repro.telemetry import observer

        monkeypatch.setattr(observer.resource, "getrusage", lambda who: self._Usage)
        monkeypatch.setattr(sys, "platform", "linux")
        assert observer.peak_rss_kb() == 524_288

    def test_real_reading_is_positive(self):
        from repro.telemetry import observer

        assert observer.peak_rss_kb() > 0


class TestSweepTotals:
    """Regression: the xlarge sweep gate recorded a BENCH row with null
    rounds/activations; the paper measures are summed from the sweep
    rows instead."""

    def test_sums_rounds_and_activations(self):
        from repro.telemetry.bench import sweep_totals

        rows = [
            {"rounds": 10, "total_activations": 100, "n": 8},
            {"rounds": 5, "total_activations": 50, "n": 8},
        ]
        assert sweep_totals(rows) == (15, 150)

    def test_null_rows_still_tolerated_by_compat_reader(self, tmp_path):
        # A pre-fix archive row with explicit nulls must keep loading.
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": BENCH_SCHEMA,
            "rows": [{"scenario": "sweep-xlarge", "n": 100000, "backend": "bulk",
                      "wall_ms": 1.0, "peak_rss_kb": None, "rounds": None,
                      "activations": None, "phases": None, "provenance": None}],
        }))
        (row,) = read_bench(path)
        assert row["rounds"] is None and row["activations"] is None
