"""Round-trip, robustness, and parallel-audit tests for ``.rtb`` traces.

The binary format's contract (DESIGN.md, "Binary traces"):

* lossless against the JSONL oracle — ``to_jsonl(from_binary(
  to_binary(t)))`` is byte-identical to ``to_jsonl(t)``;
* every corrupted or truncated byte raises ``TraceError`` naming the
  failing region (mirroring tests/test_trace_serialization.py);
* ``check_trace_parallel`` returns verdicts equal to the serial
  ``check_trace`` on the same archive, red or green.
"""

import io

import networkx as nx
import pytest

from repro import graphs
from repro.conformance import check_trace, check_trace_parallel, make_checkers
from repro.core import run_graph_to_star, run_graph_to_wreath
from repro.dynamics import ChurnSchedule
from repro.engine import (
    BinarySink,
    BinaryTraceReader,
    JsonlSink,
    NodeProgram,
    PerturbationRecord,
    RoundRecord,
    Trace,
    from_binary,
    load_trace,
    run_program,
    to_binary,
    trace_sink_for,
)
from repro.engine.tracebin import MAGIC, is_binary_trace
from repro.errors import ConfigurationError, TraceError
from repro.registry import get_scenario

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


class Idle(NodeProgram):
    def transition(self, ctx, inbox):
        if ctx.round >= 15:
            self.halt()


def _perturbed_trace() -> Trace:
    adv = ChurnSchedule(0.4, seed=6, policy="reroute", start=4, period=4)
    res = run_program(nx.cycle_graph(10), Idle, adversary=adv, collect_trace=True)
    assert res.trace.perturbations
    return res.trace


def _concat(*traces: Trace) -> Trace:
    """One multi-segment trace: round numbers restart at each seam."""
    out = Trace()
    for t in traces:
        out.records.extend(t.records)
        out.perturbations.extend(t.perturbations)
    return out


def binary_roundtrip(trace: Trace) -> Trace:
    return from_binary(to_binary(trace))


# ----------------------------------------------------------------------
# lossless conversion against the JSONL oracle
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_star_run_roundtrips(self):
        res = run_graph_to_star(graphs.make("ring", 16), collect_trace=True)
        back = binary_roundtrip(res.trace)
        assert back.records == res.trace.records
        assert back.perturbations == []
        assert back.to_jsonl() == res.trace.to_jsonl()

    def test_wreath_barrier_epochs_survive(self):
        res = run_graph_to_wreath(graphs.make("line", 12), collect_trace=True)
        back = binary_roundtrip(res.trace)
        assert back.to_jsonl() == res.trace.to_jsonl()
        assert max(r.barrier_epoch for r in back.records) >= 1

    def test_perturbations_survive(self):
        trace = _perturbed_trace()
        back = binary_roundtrip(trace)
        assert back.records == trace.records
        assert back.perturbations == trace.perturbations
        assert back.to_jsonl() == trace.to_jsonl()

    def test_empty_trace(self):
        back = binary_roundtrip(Trace())
        assert back.records == [] and back.perturbations == []
        assert back.to_jsonl() == ""

    def test_multi_segment_concatenation(self):
        a = run_graph_to_star(graphs.make("ring", 12), collect_trace=True).trace
        b = run_graph_to_wreath(graphs.make("line", 10), collect_trace=True).trace
        trace = _concat(a, b, a)
        with BinaryTraceReader(to_binary(trace)) as reader:
            assert len(reader.segments) == 3
            assert reader.n_rounds == len(trace.records)
        assert binary_roundtrip(trace).to_jsonl() == trace.to_jsonl()

    def test_mixed_int_str_labels(self):
        # Mixed uid types can't come from the live engine (the network
        # validates label comparability) but the JSONL contract admits
        # them, so the binary format must carry them too.
        payload = (
            '{"type": "round", "round": 0, "activations": [[1, "a"], [2, 3]],'
            ' "deactivations": [["b", "a"]], "active_edges": 2,'
            ' "activated_edges": 2, "connected": true, "barrier_epoch": 0}\n'
        )
        trace = Trace.from_jsonl(payload)
        assert binary_roundtrip(trace).to_jsonl() == trace.to_jsonl()
        assert binary_roundtrip(trace).records == trace.records

    def test_file_roundtrip(self, tmp_path):
        trace = _perturbed_trace()
        path = tmp_path / "trace.rtb"
        data = to_binary(trace, path)
        assert path.read_bytes() == data
        assert from_binary(path).to_jsonl() == trace.to_jsonl()

    def test_sink_bytes_match_to_binary(self):
        """The streaming sink and the whole-trace converter emit the
        same bytes for the same event stream (modulo provenance, pinned
        here with an explicit meta)."""
        trace = _perturbed_trace()
        buf = io.BytesIO()
        sink = BinarySink(buf, meta={"provenance": None})
        sink.on_run_start(None)
        perts = list(trace.perturbations)
        pi = 0
        for rec in trace.records:
            while pi < len(perts) and perts[pi].round <= rec.round:
                sink.on_perturbation(perts[pi])
                pi += 1
            sink.on_round(rec)
        for pert in perts[pi:]:
            sink.on_perturbation(pert)
        sink.close()
        assert buf.getvalue() == to_binary(trace, meta={"provenance": None})

    def test_non_canonical_edge_order_is_normalized(self):
        # Both serializers sort effective sets, so a hand-built record
        # with reversed-order pairs still converges on identical bytes.
        rec = RoundRecord(
            round=0,
            activations=frozenset([(9, 1), (2, 5), (2, 3)]),
            deactivations=frozenset(),
            active_edges=3,
            activated_edges=3,
            connected=True,
        )
        trace = Trace(records=[rec])
        assert binary_roundtrip(trace).to_jsonl() == trace.to_jsonl()

    def test_rejects_non_contract_label_types(self):
        rec = RoundRecord(
            round=0,
            activations=frozenset([(1.5, 2)]),
            deactivations=frozenset(),
            active_edges=1,
            activated_edges=1,
            connected=True,
        )
        with pytest.raises(TraceError, match="int/str uids only"):
            to_binary(Trace(records=[rec]))

    def test_bool_labels_are_rejected_not_silently_intified(self):
        rec = RoundRecord(
            round=0,
            activations=frozenset([(True, 2)]),
            deactivations=frozenset(),
            active_edges=1,
            activated_edges=1,
            connected=True,
        )
        with pytest.raises(TraceError, match="int/str uids only"):
            to_binary(Trace(records=[rec]))


# ----------------------------------------------------------------------
# the reader, sink, and format-negotiation surface
# ----------------------------------------------------------------------


class TestReaderAndSinks:
    def test_index_metadata_records_format_and_provenance(self):
        trace = run_graph_to_star(graphs.make("ring", 8), collect_trace=True).trace
        with BinaryTraceReader(to_binary(trace)) as reader:
            assert reader.meta["format"] == "rtb/1"
            assert "git_sha" in reader.meta["provenance"]

    def test_custom_meta_extends_the_blob(self):
        data = to_binary(Trace(), meta={"scenario": "star", "n": 8})
        with BinaryTraceReader(data) as reader:
            assert reader.meta["scenario"] == "star"
            assert reader.meta["format"] == "rtb/1"

    def test_iter_segment_streams_one_segment(self):
        a = run_graph_to_star(graphs.make("ring", 12), collect_trace=True).trace
        b = run_graph_to_star(graphs.make("line", 8), collect_trace=True).trace
        with BinaryTraceReader(to_binary(_concat(a, b))) as reader:
            seg0 = [r for r in reader.iter_segment(0) if isinstance(r, RoundRecord)]
            seg1 = [r for r in reader.iter_segment(1) if isinstance(r, RoundRecord)]
        assert seg0 == a.records
        assert seg1 == b.records

    def test_iter_segment_out_of_range(self):
        with BinaryTraceReader(to_binary(Trace())) as reader:
            with pytest.raises(TraceError, match="no segment 3"):
                list(reader.iter_segment(3))

    def test_reader_accepts_path_bytes_and_file(self, tmp_path):
        trace = run_graph_to_star(graphs.make("ring", 8), collect_trace=True).trace
        path = tmp_path / "t.rtb"
        data = to_binary(trace, path)
        jsonl = trace.to_jsonl()
        assert from_binary(path).to_jsonl() == jsonl
        assert from_binary(data).to_jsonl() == jsonl
        with open(path, "rb") as fh:
            assert from_binary(fh).to_jsonl() == jsonl

    def test_unreadable_path_is_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read binary trace"):
            BinaryTraceReader(tmp_path / "nope.rtb")

    def test_sink_rejects_text_mode_files(self):
        with pytest.raises(ConfigurationError, match="binary-mode"):
            BinarySink(io.StringIO())

    def test_emitting_after_close_is_trace_error(self):
        sink = BinarySink(io.BytesIO())
        sink.close()
        with pytest.raises(TraceError, match="closed"):
            sink.on_round(
                RoundRecord(0, frozenset(), frozenset(), 0, 0, True)
            )

    def test_unclosed_sink_leaves_a_rejected_file(self, tmp_path):
        """Crash-safety contract: without close() there is no trailer,
        and readers refuse the partial archive instead of silently
        returning a prefix."""
        path = tmp_path / "partial.rtb"
        trace = run_graph_to_star(graphs.make("ring", 8), collect_trace=True).trace
        sink = BinarySink(path)
        sink.on_run_start(None)
        for rec in trace.records:
            sink.on_round(rec)
        sink._fh.flush()
        with pytest.raises(TraceError):
            from_binary(path)
        sink.close()
        assert from_binary(path).to_jsonl() == trace.to_jsonl()

    def test_is_binary_trace(self, tmp_path):
        rtb = tmp_path / "t.rtb"
        to_binary(Trace(), rtb)
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text("")
        assert is_binary_trace(rtb)
        assert not is_binary_trace(jsonl)
        assert not is_binary_trace(tmp_path / "absent")

    def test_load_trace_sniffs_by_content_not_extension(self, tmp_path):
        trace = run_graph_to_star(graphs.make("ring", 8), collect_trace=True).trace
        # A binary archive behind a .jsonl name still loads as binary.
        disguised = tmp_path / "t.jsonl"
        to_binary(trace, disguised)
        assert load_trace(disguised).to_jsonl() == trace.to_jsonl()
        plain = tmp_path / "t.txt"
        trace.to_jsonl(plain)
        assert load_trace(plain).to_jsonl() == trace.to_jsonl()
        assert load_trace(to_binary(trace)).to_jsonl() == trace.to_jsonl()
        assert load_trace(trace.to_jsonl()).to_jsonl() == trace.to_jsonl()

    def test_trace_sink_for_negotiates_by_extension(self, tmp_path):
        binary = trace_sink_for(tmp_path / "a.rtb")
        text = trace_sink_for(tmp_path / "a.jsonl")
        try:
            assert isinstance(binary, BinarySink)
            assert isinstance(text, JsonlSink)
        finally:
            binary.close()
            text.close()


# ----------------------------------------------------------------------
# robustness: every corrupted/truncated byte raises TraceError
# ----------------------------------------------------------------------


def _valid_rtb() -> bytes:
    return to_binary(_perturbed_trace(), meta={"provenance": None})


VALID_RTB = _valid_rtb()


def _parse_expecting_trace_error_or_success(payload: bytes):
    """The contract under corruption: a Trace comes back, or TraceError —
    never zlib.error/struct.error/KeyError/UnicodeDecodeError."""
    try:
        return from_binary(payload)
    except TraceError:
        return None


class TestCorruption:
    def test_every_single_byte_flip_is_caught(self):
        """Exhaustive: XOR any one byte of a valid archive and the
        reader must raise TraceError — the CRC layers leave no
        unprotected region."""
        survived = []
        for pos in range(len(VALID_RTB)):
            corrupted = (
                VALID_RTB[:pos]
                + bytes([VALID_RTB[pos] ^ 0xFF])
                + VALID_RTB[pos + 1 :]
            )
            if _parse_expecting_trace_error_or_success(corrupted) is not None:
                survived.append(pos)
        assert survived == [], f"byte flips at {survived} went undetected"

    def test_truncation_at_every_byte_is_caught(self):
        """Unlike JSONL (where line-boundary prefixes parse), a binary
        archive is all-or-nothing: its trailer is the last 16 bytes."""
        for cut in range(len(VALID_RTB)):
            with pytest.raises(TraceError):
                from_binary(VALID_RTB[:cut])
        assert from_binary(VALID_RTB).to_jsonl() == _perturbed_trace().to_jsonl()

    def test_segment_corruption_names_the_segment(self):
        pos = len(MAGIC) + 5  # inside segment 0's compressed stream
        corrupted = bytearray(VALID_RTB)
        corrupted[pos] ^= 0xFF
        with pytest.raises(TraceError, match="segment 0"):
            from_binary(bytes(corrupted))

    def test_index_corruption_names_the_index(self):
        # The index frame sits between the last segment and the trailer;
        # its trailing CRC is the 4 bytes before the 16-byte trailer.
        corrupted = bytearray(VALID_RTB)
        corrupted[-18] ^= 0xFF
        with pytest.raises(TraceError, match="binary trace index"):
            from_binary(bytes(corrupted))

    def test_bad_leading_magic(self):
        with pytest.raises(TraceError, match="bad leading magic"):
            from_binary(b"NOTRTB00" + VALID_RTB[8:])

    def test_bad_trailer_magic(self):
        with pytest.raises(TraceError, match="trailer magic"):
            from_binary(VALID_RTB[:-8] + b"XXXXXXXX")

    def test_tiny_payload(self):
        with pytest.raises(TraceError, match="not a binary trace"):
            from_binary(b"RTB")


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestFuzzBinary:
    """Hypothesis fuzz mirroring the JSONL suite: arbitrary byte edits
    and random legal traces never escape the TraceError/oracle contract."""

    @given(
        pos=st.integers(min_value=0, max_value=len(VALID_RTB) - 1),
        value=st.integers(min_value=0, max_value=255),
    )
    def test_single_byte_corruption(self, pos, value):
        corrupted = VALID_RTB[:pos] + bytes([value]) + VALID_RTB[pos + 1 :]
        trace = _parse_expecting_trace_error_or_success(corrupted)
        if trace is not None:
            assert corrupted == VALID_RTB
            assert trace.to_jsonl() == _perturbed_trace().to_jsonl()

    @given(cut=st.integers(min_value=0, max_value=len(VALID_RTB)))
    def test_truncation_at_any_byte(self, cut):
        trace = _parse_expecting_trace_error_or_success(VALID_RTB[:cut])
        if trace is not None:
            assert cut == len(VALID_RTB)

    @given(garbage=st.binary(min_size=1, max_size=64))
    def test_appended_garbage_is_caught(self, garbage):
        # Appending moves the trailer: the old one is no longer at
        # EOF-16, and the new tail bytes don't end in END_MAGIC (the
        # one exception — garbage that IS a valid trailer pointing at
        # the real index — still fails the index-offset/CRC layers
        # unless it reproduces the original trailer exactly).
        trace = _parse_expecting_trace_error_or_success(VALID_RTB + garbage)
        if trace is not None:
            assert garbage == VALID_RTB[-len(garbage) :]


if HAVE_HYPOTHESIS:
    _uids = st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
        ),
    )
    _edges = st.frozensets(st.tuples(_uids, _uids), max_size=6)

    _round_records = st.builds(
        RoundRecord,
        round=st.integers(min_value=0, max_value=500),
        activations=_edges,
        deactivations=_edges,
        active_edges=st.integers(min_value=0, max_value=2**32),
        activated_edges=st.integers(min_value=0, max_value=2**32),
        connected=st.booleans(),
        barrier_epoch=st.integers(min_value=0, max_value=100),
    )
    _pert_records = st.builds(
        PerturbationRecord,
        round=st.integers(min_value=0, max_value=500),
        drops=_edges,
        adds=_edges,
        crashes=st.tuples(),
        joins=st.lists(
            st.tuples(_uids, st.lists(_uids, max_size=3).map(tuple)),
            max_size=3,
        ).map(tuple),
    )
    _traces = st.builds(
        Trace,
        records=st.lists(_round_records, max_size=20),
        perturbations=st.lists(_pert_records, max_size=6),
    )

    @given(trace=_traces)
    def test_random_legal_traces_roundtrip_byte_identically(trace):
        """Random legal traces — arbitrary round restarts (multi-segment
        seams), empty rounds, perturbations anywhere, int and str uids —
        survive JSONL → binary → JSONL with byte-identical output."""
        assert binary_roundtrip(trace).to_jsonl() == trace.to_jsonl()

    @given(trace=_traces)
    def test_binary_payload_is_deterministic(trace):
        meta = {"provenance": None}
        assert to_binary(trace, meta=meta) == to_binary(
            binary_roundtrip(trace), meta=meta
        )


# ----------------------------------------------------------------------
# parallel offline conformance: verdicts equal the serial audit
# ----------------------------------------------------------------------


def _verdict_tuples(verdicts) -> list:
    return [(v.invariant, v.ok, v.detail) for v in verdicts]


class TestParallelConformance:
    def _archive(self, tmp_path, runs=3, n=24):
        """A multi-segment archive of repeated wreath runs, in both
        formats, plus the graph and invariant names that audit it."""
        spec = get_scenario("wreath")
        graph = graphs.make("ring", n, seed=0)
        traces = [
            run_graph_to_wreath(graph, collect_trace=True).trace
            for _ in range(runs)
        ]
        trace = _concat(*traces)
        rtb = tmp_path / "t.rtb"
        to_binary(trace, rtb)
        jsonl = tmp_path / "t.jsonl"
        trace.to_jsonl(jsonl)
        return spec, graph, trace, rtb, jsonl

    def test_parallel_equals_serial_on_green_archive(self, tmp_path):
        spec, graph, trace, rtb, jsonl = self._archive(tmp_path)
        serial = check_trace(graph, trace, make_checkers(spec.invariants),
                             baselines="restart")
        for source in (rtb, jsonl, trace):
            for jobs in (1, 4):
                parallel = check_trace_parallel(
                    graph, source, spec.invariants, jobs=jobs,
                    baselines="restart",
                )
                assert _verdict_tuples(parallel) == _verdict_tuples(serial)
                assert all(v.ok for v in parallel)

    def test_parallel_equals_serial_on_red_archive(self, tmp_path):
        """Tamper every record; failure details (and the +N-more
        suppression arithmetic) must merge to exactly the serial text."""
        spec, graph, trace, rtb, jsonl = self._archive(tmp_path)
        import dataclasses

        bad = Trace(
            records=[
                dataclasses.replace(r, active_edges=r.active_edges + 1)
                for r in trace.records
            ],
            perturbations=list(trace.perturbations),
        )
        bad_rtb = tmp_path / "bad.rtb"
        to_binary(bad, bad_rtb)
        serial = check_trace(graph, bad, make_checkers(spec.invariants),
                             baselines="restart")
        assert not all(v.ok for v in serial)
        parallel = check_trace_parallel(
            graph, bad_rtb, spec.invariants, jobs=4, baselines="restart"
        )
        assert _verdict_tuples(parallel) == _verdict_tuples(serial)

    def test_chained_baselines_parallel_equals_serial(self, tmp_path):
        spec, graph, trace, rtb, jsonl = self._archive(tmp_path, runs=2)
        serial = check_trace(graph, trace, make_checkers(spec.invariants),
                             baselines="chained")
        parallel = check_trace_parallel(
            graph, rtb, spec.invariants, jobs=2, baselines="chained"
        )
        assert _verdict_tuples(parallel) == _verdict_tuples(serial)

    def test_bad_baselines_value_is_configuration_error(self, tmp_path):
        spec, graph, trace, rtb, jsonl = self._archive(tmp_path, runs=1)
        with pytest.raises(ConfigurationError, match="baselines"):
            check_trace_parallel(
                graph, rtb, spec.invariants, baselines="sideways"
            )

    def test_unknown_invariant_name_fails_fast(self, tmp_path):
        spec, graph, trace, rtb, jsonl = self._archive(tmp_path, runs=1)
        with pytest.raises(ConfigurationError):
            check_trace_parallel(graph, rtb, ["wormhole-legality"])

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_configuration_error(self, tmp_path, jobs):
        spec, graph, trace, rtb, jsonl = self._archive(tmp_path, runs=1)
        with pytest.raises(ConfigurationError, match="jobs"):
            check_trace_parallel(graph, rtb, spec.invariants, jobs=jobs)

    def test_empty_archive_is_green_with_a_pool_size(self, tmp_path):
        """A binary archive of no segments audits green (no replay at
        all) whatever ``jobs`` is; a pool of zero workers is never asked
        for."""
        spec = get_scenario("wreath")
        graph = graphs.make("ring", 8, seed=0)
        rtb = tmp_path / "empty.rtb"
        to_binary(Trace(), rtb)
        for jobs in (1, 2):
            verdicts = check_trace_parallel(graph, rtb, spec.invariants, jobs=jobs)
            assert _verdict_tuples(verdicts) == [
                (name, True, "") for name in spec.invariants
            ]

    def test_red_pipeline_through_the_pool(self, tmp_path):
        """A real pipeline archive, tampered in its second stage, audits
        through a two-worker pool with chained baselines to exactly the
        inline text; the failure names segment 2."""
        import dataclasses

        spec = get_scenario("star+flood")
        graph = graphs.make("line", 24, seed=0)
        buf = io.StringIO()
        spec.runner(graph, observers=[JsonlSink(buf)])
        trace = Trace.from_jsonl(buf.getvalue())
        resets = [i for i, r in enumerate(trace.records) if r.round == 1]
        assert len(resets) == 2
        target = resets[1] + 1
        trace.records[target] = dataclasses.replace(
            trace.records[target],
            active_edges=trace.records[target].active_edges + 3,
        )
        rtb = tmp_path / "pipeline.rtb"
        to_binary(trace, rtb)
        inline = check_trace(graph, trace, make_checkers(spec.invariants))
        assert not all(v.ok for v in inline)
        assert all(
            "segment 2" in v.detail and "segment 1" not in v.detail
            for v in inline if not v.ok
        )
        parallel = check_trace_parallel(
            graph, rtb, spec.invariants, jobs=2, baselines="chained"
        )
        assert _verdict_tuples(parallel) == _verdict_tuples(inline)
