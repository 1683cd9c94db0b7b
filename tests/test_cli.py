"""Tests for the command-line interface."""

import ast
import inspect
import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.registry import get_scenario, registered_algorithms, scenarios


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for spec in scenarios():
            assert spec.name in out

    def test_default_run(self, capsys):
        assert main(["--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "GraphToStar" in out
        assert "total_activations" in out

    @pytest.mark.parametrize("algo", ["wreath", "euler", "clique"])
    def test_each_algorithm(self, capsys, algo):
        assert main(["-a", algo, "-f", "ring", "--n", "16"]) == 0
        assert "rounds" in capsys.readouterr().out

    def test_trace_output(self, capsys):
        assert main(["-a", "star", "--n", "12", "--trace"]) == 0
        assert "activity" in capsys.readouterr().out

    def test_connectivity_flag(self, capsys):
        assert main(["-a", "star", "--n", "12", "--check-connectivity"]) == 0

    def test_cut_in_half_on_line(self, capsys):
        assert main(["-a", "cut-in-half", "-f", "line", "--n", "32"]) == 0

    def test_cut_in_half_rejected_off_family(self, capsys):
        assert main(["-a", "cut-in-half", "-f", "ring", "--n", "16"]) == 2
        assert "only supports families" in capsys.readouterr().err

    def test_negative_seed_is_one_line_error(self, capsys):
        # random.Random seeds with abs(seed): -1 would silently repeat 1.
        assert main(["-a", "star", "-f", "ring", "--n", "16", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro: error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["-a", "nope"])


class TestRegistryDrivenCli:
    """Satellite: --list and all CLI behaviour derive from the registry."""

    def test_list_prints_kind_capabilities_and_paper_ref(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for spec in scenarios():
            assert spec.name in out
            assert spec.kind in out
            assert spec.capabilities() in out
            assert spec.paper in out

    def test_no_scenario_name_literal_in_cli_source(self):
        """Golden: cli.py contains no scenario-name string literal outside
        docstrings — every name, description, capability, and default
        comes from the registry."""
        source = inspect.getsource(cli)
        tree = ast.parse(source)
        docstrings = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc is not None:
                    docstrings.add(doc)
        names = set(registered_algorithms())
        offenders = [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in names
            and node.value not in docstrings
        ]
        assert offenders == [], f"scenario name literals in cli.py: {offenders}"

    def test_no_capability_tuples_outside_registry(self):
        """Golden: the hand-maintained capability tuples are gone."""
        source = inspect.getsource(cli)
        for tombstone in (
            "CENTRALIZED_ALGORITHMS", "ADVERSARY_ALGORITHMS", "DESCRIPTIONS", "ALGORITHMS",
        ):
            assert tombstone not in source

    def test_scenario_param_flag_reaches_runner(self, capsys):
        assert main(["-a", "star-heal", "-f", "ring", "--n", "16", "--strikes", "1"]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out

    def test_scenario_param_rejected_for_incapable(self, capsys):
        assert main(["-a", "star", "--n", "16", "--strikes", "2"]) == 2
        assert "strikes" in capsys.readouterr().err


class TestCompositionCli:
    def test_composition_run(self, capsys):
        assert main(["-a", "star+flood", "-f", "line", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "transform_rounds" in out and "solve_rounds" in out

    def test_composition_trace_prints_stage_activity(self, capsys):
        assert main(["-a", "star+flood", "-f", "line", "--n", "16", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "transform activity" in out and "solve activity" in out

    def test_composition_on_bulk_backend(self, capsys):
        assert main(["-a", "wreath+flood", "-f", "ring", "--n", "16",
                     "--backend", "bulk"]) == 0
        assert "bulk" in capsys.readouterr().out

    def test_composition_sweep(self, capsys):
        assert main([
            "sweep", "-a", "star+flood,flood-baseline", "-f", "line",
            "--sizes", "16", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "solve_rounds" in out


class TestSweepCommand:
    def test_basic_sweep(self, capsys):
        assert main(["sweep", "-a", "star,euler", "-f", "ring", "--sizes", "16", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "star" in out and "euler" in out
        assert "2 cells" in out

    def test_parallel_sweep(self, capsys):
        assert main([
            "sweep", "-a", "star", "-f", "ring,line", "--sizes", "16",
            "--parallel", "--workers", "2", "--quiet",
        ]) == 0
        assert "(parallel)" in capsys.readouterr().out

    def test_sweep_persistence(self, capsys, tmp_path):
        json_path = tmp_path / "rows.json"
        csv_path = tmp_path / "rows.csv"
        assert main([
            "sweep", "-a", "star", "-f", "line", "--sizes", "12",
            "--json", str(json_path), "--csv", str(csv_path), "--quiet",
        ]) == 0
        rows = json.loads(json_path.read_text())
        assert rows[0]["algorithm"] == "star"
        assert csv_path.read_text().startswith("algorithm,")

    def test_sweep_seeds(self, capsys):
        assert main([
            "sweep", "-a", "star", "-f", "ring", "--sizes", "16",
            "--seeds", "0,3", "--quiet",
        ]) == 0
        assert "2 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds", ["-1,1", "1,-1"])
    def test_sweep_negative_seed_fails_fast(self, capsys, seeds):
        # Without the check, -1 and 1 would be two rows of one instance.
        assert main(["sweep", "-a", "star", "-f", "ring", "--sizes", "16",
                     f"--seeds={seeds}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro: error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_sweep_uid_structured_seed_fails_fast(self, capsys):
        assert main(["sweep", "-a", "star", "-f", "line_adversarial",
                     "--sizes", "16", "--seeds=0,1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "UID placement" in err

    def test_sweep_unknown_algorithm_fails_fast(self, capsys):
        assert main(["sweep", "-a", "nope", "--quiet"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_sweep_unknown_family_fails(self, capsys):
        assert main(["sweep", "-a", "star", "-f", "nope", "--quiet"]) == 2

    def test_sweep_family_capability_fails_fast(self, capsys):
        assert main(["sweep", "-a", "cut-in-half", "-f", "ring", "--sizes", "16",
                     "--quiet"]) == 2
        assert "only supports families" in capsys.readouterr().err


class TestSweepResume:
    def test_resume_is_byte_identical(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = [
            "sweep", "-a", "star+flood,flood-baseline", "-f", "line",
            "--sizes", "16,24", "--resume", str(cache), "--quiet",
        ]
        fresh_json = tmp_path / "fresh.json"
        resumed_json = tmp_path / "resumed.json"
        assert main(args + ["--json", str(fresh_json)]) == 0
        cells = sorted((cache / "cells").glob("*.json"))
        assert len(cells) == 4
        for path in cells[:2]:
            path.unlink()
        assert main(args + ["--json", str(resumed_json)]) == 0
        assert resumed_json.read_bytes() == fresh_json.read_bytes()

    def test_resume_creates_manifest(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["sweep", "-a", "star", "-f", "ring", "--sizes", "12",
                     "--resume", str(cache), "--quiet"]) == 0
        manifest = json.loads((cache / "manifest.json").read_text())
        assert manifest["cells"][0]["algorithm"] == "star"


class TestAdversaryFlags:
    def test_heal_run_with_adversary(self, capsys):
        assert main([
            "-a", "star-heal", "-f", "ring", "--n", "16",
            "--adversary", "drop", "--adversary-policy", "reroute",
        ]) == 0
        out = capsys.readouterr().out
        assert "adversary" in out and "recovery" in out

    def test_heal_trace_prints_episode_activity(self, capsys):
        assert main([
            "-a", "star-heal", "-f", "ring", "--n", "16", "--trace",
            "--adversary", "drop", "--adversary-policy", "reroute",
        ]) == 0
        assert "episode 0 activity" in capsys.readouterr().out

    def test_adversary_rejected_for_non_heal_run(self, capsys):
        assert main(["-a", "euler", "-f", "ring", "--n", "16",
                     "--adversary", "drop"]) == 2
        assert "star-heal" in capsys.readouterr().err

    def test_adversary_rejected_for_non_heal_sweep(self, capsys):
        assert main(["sweep", "-a", "star", "-f", "ring", "--sizes", "16",
                     "--adversary", "drop", "--quiet"]) == 2
        assert "not self-stabilizing" in capsys.readouterr().err

    def test_sweep_with_adversary_emits_label_column(self, capsys):
        assert main([
            "sweep", "-a", "star-heal", "-f", "ring", "--sizes", "16",
            "--adversary", "drop", "--adversary-policy", "reroute", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "drop(rate=0.1,seed=1,policy=reroute,start=5,period=5)" in out

    def test_adversary_flag_before_subcommand_is_honored(self, capsys):
        # Regression: the sweep subparser must not clobber adversary flags
        # parsed before the subcommand with its own defaults.
        assert main([
            "--adversary", "drop", "--adversary-policy", "reroute",
            "sweep", "-a", "star-heal", "-f", "ring", "--sizes", "16", "--quiet",
        ]) == 0
        assert "policy=reroute" in capsys.readouterr().out


class TestBackendFlag:
    @staticmethod
    def _assert_clean_usage_error(capsys, code):
        """Exit 2 with the error on one stderr line and no traceback."""
        assert code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "dense" in errors[0], captured.err
        assert "reference" in errors[0] and "bulk" in errors[0]
        assert captured.out == ""

    def test_run_with_dense_backend(self, capsys, monkeypatch):
        """The retired dense backend is a clean usage error, by flag or
        by environment."""
        with pytest.raises(SystemExit) as exc:
            main(["-a", "star", "-f", "ring", "--n", "16", "--backend", "dense"])
        self._assert_clean_usage_error(capsys, exc.value.code)
        monkeypatch.setenv("REPRO_BACKEND", "dense")
        code = main(["-a", "star", "-f", "ring", "--n", "16"])
        self._assert_clean_usage_error(capsys, code)

    def test_run_with_bulk_backend(self, capsys):
        assert main(["-a", "star", "-f", "ring", "--n", "16", "--backend", "bulk"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "bulk" in out

    def test_environment_backend_ignored_for_centralized(self, capsys, monkeypatch):
        # Centralized strategies run no engine, so $REPRO_BACKEND is moot.
        monkeypatch.setenv("REPRO_BACKEND", "dense")
        assert main(["-a", "euler", "-f", "ring", "--n", "16"]) == 0

    def test_run_stamps_resolved_backend_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(["-a", "star", "--n", "12"]) == 0
        assert "reference" in capsys.readouterr().out

    def test_backend_rejected_for_centralized(self, capsys):
        assert main(["-a", "euler", "-f", "ring", "--n", "16", "--backend", "bulk"]) == 2
        assert "centralized" in capsys.readouterr().err

    def test_sweep_backend_rejected_for_centralized(self, capsys):
        assert main(["sweep", "-a", "star,euler", "-f", "ring", "--sizes", "12",
                     "--backend", "bulk", "--quiet"]) == 2
        assert "centralized" in capsys.readouterr().err

    def test_sweep_with_dense_backend(self, capsys, monkeypatch):
        """The retired dense backend is a clean usage error on sweep too."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "-a", "star", "-f", "ring", "--sizes", "12",
                  "--backend", "dense", "--quiet"])
        self._assert_clean_usage_error(capsys, exc.value.code)
        monkeypatch.setenv("REPRO_BACKEND", "dense")
        code = main(["sweep", "-a", "star", "-f", "ring", "--sizes", "12", "--quiet"])
        self._assert_clean_usage_error(capsys, code)

    def test_sweep_with_bulk_backend(self, capsys):
        assert main(["sweep", "-a", "star", "-f", "ring", "--sizes", "12",
                     "--backend", "bulk", "--quiet"]) == 0
        assert "bulk" in capsys.readouterr().out

    def test_root_backend_flag_reaches_sweep(self, capsys):
        # `repro --backend bulk sweep ...` must not be clobbered by the
        # subparser's SUPPRESS default.
        assert main(["--backend", "bulk", "sweep", "-a", "star", "-f", "ring",
                     "--sizes", "12", "--quiet"]) == 0
        assert "bulk" in capsys.readouterr().out

    def test_parser_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu"])


class TestCheckFlag:
    def test_run_check_green(self, capsys):
        assert main(["-a", "star", "-f", "ring", "--n", "24", "--check"]) == 0
        out = capsys.readouterr().out
        assert "invariants" in out and "connectivity" in out and "ok" in out

    def test_run_check_red_exits_nonzero(self, capsys):
        from repro.registry import ScenarioSpec, get_scenario, register_scenario, unregister_scenario

        register_scenario(ScenarioSpec(
            "busted-clique", get_scenario("clique").runner, "distributed",
            description="clique under a linear edge budget",
            invariants=("edges:linear",),
        ))
        try:
            assert main(["-a", "busted-clique", "-f", "ring", "--n", "128", "--check"]) == 1
            assert "FAIL" in capsys.readouterr().out
        finally:
            unregister_scenario("busted-clique")

    def test_sweep_check_stamps_columns_and_exits_zero(self, capsys):
        assert main(["sweep", "-a", "star,euler", "-f", "ring", "--sizes", "16",
                     "--check", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "inv_connectivity" in out and "inv_temporal-legality" in out

    def test_sweep_check_red_exits_nonzero(self, capsys):
        from repro.registry import ScenarioSpec, get_scenario, register_scenario, unregister_scenario

        register_scenario(ScenarioSpec(
            "busted-clique", get_scenario("clique").runner, "distributed",
            description="clique under a linear edge budget",
            invariants=("edges:linear",),
        ))
        try:
            assert main(["sweep", "-a", "busted-clique", "-f", "ring",
                         "--sizes", "128", "--check", "--quiet"]) == 1
            assert "invariant violated" in capsys.readouterr().err
        finally:
            unregister_scenario("busted-clique")

    def test_check_before_subcommand_is_honored(self, capsys):
        assert main(["--check", "sweep", "-a", "star", "-f", "ring",
                     "--sizes", "16", "--quiet"]) == 0
        assert "inv_connectivity" in capsys.readouterr().out


class TestTraceOut:
    def test_trace_out_streams_jsonl(self, capsys, tmp_path):
        from repro.engine import Trace

        path = tmp_path / "trace.jsonl"
        assert main(["-a", "star", "-f", "ring", "--n", "16",
                     "--trace-out", str(path)]) == 0
        trace = Trace.from_jsonl(path)
        assert len(trace) > 0
        assert trace.records[-1].round == len(trace)

    def test_trace_out_matches_collect_trace(self, capsys, tmp_path):
        from repro.core import run_graph_to_star
        from repro.graphs import families

        path = tmp_path / "trace.jsonl"
        assert main(["-a", "star", "-f", "ring", "--n", "16",
                     "--trace-out", str(path)]) == 0
        res = run_graph_to_star(families.make("ring", 16), collect_trace=True)
        assert path.read_text() == res.trace.to_jsonl()

    def test_trace_out_multi_stage_concatenates(self, capsys, tmp_path):
        path = tmp_path / "stages.jsonl"
        assert main(["-a", "star+flood", "-f", "line", "--n", "16",
                     "--trace-out", str(path)]) == 0
        payload = path.read_text()
        # Two stages, each restarting at round 1.
        assert payload.count('"round": 1, "type": "round"') == 2
        from repro.engine import Trace

        Trace.from_jsonl(path)  # parses cleanly

    def test_trace_out_works_for_centralized(self, capsys, tmp_path):
        path = tmp_path / "euler.jsonl"
        assert main(["-a", "euler", "-f", "ring", "--n", "24",
                     "--trace-out", str(path)]) == 0
        assert path.read_text().startswith('{"')

    def test_trace_prints_without_materializing(self, capsys):
        # --trace and --trace-out together still stream (no collect_trace).
        assert main(["-a", "star", "--n", "12", "--trace"]) == 0
        assert "activity" in capsys.readouterr().out


class TestBinaryTraceCli:
    """--trace-out format negotiation plus the check-trace subcommand."""

    def _run_archive(self, tmp_path, name="run.rtb"):
        path = tmp_path / name
        assert main(["-a", "wreath", "-f", "ring", "--n", "24",
                     "--trace-out", str(path)]) == 0
        return path

    def test_rtb_extension_writes_binary(self, capsys, tmp_path):
        from repro.core import run_graph_to_wreath
        from repro.engine import from_binary, load_trace
        from repro.engine.tracebin import is_binary_trace
        from repro.graphs import families

        path = self._run_archive(tmp_path)
        assert is_binary_trace(path)
        res = run_graph_to_wreath(families.make("ring", 24), collect_trace=True)
        assert from_binary(path).to_jsonl() == res.trace.to_jsonl()
        assert load_trace(path).to_jsonl() == res.trace.to_jsonl()
        # And measurably smaller than the JSONL twin.
        assert path.stat().st_size < len(res.trace.to_jsonl())

    def test_check_trace_green_archive(self, capsys, tmp_path):
        path = self._run_archive(tmp_path)
        assert main(["check-trace", str(path), "-a", "wreath", "-f", "ring",
                     "--n", "24", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "offline audit" in out and "ok" in out

    def test_check_trace_reads_jsonl_too(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["-a", "wreath", "-f", "ring", "--n", "24",
                     "--trace-out", str(path)]) == 0
        assert main(["check-trace", str(path), "-a", "wreath", "-f", "ring",
                     "--n", "24"]) == 0

    def test_check_trace_red_archive_exits_1(self, capsys, tmp_path):
        import dataclasses

        from repro.core import run_graph_to_wreath
        from repro.engine import to_binary
        from repro.engine.trace import Trace
        from repro.graphs import families

        res = run_graph_to_wreath(families.make("ring", 24), collect_trace=True)
        bad = Trace(records=[
            dataclasses.replace(r, active_edges=r.active_edges + 1)
            for r in res.trace.records
        ])
        path = tmp_path / "bad.rtb"
        to_binary(bad, path)
        assert main(["check-trace", str(path), "-a", "wreath", "-f", "ring",
                     "--n", "24"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_trace_corrupt_archive_exits_2(self, capsys, tmp_path):
        path = self._run_archive(tmp_path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["check-trace", str(path), "-a", "wreath", "-f", "ring",
                     "--n", "24"]) == 2
        assert "segment" in capsys.readouterr().err

    def test_check_trace_restart_baselines(self, capsys, tmp_path):
        path = self._run_archive(tmp_path)
        assert main(["check-trace", str(path), "-a", "wreath", "-f", "ring",
                     "--n", "24", "--baselines", "restart"]) == 0

    def test_sweep_trace_out_template_writes_per_cell(self, capsys, tmp_path):
        from repro.engine import load_trace

        template = str(tmp_path / "{algorithm}-{family}-{n}.rtb")
        assert main(["sweep", "-a", "star", "-f", "ring,line",
                     "--sizes", "16", "--trace-out", template,
                     "--quiet"]) == 0
        for family in ("ring", "line"):
            path = tmp_path / f"star-{family}-16.rtb"
            assert path.exists(), family
            assert len(load_trace(path)) > 0

    def test_sweep_trace_out_clashing_template_exits_2(self, capsys, tmp_path):
        template = str(tmp_path / "all.rtb")
        assert main(["sweep", "-a", "star", "-f", "ring,line",
                     "--sizes", "16", "--trace-out", template,
                     "--quiet"]) == 2
        assert "cells onto" in capsys.readouterr().err


class TestSweepTier:
    def test_large_tier_grid_is_registry_derived(self, capsys):
        # Override sizes to keep the test fast; the tier supplies the
        # algorithm list (subquadratic transforms) and families.
        assert main(["sweep", "--tier", "large", "--sizes", "24", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "star" in out and "wreath" in out and "thin-wreath" in out
        assert "clique" not in out  # quadratic budget: excluded at scale
        assert "gnp" in out and "ring" in out

    def test_explicit_flags_override_tier(self, capsys):
        assert main(["sweep", "--tier", "large", "-a", "star", "-f", "ring",
                     "--sizes", "16", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 cells" in out

    def test_unknown_tier_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--tier", "galactic"])

    def test_xlarge_tier_excludes_quadratic_state(self, capsys):
        # The xlarge grid selects log-round, bulk-capable scenarios whose
        # state stays subquadratic.  Flood-style scenarios — including
        # star+leader, whose solve stage floods all n UIDs — are Θ(n²)
        # information and must never enter the n=1e5 tier (they exhaust
        # memory on any backend).  Sizes overridden to keep the test fast;
        # the algorithm list and bulk backend preset come from the tier.
        from repro.cli import SWEEP_TIERS
        from repro.registry import get_scenario

        algorithms = SWEEP_TIERS["xlarge"]["algorithms"]()
        assert "star" in algorithms
        for name in algorithms:
            spec = get_scenario(name)
            assert spec.supports_bulk and not spec.quadratic_state
        for flooder in ("star+flood", "wreath+flood", "flood-baseline",
                        "star+leader"):
            assert flooder not in algorithms
            assert get_scenario(flooder).quadratic_state
        assert main(["sweep", "--tier", "xlarge", "--sizes", "64",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "bulk" in out and "leader" not in out

    def test_scale_tiers_exclude_clique(self):
        # clique is bulk-capable (bulk's per-node loop runs it) but its
        # Θ(n²) edges mark it quadratic_state, which keeps it out of both
        # scale tiers.
        from repro.cli import SWEEP_TIERS
        from repro.registry import get_scenario

        spec = get_scenario("clique")
        assert spec.supports_bulk and spec.quadratic_state
        for tier in ("xlarge", "xxlarge"):
            assert "clique" not in SWEEP_TIERS[tier]["algorithms"]()

    def test_clique_runs_on_bulk_per_node_loop(self, capsys):
        assert main(["-a", "clique", "-f", "ring", "--n", "16",
                     "--backend", "bulk", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "bulk" in out and "pernode:" in out

    def test_default_sweep_grid_unchanged(self, capsys):
        assert main(["sweep", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "star" in out and "line" in out


class TestProfileFlag:
    def test_run_profile_prints_tables(self, capsys):
        assert main(["-a", "star", "-f", "ring", "--n", "24", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile" in out and "per-phase breakdown" in out
        assert "round_mean_us" in out and "dispatch" in out and "gc_ms" in out
        # the star construction is 5-round phased: all positions appear
        for phase in ("r0", "r1", "r2", "r3", "r4"):
            assert phase in out

    def test_profile_out_writes_run_profile_json(self, capsys, tmp_path):
        from repro.telemetry import PROFILE_SCHEMA, RunProfile

        path = tmp_path / "profile.json"
        # --profile-out alone implies --profile
        assert main(["-a", "wreath", "-f", "ring", "--n", "16",
                     "--backend", "bulk", "--profile-out", str(path)]) == 0
        assert "profile" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["schema"] == PROFILE_SCHEMA
        prof = RunProfile.from_dict(payload)
        assert prof.rounds > 0 and prof.backend == "bulk"
        # sparse rounds plus the wreath REBUILD segments' assist rounds
        assert set(prof.dispatch) == {"sparse", "assist"}
        assert sum(prof.dispatch.values()) == prof.rounds

    def test_profile_composes_with_check_and_trace_out(self, capsys, tmp_path):
        from repro.core import run_graph_to_star
        from repro.graphs import families as _families

        trace_path = tmp_path / "trace.jsonl"
        prof_path = tmp_path / "profile.json"
        assert main(["-a", "star", "-f", "ring", "--n", "16", "--check",
                     "--trace-out", str(trace_path),
                     "--profile-out", str(prof_path)]) == 0
        out = capsys.readouterr().out
        assert "invariants" in out and "ok" in out  # --check verdicts
        assert "per-phase breakdown" in out  # --profile tables
        # the streamed trace stays byte-identical with telemetry attached
        res = run_graph_to_star(_families.make("ring", 16), collect_trace=True)
        assert trace_path.read_text() == res.trace.to_jsonl()
        assert json.loads(prof_path.read_text())["rounds"] == res.metrics.rounds

    def test_profile_on_centralized_scenario(self, capsys, tmp_path):
        # The centralized executor probes every round it commits.
        prof_path = tmp_path / "profile.json"
        assert main(["-a", "euler", "-f", "ring", "--n", "24",
                     "--profile-out", str(prof_path)]) == 0
        prof = json.loads(prof_path.read_text())
        assert prof["rounds"] > 0
        assert prof["dispatch"] == {"centralized": prof["rounds"]}
        assert "centralized" in capsys.readouterr().out

    def test_sweep_profile_stamps_columns(self, capsys):
        assert main(["sweep", "-a", "star,wreath", "-f", "ring", "--sizes", "16",
                     "--profile", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "prof_wall_ms" in out and "prof_dispatch" in out

    def test_profile_before_subcommand_is_honored(self, capsys):
        assert main(["--profile", "sweep", "-a", "star", "-f", "ring",
                     "--sizes", "16", "--quiet"]) == 0
        assert "prof_wall_ms" in capsys.readouterr().out


class TestSweepProgress:
    def test_progress_reports_cells_to_stderr(self, capsys):
        assert main(["sweep", "-a", "star", "-f", "ring", "--sizes", "16,24",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[sweep] 1/2 cells" in err and "[sweep] 2/2 cells" in err
        assert "elapsed" in err

    def test_quiet_beats_progress_and_tier_heartbeat(self, capsys):
        assert main(["sweep", "-a", "star", "-f", "ring", "--sizes", "16",
                     "--progress", "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_tier_presets_enable_heartbeat(self):
        from repro.cli import SWEEP_TIERS

        # minutes-long tiers must never be silent by default (--quiet
        # remains the opt-out); see the xlarge-silence fix in this PR.
        assert SWEEP_TIERS["large"]["heartbeat"] is True
        assert SWEEP_TIERS["xlarge"]["heartbeat"] is True


class TestCheckTraceErrorRouting:
    """Exit-code contract for ``check-trace``: 0 green, 1 red, 2 when the
    archive or configuration is unusable — always a one-line stderr
    message, never a traceback."""

    ARGS = ["-a", "wreath", "-f", "ring", "--n", "24"]

    def _archive(self, tmp_path, name="run.rtb"):
        path = tmp_path / name
        assert main(["-a", "wreath", "-f", "ring", "--n", "24",
                     "--trace-out", str(path)]) == 0
        return path

    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() and "\n" not in err.strip()
        return err

    def test_missing_archive_exits_2(self, capsys, tmp_path):
        assert main(["check-trace", str(tmp_path / "nope.rtb"),
                     *self.ARGS]) == 2
        self._assert_one_line_error(capsys)

    def test_directory_archive_exits_2(self, capsys, tmp_path):
        assert main(["check-trace", str(tmp_path), *self.ARGS]) == 2
        self._assert_one_line_error(capsys)

    def test_truncated_jsonl_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(["-a", "wreath", "-f", "ring", "--n", "24",
                     "--trace-out", str(path)]) == 0
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert main(["check-trace", str(path), *self.ARGS]) == 2
        self._assert_one_line_error(capsys)

    def test_corrupt_rtb_exits_2_without_traceback(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["check-trace", str(path), *self.ARGS]) == 2
        self._assert_one_line_error(capsys)

    def test_perturbed_multisegment_jsonl_exits_2(self, capsys, tmp_path):
        """Flattened JSONL loses the segment association of perturbation
        records; the audit must refuse (ConfigurationError -> 2), not
        silently mis-attribute the strikes."""
        from repro.core import run_graph_to_wreath
        from repro.engine.trace import PerturbationRecord, Trace
        from repro.graphs import families

        res = run_graph_to_wreath(families.make("ring", 24),
                                  collect_trace=True)
        t = Trace(records=list(res.trace.records))
        t.append_perturbation(PerturbationRecord(
            round=len(t.records), drops=frozenset(), adds=frozenset(),
            crashes=(3,), joins=()))
        t.records.extend(res.trace.records)
        path = tmp_path / "pert.jsonl"
        path.write_text(t.to_jsonl())
        assert main(["check-trace", str(path), *self.ARGS]) == 2
        err = self._assert_one_line_error(capsys)
        assert "multi-segment" in err

    def test_bad_n_exits_2(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        assert main(["check-trace", str(path), "-a", "wreath", "-f", "line",
                     "--n", "0"]) == 2
        err = self._assert_one_line_error(capsys)
        assert "n must be" in err

    def test_bad_baselines_rejected_by_argparse(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["check-trace", str(path), *self.ARGS,
                  "--baselines", "bogus"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_scenario_without_invariants_exits_2(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        code = main(["check-trace", str(path), "-a", "cut-in-half",
                     "-f", "line", "--n", "24"])
        err = capsys.readouterr().err
        if code == 2:
            assert "no invariants" in err and "Traceback" not in err
        else:  # every scenario declares invariants today
            assert code in (0, 1)

    def test_mismatched_scenario_is_red_not_crash(self, capsys, tmp_path):
        """Auditing against the wrong n is a *verdict* failure (exit 1),
        not an error route."""
        path = self._archive(tmp_path)
        assert main(["check-trace", str(path), "-a", "wreath", "-f", "ring",
                     "--n", "16"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


#: Bad input that is only caught past argparse; ``{missing}`` is a path
#: under a directory that does not exist and ``{dir}`` an existing
#: directory.
_USAGE_ERRORS = {
    "reseeded-increasing-ring": ["-a", "star", "-f", "increasing_ring",
                                 "--n", "16", "--seed", "2"],
    "negative-strikes": ["-a", "star-heal", "-f", "ring", "--n", "16",
                         "--strikes", "-1"],
    "churn-rate-run": ["-a", "star-heal", "-f", "ring", "--n", "16",
                       "--adversary", "drop", "--churn-rate", "2"],
    "churn-rate-sweep": ["sweep", "-a", "star-heal", "-f", "ring",
                         "--sizes", "16", "--adversary", "drop",
                         "--churn-rate", "2", "--quiet"],
    "trace-out-missing-dir": ["-a", "star", "-f", "ring", "--n", "16",
                              "--trace-out", "{missing}"],
    "profile-out-missing-dir": ["-a", "star", "-f", "ring", "--n", "16",
                                "--profile-out", "{missing}"],
    "profile-out-directory": ["-a", "star", "-f", "ring", "--n", "16",
                              "--profile-out", "{dir}"],
    "sweep-json-missing-dir": ["sweep", "-a", "star", "-f", "ring",
                               "--sizes", "16", "--json", "{missing}",
                               "--quiet"],
    "sweep-csv-directory": ["sweep", "-a", "star", "-f", "ring",
                            "--sizes", "16", "--csv", "{dir}", "--quiet"],
    "grid-negative-n": ["-a", "star", "-f", "grid", "--n", "-4"],
}


@pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
def test_usage_error_is_one_line_exit_2(argv, capsys, tmp_path):
    """Each of these exits 2 with one ``repro: error:`` line, no
    traceback and no table; an output path is rejected before the run,
    so nothing is written."""
    missing = tmp_path / "no-such-dir" / "out"
    argv = [a.format(missing=missing, dir=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("repro: error: ")
    assert captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


_POOL_SIZES_BELOW_ONE = {
    "sweep-workers-0": ["sweep", "-a", "star", "-f", "ring", "--sizes", "16",
                        "--quiet", "--parallel", "--workers", "0"],
    "check-trace-jobs-0": ["check-trace", "{archive}", "-a", "star", "-f", "ring",
                           "--n", "16", "--jobs", "0"],
    "check-trace-jobs-negative": ["check-trace", "{archive}", "-a", "star",
                                  "-f", "ring", "--n", "16", "--jobs", "-1"],
}


@pytest.mark.parametrize(
    "argv", _POOL_SIZES_BELOW_ONE.values(), ids=_POOL_SIZES_BELOW_ONE.keys()
)
def test_pool_size_below_one_is_a_usage_error(argv, capsys, tmp_path):
    """``--workers`` and ``--jobs`` below 1 are rejected by the parser:
    exit 2 with one error line naming the flag, no traceback, before any
    cell runs or any archive is read (the archive does not exist)."""
    argv = [a.format(archive=tmp_path / "missing.rtb") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    flag, value = argv[-2:]
    assert errors == [
        f"repro {argv[0]}: error: argument {flag}: must be at least 1, got {value}"
    ], captured.err
    assert captured.out == ""
