"""Tests for the SweepPlan subsystem (registry tests: test_registry.py)."""

import csv
import json

import pytest

from repro.analysis import (
    SweepCell,
    SweepPlan,
    SweepResult,
    cell_key,
    get_algorithm,
    registered_algorithms,
)
from repro.core import run_graph_to_star
from repro.errors import ConfigurationError
from repro.graphs import families
from repro.problems import run_flood_baseline


def _flood_impostor(graph, **kwargs):
    """Module-level (picklable) stand-in: far cheaper than GraphToStar."""
    return run_flood_baseline(graph, **kwargs)


class TestRegistryCompat:
    """The analysis layer re-exports the registry's resolution API."""

    def test_defaults_present(self):
        names = registered_algorithms()
        for name in ("star", "wreath", "thin-wreath", "clique", "euler", "cut-in-half"):
            assert name in names

    def test_get_algorithm_resolves(self):
        assert get_algorithm("star") is run_graph_to_star

    def test_unknown_algorithm_clear_error(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            get_algorithm("no-such-algo")

    def test_registered_scenario_resolves_through_analysis(self):
        from repro.registry import ScenarioSpec, register_scenario, unregister_scenario

        register_scenario(ScenarioSpec(
            "sweep-alias-for-test", run_graph_to_star, "distributed",
            description="star alias",
        ))
        try:
            assert get_algorithm("sweep-alias-for-test") is run_graph_to_star
            assert "sweep-alias-for-test" in registered_algorithms()
        finally:
            unregister_scenario("sweep-alias-for-test")


class TestPlan:
    def test_grid_cross_product_order(self):
        plan = SweepPlan.grid(["star", "euler"], ["ring", "line"], [8, 16], seeds=(0, 1))
        assert len(plan) == 16
        assert plan.cells[0] == SweepCell("star", "ring", 8, 0)
        assert plan.cells[1] == SweepCell("star", "ring", 8, 1)
        assert plan.cells[-1] == SweepCell("euler", "line", 16, 1)

    def test_serial_run_rows_in_plan_order(self):
        plan = SweepPlan.grid(["star"], ["line"], [8, 16])
        result = plan.run()
        assert [(r.algorithm, r.family, r.n) for r in result.rows] == [
            ("star", "line", 8),
            ("star", "line", 16),
        ]

    def test_parallel_is_byte_identical_to_serial(self):
        plan = SweepPlan.grid(["star", "euler"], ["ring", "line"], [16, 24])
        serial = plan.run()
        parallel = plan.run(parallel=True, max_workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_parallel_with_seeds_byte_identical(self):
        plan = SweepPlan.grid(["star"], ["ring"], [16], seeds=(0, 3, 7))
        serial = plan.run()
        parallel = plan.run(parallel=True, max_workers=2)
        assert serial.to_json() == parallel.to_json()
        # Non-zero seeds are recorded in the rows.
        assert serial.rows[1].extra["seed"] == 3

    def test_runner_kwargs_forwarded(self):
        plan = SweepPlan.grid(
            ["star"], ["line"], [12], runner_kwargs={"check_connectivity": True}
        )
        assert len(plan.run().rows) == 1

    def test_progress_callback(self):
        seen = []
        plan = SweepPlan.grid(["star"], ["line"], [8, 12])
        plan.run(progress=lambda done, total, cell: seen.append((done, total, cell.n)))
        assert seen == [(1, 2, 8), (2, 2, 12)]

    def test_custom_runner_dict(self):
        plan = SweepPlan.grid({"mine": run_graph_to_star}, ["line"], [8])
        rows = plan.run().rows
        assert rows[0].algorithm == "mine"


class TestPersistence:
    def _result(self) -> SweepResult:
        return SweepPlan.grid(["star"], ["line"], [8, 12]).run()

    def test_json_roundtrip(self, tmp_path):
        result = self._result()
        path = tmp_path / "rows.json"
        payload = result.to_json(path)
        assert json.loads(payload) == result.as_dicts()
        assert json.loads(path.read_text()) == result.as_dicts()

    def test_csv_roundtrip(self, tmp_path):
        result = self._result()
        path = tmp_path / "rows.csv"
        result.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "star"
        assert int(rows[1]["n"]) == 12


class TestSeededFamilies:
    def test_mixed_seeds_stamp_every_row(self):
        result = SweepPlan.grid(["star"], ["ring"], [16], seeds=(0, 3)).run()
        assert [r.as_dict().get("seed") for r in result.rows] == [0, 3]

    def test_seed_zero_is_stamped_unconditionally(self):
        # Regression: `if cell.seed:` silently dropped seed 0, leaving
        # mixed-seed tables ragged; every row now records its seed.
        for algorithm in ("star", "euler", "star+flood"):
            result = SweepPlan.grid([algorithm], ["ring"], [12]).run()
            assert result.rows[0].extra["seed"] == 0
            assert result.rows[0].as_dict()["seed"] == 0

    def test_uid_structured_family_rejects_seed(self):
        with pytest.raises(ConfigurationError, match="UID placement"):
            families.make("line_adversarial", 16, seed=2)
        with pytest.raises(ConfigurationError, match="UID placement"):
            families.make("increasing_ring", 16, seed=2)
        # seed=0 stays fine.
        assert families.make("increasing_ring", 16).number_of_nodes() >= 16

    def test_seed_zero_is_canonical(self):
        a = families.make("ring", 16)
        b = families.make("ring", 16, seed=0)
        assert set(a.edges()) == set(b.edges())

    def test_seed_is_deterministic_and_distinct(self):
        a = families.make("ring", 16, seed=5)
        b = families.make("ring", 16, seed=5)
        c = families.make("ring", 16, seed=6)
        assert set(a.edges()) == set(b.edges())
        assert set(a.edges()) != set(c.edges())


class TestRunnerMapping:
    """A grid over a ``{label: runner}`` mapping of unregistered runners."""

    def test_rows_carry_the_mapping_labels(self):
        rows = SweepPlan.grid({"g2s": run_graph_to_star}, ["line"], [8, 16]).run().rows
        assert len(rows) == 2
        assert rows[0].algorithm == "g2s"

    def test_parallel_rows_equal_serial(self):
        plan = SweepPlan.grid({"g2s": run_graph_to_star}, ["line"], [8, 16])
        serial = plan.run().rows
        parallel = plan.run(parallel=True, max_workers=2).rows
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]


class TestAdversarySweeps:
    def test_heal_scenarios_registered(self):
        names = registered_algorithms()
        assert "star-heal" in names and "wreath-heal" in names

    def test_perturbed_cells_carry_spec_and_label(self):
        from repro.dynamics import AdversarySpec

        spec = AdversarySpec("drop", rate=0.2, seed=3, policy="reroute")
        plan = SweepPlan.grid(["star-heal"], ["ring"], [16], adversary=spec)
        assert all(cell.adversary == spec for cell in plan.cells)
        result = plan.run()
        assert result.rows[0].extra["adversary"] == spec.label()

    def test_perturbed_parallel_sweep_byte_identical_to_serial(self):
        from repro.dynamics import AdversarySpec

        spec = AdversarySpec("drop", rate=0.2, seed=3, policy="reroute")
        plan = SweepPlan.grid(
            ["star-heal"], ["ring", "line"], [12, 16], adversary=spec
        )
        serial = plan.run()
        parallel = plan.run(parallel=True, max_workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_unperturbed_cells_have_no_adversary_column(self):
        result = SweepPlan.grid(["star"], ["ring"], [12]).run()
        assert "adversary" not in result.rows[0].as_dict()


class TestBackendSweeps:
    def test_backend_stamped_on_engine_rows(self):
        result = SweepPlan.grid(["star"], ["ring"], [12], backend="bulk").run()
        assert result.rows[0].extra["backend"] == "bulk"
        assert result.as_dicts()[0]["backend"] == "bulk"

    def test_default_backend_stamped_as_resolved(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        result = SweepPlan.grid(["star"], ["ring"], [12]).run()
        assert result.rows[0].extra["backend"] == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "bulk")
        result = SweepPlan.grid(["star"], ["ring"], [12]).run()
        assert result.rows[0].extra["backend"] == "bulk"

    def test_centralized_rows_have_no_backend_column(self):
        result = SweepPlan.grid(["euler"], ["ring"], [12]).run()
        assert "backend" not in result.rows[0].as_dict()

    def test_backend_on_centralized_cell_rejected(self):
        plan = SweepPlan.grid(["euler"], ["ring"], [12], backend="bulk")
        with pytest.raises(ConfigurationError, match="centralized"):
            plan.run()

    def test_backends_sweep_to_identical_measurements(self):
        ref = SweepPlan.grid(["star", "wreath"], ["ring"], [16], backend="reference").run()
        bulk = SweepPlan.grid(["star", "wreath"], ["ring"], [16], backend="bulk").run()
        for a, b in zip(ref.as_dicts(), bulk.as_dicts()):
            a.pop("backend"), b.pop("backend")
            assert a == b

    def test_backend_column_in_format_table(self):
        from repro.analysis import format_table

        result = SweepPlan.grid(["star"], ["ring"], [12], backend="bulk").run()
        table = format_table(result.as_dicts())
        assert "backend" in table.splitlines()[0]
        assert "bulk" in table

    def test_parallel_bulk_sweep_byte_identical_to_serial(self):
        plan = SweepPlan.grid(["star"], ["ring", "line"], [12, 16], backend="bulk")
        assert plan.run().to_json() == plan.run(parallel=True, max_workers=2).to_json()


class TestCompositionSweeps:
    def test_pipeline_rows_carry_stage_columns(self):
        result = SweepPlan.grid(["star+flood"], ["line"], [24]).run()
        row = result.rows[0].as_dict()
        assert row["transform_rounds"] + row["solve_rounds"] == row["rounds"]
        assert (
            row["transform_activations"] + row["solve_activations"]
            == row["total_activations"]
        )

    def test_single_stage_baseline_has_solve_columns_only(self):
        row = SweepPlan.grid(["flood-baseline"], ["line"], [16]).run().rows[0].as_dict()
        assert row["solve_rounds"] == row["rounds"] == 16
        assert "transform_rounds" not in row

    def test_family_capability_enforced_in_cells(self):
        plan = SweepPlan.grid(["cut-in-half"], ["ring"], [12])
        with pytest.raises(ConfigurationError, match="only supports families"):
            plan.run()

    def test_trace_capability_enforced_per_cell(self):
        from repro.registry import ScenarioSpec, register_scenario, unregister_scenario

        plan = SweepPlan.grid(["star"], ["ring"], [12],
                              runner_kwargs={"collect_trace": True})
        assert len(plan.run().rows) == 1  # star supports traces
        register_scenario(ScenarioSpec(
            "traceless-for-test", run_graph_to_star, "distributed",
            supports_trace=False,
        ))
        try:
            traceless = SweepPlan.grid(["traceless-for-test"], ["ring"], [12],
                                       runner_kwargs={"collect_trace": True})
            with pytest.raises(ConfigurationError, match="supports_trace"):
                traceless.run()
        finally:
            unregister_scenario("traceless-for-test")

    def test_adversary_on_composition_cell_rejected(self):
        from repro.dynamics import AdversarySpec

        plan = SweepPlan.grid(
            ["star+flood"], ["ring"], [12],
            adversary=AdversarySpec("drop", policy="reroute"),
        )
        with pytest.raises(ConfigurationError, match="not self-stabilizing"):
            plan.run()

    def test_composition_parallel_byte_identical(self):
        plan = SweepPlan.grid(
            ["star+flood", "flood-baseline"], ["line", "ring"], [16]
        )
        assert plan.run().to_json() == plan.run(parallel=True, max_workers=2).to_json()

    def test_composition_beats_flooding_on_line(self):
        """Section 1.3 payoff, as a sweep would measure it."""
        rows = SweepPlan.grid(["star+flood", "flood-baseline"], ["line"], [256]).run().rows
        composed, baseline = rows
        assert composed.rounds < baseline.rounds


class TestResumableSweeps:
    def _plan(self):
        return SweepPlan.grid(["star", "euler", "star+flood"], ["ring", "line"], [12, 16])

    def test_fresh_run_writes_manifest_and_cells(self, tmp_path):
        plan = self._plan()
        result = plan.run(resume_dir=tmp_path / "cache")
        manifest = json.loads((tmp_path / "cache" / "manifest.json").read_text())
        assert len(manifest["cells"]) == len(plan) == len(result.rows)
        assert len(list((tmp_path / "cache" / "cells").glob("*.json"))) == len(plan)
        # Manifest keys match the keyed cell files, in plan order.
        keys = [c["key"] for c in manifest["cells"]]
        for key in keys:
            assert (tmp_path / "cache" / "cells" / f"{key}.json").exists()

    def test_resume_after_deleting_half_is_byte_identical(self, tmp_path):
        plan = self._plan()
        fresh = plan.run(resume_dir=tmp_path / "cache").to_json()
        cells = sorted((tmp_path / "cache" / "cells").glob("*.json"))
        for path in cells[: len(cells) // 2]:
            path.unlink()
        resumed = plan.run(resume_dir=tmp_path / "cache").to_json()
        assert resumed == fresh
        # And a cold fresh run (no cache at all) agrees byte for byte.
        assert plan.run().to_json() == fresh

    def test_resume_executes_only_missing_cells(self, tmp_path, monkeypatch):
        from repro.analysis import sweep as sweep_mod

        plan = self._plan()
        plan.run(resume_dir=tmp_path / "cache")
        executed = []
        real = sweep_mod._execute_cell

        def counting(cell, spec, kwargs, check=False, profile=False,
                     heartbeat_s=0.0, trace_out=None):
            executed.append(cell)
            return real(cell, spec, kwargs, check, profile, heartbeat_s, trace_out)

        monkeypatch.setattr(sweep_mod, "_execute_cell", counting)
        plan.run(resume_dir=tmp_path / "cache")
        assert executed == []  # fully cached
        victim = next((tmp_path / "cache" / "cells").glob("*.json"))
        victim.unlink()
        plan.run(resume_dir=tmp_path / "cache")
        assert len(executed) == 1

    def test_parallel_resume_byte_identical(self, tmp_path):
        plan = self._plan()
        fresh = plan.run(resume_dir=tmp_path / "cache").to_json()
        cells = sorted((tmp_path / "cache" / "cells").glob("*.json"))
        for path in cells[::2]:
            path.unlink()
        resumed = plan.run(
            parallel=True, max_workers=2, resume_dir=tmp_path / "cache"
        ).to_json()
        assert resumed == fresh

    def test_cache_key_covers_kwargs_backend_and_version(self, monkeypatch):
        from repro.registry import ScenarioSpec, get_scenario

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        spec = get_scenario("star")
        cell = SweepCell("star", "ring", 16)
        base = cell_key(spec, cell, {})
        assert base == cell_key(spec, cell, {})  # deterministic
        assert base != cell_key(spec, cell, {"check_connectivity": True})
        assert base != cell_key(spec, SweepCell("star", "ring", 16, seed=3), {})
        assert base != cell_key(spec, SweepCell("star", "ring", 16, backend="bulk"), {})
        bumped = ScenarioSpec(
            spec.name, spec.runner, spec.kind, description=spec.description,
            version=spec.version + 1,
        )
        assert base != cell_key(bumped, cell, {})

    def test_cache_key_resolves_default_backend(self, monkeypatch):
        """A sweep re-run under a different REPRO_BACKEND must re-execute
        rather than return the other engine's cached rows."""
        from repro.registry import get_scenario

        spec = get_scenario("star")
        cell = SweepCell("star", "ring", 16)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        ref_key = cell_key(spec, cell, {})
        monkeypatch.setenv("REPRO_BACKEND", "bulk")
        assert cell_key(spec, cell, {}) != ref_key
        assert cell_key(spec, SweepCell("star", "ring", 16, backend="bulk"), {}) == cell_key(spec, cell, {})

    def test_uncacheable_runner_kwargs_clear_error(self):
        from repro.registry import get_scenario

        class Opaque:  # no JSON form, not callable
            pass

        with pytest.raises(ConfigurationError, match="not cacheable"):
            cell_key(get_scenario("star"), SweepCell("star", "ring", 8), {"x": Opaque()})
        # Callables hash by module-qualified name, not by repr/address.
        a = cell_key(get_scenario("star"), SweepCell("star", "ring", 8),
                     {"f": run_graph_to_star})
        b = cell_key(get_scenario("star"), SweepCell("star", "ring", 8),
                     {"f": run_graph_to_star})
        assert a == b

    def test_truncated_cell_file_reexecutes(self, tmp_path):
        plan = self._plan()
        fresh = plan.run(resume_dir=tmp_path / "cache").to_json()
        victim = next(iter(sorted((tmp_path / "cache" / "cells").glob("*.json"))))
        victim.write_text('{"algorithm": "star", "fam')  # torn write
        assert plan.run(resume_dir=tmp_path / "cache").to_json() == fresh

    def test_wrong_shape_cell_file_reexecutes(self, tmp_path):
        # Valid JSON of a foreign/older schema is stale, not fatal.
        plan = self._plan()
        fresh = plan.run(resume_dir=tmp_path / "cache").to_json()
        cells = sorted((tmp_path / "cache" / "cells").glob("*.json"))
        cells[0].write_text("{}\n")
        cells[1].write_text("[]\n")
        assert plan.run(resume_dir=tmp_path / "cache").to_json() == fresh

    def test_adhoc_runner_does_not_reuse_registered_cache(self, tmp_path):
        # A plan-local runner shadowing a registered name must not be
        # served the registered scenario's cached rows (the runner's
        # module-qualified identity is part of the cache key).
        registered = SweepPlan.grid(["star"], ["ring"], [12]).run(
            resume_dir=tmp_path / "cache"
        )
        shadowed = SweepPlan.grid({"star": _flood_impostor}, ["ring"], [12]).run(
            resume_dir=tmp_path / "cache"
        )
        assert shadowed.rows[0].rounds != registered.rows[0].rounds
        assert shadowed.rows[0].rounds == run_flood_baseline(
            families.make("ring", 12)
        ).rounds

    def test_non_string_dict_keys_not_cacheable(self):
        from repro.registry import get_scenario

        with pytest.raises(ConfigurationError, match="non-string keys"):
            cell_key(get_scenario("star"), SweepCell("star", "ring", 8),
                     {"cfg": {1: "a"}})

    def test_identity_less_callables_not_cacheable(self):
        # Lambdas/closures share qualnames across bodies and partials
        # have none at all; both must refuse to cache rather than serve
        # (or thrash) another callable's rows.
        import functools

        from repro.registry import get_scenario

        cell = SweepCell("star", "ring", 8)
        for bad in (
            lambda g: g,
            functools.partial(run_graph_to_star),
        ):
            with pytest.raises(ConfigurationError, match="not cacheable"):
                cell_key(get_scenario("star"), cell, {"hook": bad})

    def test_adhoc_lambda_runner_not_resumable(self, tmp_path):
        plan = SweepPlan.grid({"mine": lambda g, **k: run_graph_to_star(g)},
                              ["ring"], [8])
        assert len(plan.run().rows) == 1  # fine without a cache
        with pytest.raises(ConfigurationError, match="not cacheable"):
            plan.run(resume_dir=tmp_path / "cache")

    def test_runner_kwargs_change_invalidates(self, tmp_path, monkeypatch):
        from repro.analysis import sweep as sweep_mod

        plan = SweepPlan.grid(["star"], ["ring"], [16])
        plan.run(resume_dir=tmp_path / "cache")
        executed = []
        real = sweep_mod._execute_cell

        def counting(cell, spec, kwargs, check=False, profile=False,
                     heartbeat_s=0.0, trace_out=None):
            executed.append(cell)
            return real(cell, spec, kwargs, check, profile, heartbeat_s, trace_out)

        monkeypatch.setattr(sweep_mod, "_execute_cell", counting)
        changed = SweepPlan.grid(
            ["star"], ["ring"], [16], runner_kwargs={"check_connectivity": True}
        )
        changed.run(resume_dir=tmp_path / "cache")
        assert len(executed) == 1  # cache miss: kwargs are part of the key


class TestCheckedSweeps:
    """Invariant verdicts in sweep rows (the --check path)."""

    def test_check_stamps_verdict_columns(self):
        plan = SweepPlan.grid(["star"], ["ring"], [16], check=True)
        rows = plan.run().rows
        from repro.registry import get_scenario

        expected = {f"inv_{name}" for name in get_scenario("star").invariants}
        assert expected <= set(rows[0].extra)
        assert all(rows[0].extra[col] == "ok" for col in expected)

    def test_unchecked_rows_carry_no_verdicts(self):
        rows = SweepPlan.grid(["star"], ["ring"], [16]).run().rows
        assert not any(k.startswith("inv_") for k in rows[0].extra)

    def test_parallel_checked_sweep_matches_serial(self):
        plan = SweepPlan.grid(["star"], ["ring", "line"], [16], check=True)
        serial = plan.run().to_json()
        parallel = plan.run(parallel=True, max_workers=2).to_json()
        assert parallel == serial

    def test_check_flag_is_part_of_cache_key(self):
        from repro.registry import get_scenario

        spec = get_scenario("star")
        cell = SweepCell("star", "ring", 16)
        assert cell_key(spec, cell, {}, check=False) != cell_key(spec, cell, {}, check=True)

    def test_checked_resume_is_byte_identical(self, tmp_path):
        plan = SweepPlan.grid(["star"], ["ring"], [16, 24], check=True)
        fresh = plan.run(resume_dir=tmp_path / "cache").to_json()
        victim = next((tmp_path / "cache" / "cells").glob("*.json"))
        victim.unlink()
        resumed = plan.run(resume_dir=tmp_path / "cache").to_json()
        assert resumed == fresh
        assert '"inv_connectivity": "ok"' in resumed

    def test_checked_and_unchecked_caches_do_not_collide(self, tmp_path):
        checked = SweepPlan.grid(["star"], ["ring"], [16], check=True)
        unchecked = SweepPlan.grid(["star"], ["ring"], [16])
        checked.run(resume_dir=tmp_path / "cache")
        rows = unchecked.run(resume_dir=tmp_path / "cache").rows
        # The unchecked run must not be served the checked run's row.
        assert not any(k.startswith("inv_") for k in rows[0].extra)

    def test_red_cell_reported_not_raised(self):
        """A failing invariant lands in the row as a FAIL verdict; the
        sweep itself completes (enforcement is the CLI's exit code)."""
        from repro.registry import ScenarioSpec, register_scenario, unregister_scenario

        spec = ScenarioSpec(
            "busted-clique", get_algorithm("clique"), "distributed",
            description="clique under a linear edge budget (must go red)",
            invariants=("edges:linear", "connectivity"),
        )
        register_scenario(spec)
        try:
            result = SweepPlan.grid(["busted-clique"], ["ring"], [128], check=True).run()
            failed = result.failed_invariants()
            assert [(f[0].algorithm, f[1]) for f in failed] == [
                ("busted-clique", "inv_edges:linear")
            ]
            assert failed[0][2].startswith("FAIL")
            assert result.rows[0].extra["inv_connectivity"] == "ok"
        finally:
            unregister_scenario("busted-clique")


class TestProfiledSweeps:
    def test_profile_plan_stamps_prof_columns(self):
        result = SweepPlan.grid(
            ["star", "wreath"], ["ring"], [16], profile=True
        ).run()
        for row in result.rows:
            extra = row.extra
            assert extra["prof_wall_ms"] > 0
            assert extra["prof_round_mean_us"] > 0
            assert "prof_dispatch" in extra
        # prof_* columns coexist with inv_* verdicts
        checked = SweepPlan.grid(
            ["star"], ["ring"], [16], check=True, profile=True
        ).run()
        extra = checked.rows[0].extra
        assert "prof_wall_ms" in extra and "inv_connectivity" in extra

    def test_unprofiled_plan_has_no_prof_columns(self):
        result = SweepPlan.grid(["star"], ["ring"], [16]).run()
        assert not any(k.startswith("prof_") for k in result.rows[0].extra)

    def test_profile_is_part_of_cell_key(self):
        from repro.registry import get_scenario

        spec = get_scenario("star")
        cell = SweepCell("star", "ring", 16)
        base = cell_key(spec, cell, {})
        assert cell_key(spec, cell, {}, profile=True) != base
        assert cell_key(spec, cell, {}, profile=True) == cell_key(
            spec, cell, {}, profile=True
        )

    def test_profiled_rows_cache_and_resume(self, tmp_path):
        plan = SweepPlan.grid(["star"], ["ring"], [16], profile=True)
        first = plan.run(resume_dir=tmp_path / "cache")
        resumed = plan.run(resume_dir=tmp_path / "cache")
        assert [r.extra for r in resumed.rows] == [r.extra for r in first.rows]
        # an unprofiled plan over the same grid misses the cache
        import repro.analysis.sweep as sweep_mod

        executed = []
        real = sweep_mod._execute_cell

        def counting(cell, spec, kwargs, check=False, profile=False,
                     heartbeat_s=0.0, trace_out=None):
            executed.append(cell)
            return real(cell, spec, kwargs, check, profile, heartbeat_s, trace_out)

        sweep_mod._execute_cell = counting
        try:
            SweepPlan.grid(["star"], ["ring"], [16]).run(resume_dir=tmp_path / "cache")
        finally:
            sweep_mod._execute_cell = real
        assert len(executed) == 1

    def test_heartbeat_streams_round_lines(self, capsys):
        SweepPlan.grid(["star"], ["ring"], [16]).run(
            progress=False, heartbeat_s=0.000001
        )
        err = capsys.readouterr().err
        assert "[star/ring n=16]" in err and "rounds" in err

    def test_heartbeat_does_not_perturb_cache(self, tmp_path, capsys):
        plan = SweepPlan.grid(["star"], ["ring"], [16])
        plan.run(resume_dir=tmp_path / "cache")
        resumed = plan.run(
            resume_dir=tmp_path / "cache", progress=False, heartbeat_s=0.000001
        )
        capsys.readouterr()
        assert all(row is not None for row in resumed.rows)
        # fully cached: the heartbeat setting produced no re-execution
        manifest = json.loads(
            (tmp_path / "cache" / "manifest.json").read_text()
        )
        assert manifest["profile"] is False


class TestVerdictCellCsvRoundTrip:
    """PR 10 regression: multi-failure verdict details embed ``;``/``,``
    and raw node reprs; the sanitized ``Verdict.cell`` must survive a
    ``SweepResult`` CSV round trip as exactly one field per row."""

    def _result_with_cell(self, cell):
        from repro.analysis.sweep import SweepRow

        row = SweepRow("star", "ring", 8, 5, 9, 3, 2, 2, 2,
                       extra={"inv_temporal-legality": cell})
        return SweepResult(rows=[row])

    def _nasty_verdict(self):
        from repro.conformance import TemporalLegalityChecker
        from repro.engine.trace import RoundRecord

        class _G:
            nodes = frozenset({"a,b\nc", "d;e", "f"})

            def edges(self):
                return iter([("a,b\nc", "d;e"), ("d;e", "f")])

        checker = TemporalLegalityChecker()
        checker.on_run_start(_G())
        checker.on_round(RoundRecord(
            round=1,
            activations=frozenset({("a,b\nc", "f"), ("a,b\nc", "nope")}),
            deactivations=frozenset({("f", "d;e")}),
            active_edges=99,
            activated_edges=99,
            connected=True,
            barrier_epoch=0,
        ))
        verdict = checker.verdict()
        assert not verdict.ok
        # multi-failure detail with every separator a consumer could trip on
        assert ";" in verdict.detail and "," in verdict.detail
        return verdict

    def test_cell_escapes_control_characters(self):
        from repro.conformance import Verdict

        cell = Verdict("x", False, "line1\nline2\tcol\r\\slash").cell
        assert cell == "FAIL: line1\\nline2\\tcol\\r\\\\slash"
        assert "\n" not in cell and "\r" not in cell and "\t" not in cell

    def test_multi_failure_verdict_round_trips_through_csv(self, tmp_path):
        verdict = self._nasty_verdict()
        cell = verdict.cell
        assert "\n" not in cell  # str label reprs cannot smuggle newlines
        path = tmp_path / "rows.csv"
        self._result_with_cell(cell).to_csv(path)
        text = path.read_text()
        # one header line + one row line: no cell spilled a record break
        assert len(text.strip().splitlines()) == 2
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["inv_temporal-legality"] == cell
        assert rows[0]["algorithm"] == "star"
