"""Tests for the first-class scenario registry (repro.registry)."""

import pytest

from repro.core import run_graph_to_star
from repro.errors import ConfigurationError
from repro.registry import (
    KINDS,
    ScenarioParam,
    ScenarioSpec,
    check_cell,
    get_algorithm,
    get_scenario,
    register_scenario,
    registered_algorithms,
    scenario_names,
    scenarios,
    unregister_scenario,
)


class TestSpec:
    def test_kind_validation(self):
        with pytest.raises(ConfigurationError, match="unknown scenario kind"):
            ScenarioSpec("x", run_graph_to_star, "quantum")

    @pytest.mark.parametrize(
        "kind,backend,adversary",
        [
            ("distributed", True, False),
            ("centralized", False, False),
            ("self-healing", True, True),
            ("composition", True, False),
        ],
    )
    def test_capabilities_derive_from_kind(self, kind, backend, adversary):
        spec = ScenarioSpec("x", run_graph_to_star, kind)
        assert spec.supports_backend is backend
        assert spec.supports_adversary is adversary
        assert spec.supports_trace is True

    def test_explicit_capability_overrides_kind(self):
        spec = ScenarioSpec(
            "x", run_graph_to_star, "distributed", supports_adversary=True
        )
        assert spec.supports_adversary is True

    def test_capability_summary_string(self):
        spec = ScenarioSpec("x", run_graph_to_star, "self-healing")
        assert spec.capabilities() == "backend+adversary+trace"
        assert ScenarioSpec("y", run_graph_to_star, "centralized").capabilities() == "trace"

    def test_param_lookup(self):
        p = ScenarioParam("strikes", int, 3, "strike count")
        spec = ScenarioSpec("x", run_graph_to_star, "self-healing", params=(p,))
        assert spec.param("strikes") is p
        assert spec.param("nope") is None


class TestRegistryContents:
    def test_every_kind_is_populated(self):
        for kind in KINDS:
            assert scenario_names(kind), f"no registered scenario of kind {kind}"

    def test_builtins_present_with_paper_refs(self):
        names = registered_algorithms()
        for name in (
            "star", "wreath", "thin-wreath", "clique", "euler", "cut-in-half",
            "star-heal", "wreath-heal",
            "star+flood", "wreath+flood", "flood-baseline", "star+leader",
        ):
            assert name in names
            spec = get_scenario(name)
            assert spec.description and spec.paper

    def test_get_algorithm_resolves_runner(self):
        assert get_algorithm("star") is run_graph_to_star

    def test_unknown_scenario_clear_error(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            get_scenario("no-such-algo")

    def test_kind_filter_and_validation(self):
        assert all(s.kind == "composition" for s in scenarios("composition"))
        with pytest.raises(ConfigurationError, match="unknown scenario kind"):
            scenarios("bogus")

    def test_register_and_overwrite_guard(self):
        def alias():
            return ScenarioSpec(
                "star-alias-for-test", run_graph_to_star, "distributed",
                description="star alias",
            )

        register_scenario(alias())
        try:
            assert get_algorithm("star-alias-for-test") is run_graph_to_star
            assert get_scenario("star-alias-for-test").kind == "distributed"
            with pytest.raises(ConfigurationError, match="already registered"):
                register_scenario(alias())
            replacement = alias()
            assert register_scenario(replacement, overwrite=True) is replacement
            assert get_scenario("star-alias-for-test") is replacement
        finally:
            unregister_scenario("star-alias-for-test")

    def test_unregister_builtin_reseeds_lazily(self):
        # Removing a built-in must not be permanent: the next lookup
        # re-seeds the defaults (without clobbering later registrations).
        unregister_scenario("star")
        assert get_scenario("star").runner is run_graph_to_star

    def test_register_full_spec(self):
        spec = ScenarioSpec(
            "custom-for-test", run_graph_to_star, "composition",
            description="custom", paper="none", version=7,
        )
        register_scenario(spec)
        try:
            assert get_scenario("custom-for-test").version == 7
        finally:
            unregister_scenario("custom-for-test")


class TestCheckCell:
    def test_family_restriction(self):
        with pytest.raises(ConfigurationError, match="only supports families"):
            check_cell(get_scenario("cut-in-half"), family="ring")
        check_cell(get_scenario("cut-in-half"), family="line")  # fine

    def test_unrestricted_family_accepts_all(self):
        check_cell(get_scenario("star"), family="ring")

    def test_backend_rejected_for_centralized(self):
        with pytest.raises(ConfigurationError, match="centralized"):
            check_cell(get_scenario("euler"), backend="bulk")

    def test_adversary_rejected_for_non_heal(self):
        with pytest.raises(ConfigurationError, match="not self-stabilizing"):
            check_cell(get_scenario("star"), adversary=object())
        with pytest.raises(ConfigurationError, match="star-heal"):
            check_cell(get_scenario("star+flood"), adversary=object())

    def test_adversary_accepted_for_heal(self):
        check_cell(get_scenario("star-heal"), adversary=object(), backend="bulk")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="strikes"):
            check_cell(get_scenario("star"), params={"strikes": 2})
        check_cell(get_scenario("star-heal"), params={"strikes": 2})

    def test_trace_capability_enforced(self):
        spec = ScenarioSpec(
            "traceless", run_graph_to_star, "distributed", supports_trace=False
        )
        with pytest.raises(ConfigurationError, match="supports_trace"):
            check_cell(spec, trace=True)
        check_cell(spec, trace=False)
        check_cell(get_scenario("star"), trace=True)

    def test_param_name_may_not_shadow_core_cli_flag(self):
        for reserved in ("seed", "backend", "workers"):
            with pytest.raises(ConfigurationError, match="collides"):
                ScenarioSpec(
                    "x", run_graph_to_star, "distributed",
                    params=(ScenarioParam(reserved, int, 1, "boom"),),
                )


class TestKernelCapabilityTags:
    """Golden expectations for the derived ``kernel``/``kernel-sched``
    capability tags (``repro --list``).  These are derived from the
    registered program families' ``phase_kernel`` attributes, so a
    regression here means a kernel was dropped or demoted."""

    GOLDEN = {
        # array kernels: whole rounds execute as single array dispatches
        "star": "kernel",
        "star+flood": "kernel",
        "star+leader": "kernel",
        "flood-baseline": "kernel",
        # scheduling kernels: barrier families (the wreath splice kernel
        # also array-executes REBUILD rounds, but whole runs stay on the
        # per-node sparse path, hence the -sched tier)
        "wreath": "kernel-sched",
        "thin-wreath": "kernel-sched",
        "wreath+flood": "kernel-sched",
    }

    @pytest.mark.parametrize("name,level", sorted(GOLDEN.items()))
    def test_kernel_level_golden(self, name, level):
        spec = get_scenario(name)
        assert spec.kernel_level() == level
        assert level in spec.capabilities().split("+")

    def test_untagged_scenarios_have_no_kernel(self):
        for name in ("star-heal", "wreath-heal", "clique"):
            spec = get_scenario(name)
            assert spec.kernel_level() is None
            caps = spec.capabilities().split("+")
            assert "kernel" not in caps and "kernel-sched" not in caps
