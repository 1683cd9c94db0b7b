"""First-class scenario registry: every runnable workload is a spec.

A :class:`ScenarioSpec` is the single source of truth for one scenario:
its runner, kind, human description, paper reference, capability flags
(engine backend / adversary / trace), supported workload families, extra
CLI parameters, and a cache version.  The CLI, the sweep subsystem, the
dynamics scenarios, benchmarks, and examples all resolve scenarios
through this module — there are no hand-maintained capability tuples
anywhere else (DESIGN.md, "Scenario registry").

Capability resolution
---------------------
Capabilities default from ``kind`` and can be overridden per spec:

* ``distributed`` — an engine-backed per-node program: takes a
  ``backend``, no adversary (the paper's committee algorithms are not
  self-stabilizing; DESIGN.md note 8).
* ``centralized`` — a full-knowledge strategy on the reference round
  loop with no per-node programs, hence no ``backend`` and no adversary.
* ``self-healing`` — build/strike/repair wrappers: engine-backed *and*
  adversary-capable.
* ``composition`` — transform-then-solve pipelines (Section 1.3):
  engine-backed end to end, no adversary.

:func:`check_cell` is the one place that turns a capability mismatch
into a :class:`~repro.errors.ConfigurationError`; the CLI and
``analysis.sweep._execute_cell`` both delegate to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError

#: The scenario kinds (see module docstring for their capability defaults).
KINDS = ("distributed", "centralized", "self-healing", "composition")

#: The default scenario for ``python -m repro`` with no ``--algorithm``.
DEFAULT_SCENARIO = "star"

#: Argparse dests already owned by the CLI's core/engine/sweep flags.  A
#: :class:`ScenarioParam` may not reuse one: its name becomes a CLI flag,
#: and a collision would crash every ``repro`` invocation at parser build.
RESERVED_PARAM_NAMES = frozenset({
    "algorithm", "algorithms", "family", "families", "n", "sizes", "seed",
    "seeds", "trace", "check_connectivity", "list", "command", "backend",
    "adversary", "churn_rate", "adversary_seed", "adversary_policy",
    "parallel", "workers", "resume_dir", "json_path", "csv_path", "quiet",
    "check", "trace_out", "tier", "profile", "profile_out", "progress",
})


@dataclass(frozen=True)
class ScenarioParam:
    """One extra runner parameter a scenario exposes on the CLI.

    ``name`` doubles as the runner kwarg and the ``--<name>`` flag;
    ``default`` is documentation only — when the flag is absent the
    runner's own signature default applies, so registry and runner can
    never disagree at execution time.
    """

    name: str
    type: Callable = int
    default: object = None
    help: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one registered scenario.

    ``supports_backend`` / ``supports_adversary`` default from ``kind``
    (``None`` = derive); ``families`` limits the workload families the
    scenario accepts (``None`` = every registered family); ``version``
    participates in the sweep cache key, so bumping it invalidates every
    cached row the scenario ever produced.

    ``invariants`` declares the scenario's paper-bound conformance
    checks by name (resolved by :func:`repro.conformance.make_checkers`)
    — the online checkers ``repro run/sweep --check`` attaches as round
    observers and whose verdicts land in sweep rows.  Names are
    validated lazily at checker construction so registering a spec never
    imports the conformance layer.
    """

    name: str
    runner: Callable
    kind: str
    description: str = ""
    paper: str = ""
    families: tuple | None = None
    supports_backend: bool | None = None
    supports_adversary: bool | None = None
    supports_trace: bool = True
    #: ``--backend bulk`` is offered: the scenario's programs are covered
    #: by the cross-backend corpus, and bulk runs them on a kernel, on
    #: sparse scheduling (bulk-sparse programs, PR 6) or on its per-node
    #: loop (clique).  Off by default: a scenario must opt in once its
    #: programs are covered.
    supports_bulk: bool = False
    #: The scenario's state is Θ(n²) — every node ends up holding Θ(n)
    #: tokens or edges (flood-style dissemination, including max-UID
    #: leader election, which floods all n UIDs, and the clique
    #: baseline).  Such scenarios fit no memory budget at n = 10⁵ on
    #: *any* backend, so size-tier presets (e.g. ``xlarge``) must
    #: exclude them.
    quadratic_state: bool = False
    #: The :class:`~repro.engine.NodeProgram` classes the scenario runs,
    #: in stage order (compositions list one per stage).  Kernel coverage
    #: for listings and size-tier derivation is read off their
    #: ``phase_kernel`` class attributes — never hand-maintained.
    programs: tuple = ()
    params: tuple = ()
    invariants: tuple = ()
    version: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; known kinds: {KINDS}"
            )
        if self.supports_backend is None:
            object.__setattr__(self, "supports_backend", self.kind != "centralized")
        if self.supports_adversary is None:
            object.__setattr__(self, "supports_adversary", self.kind == "self-healing")
        for param in self.params:
            if param.name in RESERVED_PARAM_NAMES:
                raise ConfigurationError(
                    f"scenario {self.name!r} parameter {param.name!r} collides "
                    f"with a core CLI flag; pick another name"
                )

    def param(self, name: str) -> ScenarioParam | None:
        for p in self.params:
            if p.name == name:
                return p
        return None

    def kernel_level(self) -> str | None:
        """Whole-round kernel coverage, derived from :attr:`programs`.

        ``"kernel"`` when every stage's program family registers an
        *array* kernel (whole rounds execute as single array dispatches
        on the bulk backend); ``"kernel-sched"`` when every stage
        registers at least a *scheduling* kernel (the family's wake
        discipline is declared at phase level, rounds still run per-node
        Python); ``None`` when any stage has no kernel.  An array kernel
        is recognized by overriding :meth:`PhaseKernel.step_round`.
        """
        from .engine.program import PhaseKernel

        if not self.programs:
            return None
        kernels = [getattr(p, "phase_kernel", None) for p in self.programs]
        if any(k is None for k in kernels):
            return None
        if all(type(k).step_round is not PhaseKernel.step_round for k in kernels):
            return "kernel"
        return "kernel-sched"

    def capabilities(self) -> str:
        """Compact capability summary for listings (e.g. ``backend+trace``)."""
        flags = []
        if self.supports_backend:
            flags.append("backend")
        if self.supports_bulk:
            flags.append("bulk")
        kernel = self.kernel_level()
        if kernel:
            flags.append(kernel)
        if self.supports_adversary:
            flags.append("adversary")
        if self.supports_trace:
            flags.append("trace")
        return "+".join(flags) or "-"


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, ScenarioSpec] = {}
_DEFAULTS_LOADED = False


def _ensure_defaults() -> None:
    """Register the built-in scenarios (lazily, so importing this module
    never drags in the algorithm layers)."""
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    _DEFAULTS_LOADED = True

    from .centralized import run_cut_in_half, run_euler_ring
    from .core import (
        run_clique_formation,
        run_graph_to_star,
        run_graph_to_thin_wreath,
        run_graph_to_wreath,
    )
    from .core.graph_to_star import GraphToStarProgram
    from .core.graph_to_wreath import GraphToWreathProgram
    from .core.thin_wreath import GraphToThinWreathProgram
    from .dynamics.scenarios import run_star_self_healing, run_wreath_self_healing
    from .problems.composition import (
        run_flood_baseline,
        run_star_then_flood,
        run_star_then_leader,
        run_wreath_then_flood,
    )
    from .problems.leader_election import MaxUidLeaderProgram
    from .problems.token_dissemination import FloodTokensProgram

    strikes = ScenarioParam(
        "strikes", int, 3, "number of adversary strikes on the quiescent target"
    )
    # Invariant profiles (names resolved by repro.conformance): the
    # structural safety checks plus the paper's round/edge envelopes.
    safety = ("connectivity", "temporal-legality")
    log_linear = (*safety, "rounds:log", "edges:linear", "activations:nlogn")
    polylog_linear = (*safety, "rounds:polylog", "edges:linear", "activations:nlogn")
    # No edge-watermark budget for Theta(n^2) scenarios: any quadratic
    # watermark bound is vacuous (see repro.conformance.BUDGETS).
    quadratic = (*safety, "rounds:log", "activations:quadratic")
    defaults = [
        ScenarioSpec(
            "star", run_graph_to_star, "distributed",
            description="GraphToStar: edge-optimal Depth-1 Tree",
            paper="Thm 3.8",
            supports_bulk=True,
            programs=(GraphToStarProgram,),
            invariants=log_linear,
        ),
        ScenarioSpec(
            "wreath", run_graph_to_wreath, "distributed",
            description="GraphToWreath: constant degree, O(log^2 n) time",
            paper="Thm 4.2",
            supports_bulk=True,
            programs=(GraphToWreathProgram,),
            invariants=polylog_linear,
        ),
        ScenarioSpec(
            "thin-wreath", run_graph_to_thin_wreath, "distributed",
            description="GraphToThinWreath: polylog degree, o(log^2 n) time",
            paper="Thm 5.1",
            supports_bulk=True,
            programs=(GraphToThinWreathProgram,),
            invariants=polylog_linear,
        ),
        ScenarioSpec(
            "clique", run_clique_formation, "distributed",
            description="clique baseline: fast but Theta(n^2) edges",
            paper="Sec 1.2",
            supports_bulk=True,
            quadratic_state=True,
            invariants=quadratic,
        ),
        ScenarioSpec(
            "euler", run_euler_ring, "centralized",
            description="centralized Euler-ring strategy",
            paper="Thm 6.3",
            invariants=log_linear,
        ),
        ScenarioSpec(
            "cut-in-half", run_cut_in_half, "centralized",
            description="centralized CutInHalf (path graphs only)",
            paper="Thm D.5",
            families=("line", "line_adversarial"),
            invariants=log_linear,
        ),
        ScenarioSpec(
            "star-heal", run_star_self_healing, "self-healing",
            description="GraphToStar with restart-on-damage under churn",
            paper="DESIGN.md note 8",
            params=(strikes,),
            supports_bulk=True,
            invariants=log_linear,
        ),
        ScenarioSpec(
            "wreath-heal", run_wreath_self_healing, "self-healing",
            description="GraphToWreath with restart-on-damage under churn",
            paper="DESIGN.md note 8",
            params=(strikes,),
            supports_bulk=True,
            invariants=polylog_linear,
        ),
        ScenarioSpec(
            "star+flood", run_star_then_flood, "composition",
            description="GraphToStar, then token dissemination on the star",
            paper="Sec 1.3",
            supports_bulk=True,
            quadratic_state=True,
            programs=(GraphToStarProgram, FloodTokensProgram),
            invariants=log_linear,
        ),
        ScenarioSpec(
            "wreath+flood", run_wreath_then_flood, "composition",
            description="GraphToWreath, then token dissemination on the tree",
            paper="Sec 1.3",
            supports_bulk=True,
            quadratic_state=True,
            programs=(GraphToWreathProgram, FloodTokensProgram),
            invariants=polylog_linear,
        ),
        ScenarioSpec(
            "flood-baseline", run_flood_baseline, "composition",
            description="token dissemination directly on G_s (pays diameter)",
            paper="Sec 1.3",
            supports_bulk=True,
            quadratic_state=True,
            programs=(FloodTokensProgram,),
            invariants=safety,
        ),
        ScenarioSpec(
            "star+leader", run_star_then_leader, "composition",
            description="GraphToStar, then max-UID leader election",
            paper="Sec 1.3",
            supports_bulk=True,
            quadratic_state=True,
            programs=(GraphToStarProgram, MaxUidLeaderProgram),
            invariants=log_linear,
        ),
    ]
    for spec in defaults:
        _REGISTRY.setdefault(spec.name, spec)


def register_scenario(spec: ScenarioSpec, *, overwrite: bool = False) -> ScenarioSpec:
    """Register ``spec`` under ``spec.name``.

    For parallel sweeps the spec's runner must be picklable, i.e. a
    module-level function; worker processes re-import it by reference.
    """
    _ensure_defaults()
    if spec.name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Resolve a scenario name to its spec."""
    _ensure_defaults()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def get_algorithm(name: str) -> Callable:
    """Resolve a registered scenario name to its runner callable."""
    return get_scenario(name).runner


def scenarios(kind: str | None = None) -> list[ScenarioSpec]:
    """Every registered spec (optionally restricted to one kind), by name."""
    _ensure_defaults()
    specs = sorted(_REGISTRY.values(), key=lambda s: s.name)
    if kind is None:
        return specs
    if kind not in KINDS:
        raise ConfigurationError(f"unknown scenario kind {kind!r}; known kinds: {KINDS}")
    return [s for s in specs if s.kind == kind]


def scenario_names(kind: str | None = None) -> list[str]:
    return [s.name for s in scenarios(kind)]


def registered_algorithms() -> list[str]:
    """Backward-compatible sorted name listing."""
    return scenario_names()


def unregister_scenario(name: str) -> None:
    """Remove a scenario (test helper; built-ins re-register lazily)."""
    global _DEFAULTS_LOADED
    _REGISTRY.pop(name, None)
    # Re-arm the default pass so removing a built-in name is not
    # permanent: the next lookup re-seeds it (setdefault never clobbers
    # scenarios registered meanwhile).
    _DEFAULTS_LOADED = False


# ----------------------------------------------------------------------
# capability checking — the single rejection path
# ----------------------------------------------------------------------


def check_cell(
    spec: ScenarioSpec,
    *,
    family: str | None = None,
    backend: str | None = None,
    adversary: object = None,
    trace: bool = False,
    params: dict | None = None,
) -> None:
    """Raise :class:`ConfigurationError` if the requested cell exceeds the
    scenario's declared capabilities.  Shared by the CLI and the sweep
    executor, so both reject with identical messages.

    ``params`` validates *CLI-declared* parameter flags against the
    spec; Python callers pass runner kwargs directly to the runner,
    where an undeclared kwarg fails with the runner's own ``TypeError``.
    """
    if family is not None and spec.families is not None and family not in spec.families:
        raise ConfigurationError(
            f"scenario {spec.name!r} only supports families "
            f"{', '.join(spec.families)}; got {family!r}"
        )
    if backend is not None and not spec.supports_backend:
        raise ConfigurationError(
            f"--backend is not supported for {spec.name}: centralized "
            f"strategies have no per-node round loop to swap "
            f"(see DESIGN.md, 'Engine backends')"
        )
    if backend == "bulk" and not spec.supports_bulk:
        capable = ", ".join(s.name for s in scenarios() if s.supports_bulk)
        raise ConfigurationError(
            f"--backend bulk is not supported for {spec.name}: its programs "
            f"do not declare bulk-sparse semantics (see DESIGN.md, 'Phase "
            f"kernels & bulk backend'); bulk-capable scenarios: {capable}"
        )
    if adversary is not None and not spec.supports_adversary:
        healers = ", ".join(scenario_names("self-healing"))
        raise ConfigurationError(
            f"--adversary is not supported for {spec.name}: the paper's "
            f"algorithms are not self-stabilizing (DESIGN.md note 8); "
            f"use a self-healing scenario ({healers})"
        )
    if trace and not spec.supports_trace:
        raise ConfigurationError(
            f"--trace is not supported for {spec.name}: the scenario "
            f"declares supports_trace=False"
        )
    for name in params or ():
        if spec.param(name) is None:
            raise ConfigurationError(
                f"parameter {name!r} is not supported for {spec.name}"
                + (
                    f"; supported: {', '.join(p.name for p in spec.params)}"
                    if spec.params
                    else ""
                )
            )


__all__ = [
    "DEFAULT_SCENARIO",
    "KINDS",
    "RESERVED_PARAM_NAMES",
    "ScenarioParam",
    "ScenarioSpec",
    "check_cell",
    "get_algorithm",
    "get_scenario",
    "register_scenario",
    "registered_algorithms",
    "scenario_names",
    "scenarios",
    "unregister_scenario",
]
