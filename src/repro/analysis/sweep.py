"""Parameter-sweep subsystem: the generator of every experiment table.

A sweep is described by a :class:`SweepPlan` — a list of
``(algorithm, family, n, seed[, adversary, backend])`` cells resolved
against the scenario registry (:mod:`repro.registry`).  Plans execute
either serially or on a process pool (one task per cell), always
returning rows in plan order, so a parallel sweep is byte-identical to
the serial one on a fixed seed.  Results persist to JSON or CSV through
:class:`SweepResult`.

Large sweeps are resumable: ``plan.run(resume_dir=...)`` keeps a
manifest plus one cached row per cell under the directory, keyed by a
content hash of ``(spec version, cell, resolved backend,
runner_kwargs)``.  A re-run loads cached rows and executes only
missing/changed cells; because rows are reassembled in plan order either
way, a resumed sweep is byte-identical to a fresh one (see DESIGN.md,
"Scenario registry", for the cache-key contract).

Every scenario name resolves through :func:`repro.registry.get_scenario`;
:func:`repro.registry.register_scenario` adds new ones.  Parallel
execution pickles runners by reference, so registered runners must be
module-level functions (all built-ins are); closures and lambdas only
work serially.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import networkx as nx

from ..dynamics.adversary import AdversarySpec, make_adversary
from ..engine.runner import resolve_backend
from ..errors import ConfigurationError
from ..graphs import diameter, families, max_degree
from ..graphs.validate import KeyGraph
from ..registry import (
    ScenarioSpec,
    check_cell,
    get_algorithm,
    get_scenario,
    registered_algorithms,
)
from ..telemetry import TelemetryObserver, format_heartbeat, profile_columns

__all__ = [
    "SweepCell",
    "SweepPlan",
    "SweepResult",
    "SweepRow",
    "cell_key",
    "get_algorithm",
    "measure",
    "registered_algorithms",
]


@dataclass
class SweepRow:
    """One measured cell of an experiment table."""

    algorithm: str
    family: str
    n: int
    rounds: int
    total_activations: int
    max_activated_edges: int
    max_activated_degree: int
    final_diameter: int
    final_max_degree: int
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        base = {
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "rounds": self.rounds,
            "total_activations": self.total_activations,
            "max_activated_edges": self.max_activated_edges,
            "max_activated_degree": self.max_activated_degree,
            "final_diameter": self.final_diameter,
            "final_max_degree": self.final_max_degree,
        }
        base.update(self.extra)
        return base


def measure(algorithm: str, family: str, graph: nx.Graph, result) -> SweepRow:
    """Build a row from any RunResult/PipelineResult/SelfHealingResult.

    The final measures read the result's own key arrays
    (``final_keys()``, wrapped as a :class:`~repro.graphs.validate.KeyGraph`);
    ``final_graph()`` runs only for a final graph that is not a tree."""
    final = KeyGraph(*result.final_keys(), result.final_graph)
    row = SweepRow(
        algorithm=algorithm,
        family=family,
        n=graph.number_of_nodes(),
        rounds=result.rounds,
        total_activations=result.metrics.total_activations,
        max_activated_edges=result.metrics.max_activated_edges,
        max_activated_degree=result.metrics.max_activated_degree,
        final_diameter=diameter(final),
        final_max_degree=max_degree(final),
    )
    stage_columns = getattr(result, "stage_columns", None)
    if stage_columns is not None:  # composition pipelines: per-stage cost
        row.extra.update(stage_columns())
    return row


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One (algorithm, family, n, seed[, adversary, backend]) sweep cell.

    ``adversary`` is an :class:`AdversarySpec` (picklable, hashable), not
    an adversary instance: each cell constructs its own seeded adversary
    at execution time, so perturbed cells stay byte-deterministic under
    parallel execution exactly like unperturbed ones.

    ``backend`` selects the engine backend (``"reference"``/``"bulk"``;
    DESIGN.md, "Engine backends").  ``None`` defers to the runner's
    default (the ``REPRO_BACKEND`` environment variable, then
    ``"reference"``); either way the resolved name is stamped into the
    row's ``backend`` column, so persisted tables always record which
    engine measured them.
    """

    algorithm: str
    family: str
    n: int
    seed: int = 0
    adversary: AdversarySpec | None = None
    backend: str | None = None


def _cell_trace_path(template, cell: SweepCell) -> str:
    """Resolve a per-cell ``--trace-out`` path template."""
    try:
        return str(template).format(
            algorithm=cell.algorithm, family=cell.family, n=cell.n,
            seed=cell.seed,
        )
    except (KeyError, IndexError) as exc:
        raise ConfigurationError(
            f"bad trace-out template {str(template)!r} ({exc!r}); available "
            f"placeholders: {{algorithm}} {{family}} {{n}} {{seed}}"
        ) from None


def _execute_cell(
    cell: SweepCell,
    spec: ScenarioSpec,
    runner_kwargs: dict,
    check: bool = False,
    profile: bool = False,
    heartbeat_s: float = 0.0,
    trace_out=None,
) -> SweepRow:
    """Run one cell (also the process-pool task; must stay module-level).

    Capability checks go through :func:`repro.registry.check_cell` — the
    same single path the CLI uses — so a plan that exceeds a scenario's
    declared capabilities fails with the same message everywhere.

    With ``check=True`` the spec's declared invariants run online as
    round observers (:mod:`repro.conformance`) and their verdicts are
    stamped into the row as ``inv_<name>`` columns.  With
    ``profile=True`` a :class:`~repro.telemetry.TelemetryObserver` rides
    along and its :func:`~repro.telemetry.profile_columns` are stamped
    as ``prof_*`` columns.  ``heartbeat_s > 0`` streams an in-cell round
    heartbeat to stderr at most once per that many seconds, so a
    minutes-long cell (the xlarge tier) is never silent.
    ``trace_out`` (a per-cell path template; extension negotiates JSONL
    vs binary) streams the cell's full trace to disk.  Both are attached
    here, never through ``runner_kwargs``, so neither heartbeat cadence
    nor archive destinations can perturb a resume cache key — which also
    means a cell served from the resume cache writes no archive (delete
    the cache entry to re-record).
    """
    check_cell(
        spec, family=cell.family, backend=cell.backend, adversary=cell.adversary,
        trace=bool(runner_kwargs.get("collect_trace")) or trace_out is not None,
    )
    graph = families.make(cell.family, cell.n, seed=cell.seed)
    kwargs = dict(runner_kwargs)
    if cell.adversary is not None:
        kwargs["adversary"] = make_adversary(cell.adversary)
    if cell.backend is not None:
        kwargs["backend"] = cell.backend
    checkers = []
    if check and spec.invariants:
        from .. import conformance

        checkers = conformance.make_checkers(spec.invariants)
        kwargs["observers"] = [*kwargs.get("observers", ()), *checkers]
    telemetry = None
    if profile or heartbeat_s > 0:
        telemetry = TelemetryObserver(
            heartbeat_every=1 if heartbeat_s > 0 else 0,
            heartbeat_min_interval_s=heartbeat_s,
            # Second gate for microsecond-round cells (n = 10^6 tiers):
            # a line additionally needs 32 rounds of progress, so a
            # misconfigured or loose wall throttle can never flood.
            heartbeat_min_rounds=32 if heartbeat_s > 0 else 0,
            heartbeat_label=f"{cell.algorithm}/{cell.family} n={cell.n}",
        )
        kwargs["observers"] = [*kwargs.get("observers", ()), telemetry]
    sink = None
    if trace_out is not None:
        from ..engine.tracebin import trace_sink_for

        path = _cell_trace_path(trace_out, cell)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        sink = trace_sink_for(path)
        kwargs["observers"] = [*kwargs.get("observers", ()), sink]
    try:
        result = spec.runner(graph, **kwargs)
    finally:
        if sink is not None:
            sink.close()
    row = measure(cell.algorithm, cell.family, graph, result)
    # Every row records its seed unconditionally (seed 0 included), so
    # mixed-seed tables are never ragged or ambiguous.
    row.extra["seed"] = cell.seed
    if cell.adversary is not None:
        row.extra["adversary"] = cell.adversary.label()
    if spec.supports_backend:
        row.extra["backend"] = resolve_backend(cell.backend)
    if checkers:
        row.extra.update(conformance.verdict_columns(checkers))
    if profile and telemetry is not None:
        row.extra.update(profile_columns(telemetry.profile()))
    return row


@dataclass
class SweepPlan:
    """A deterministic list of sweep cells plus runner resolution.

    ``runners`` maps algorithm names to callables and takes precedence
    over the global registry (each becomes an ad-hoc ``distributed``
    spec); names absent from it resolve through
    :func:`repro.registry.get_scenario`.  ``runner_kwargs`` are forwarded
    to every runner call (e.g. ``{"check_connectivity": True}``).

    ``check=True`` runs every cell under its scenario's declared online
    invariants and stamps per-cell ``inv_<name>`` verdict columns into
    the rows (``repro sweep --check``).  ``profile=True`` runs every
    cell under a :class:`~repro.telemetry.TelemetryObserver` and stamps
    ``prof_*`` columns (``repro sweep --profile``); profiled rows cache
    like any other, so a resumed profiled sweep returns the cached
    timings — delete the cache to re-measure.
    """

    cells: list = field(default_factory=list)
    runners: dict = field(default_factory=dict)
    runner_kwargs: dict = field(default_factory=dict)
    check: bool = False
    profile: bool = False

    @classmethod
    def grid(
        cls,
        algorithms: Sequence[str] | dict[str, Callable],
        family_names: Iterable[str],
        sizes: Iterable[int],
        *,
        seeds: Iterable[int] = (0,),
        adversary: AdversarySpec | None = None,
        backend: str | None = None,
        runner_kwargs: dict | None = None,
        check: bool = False,
        profile: bool = False,
    ) -> "SweepPlan":
        """The full cross product algorithms × families × sizes × seeds.

        ``adversary`` stamps every cell with the same perturbation spec
        (each cell still gets its own fresh, identically-seeded
        adversary instance at execution time); ``backend`` stamps every
        cell with the same engine backend; ``check`` turns on the online
        invariant verdicts; ``profile`` the per-cell ``prof_*`` columns.
        """
        runners = dict(algorithms) if isinstance(algorithms, dict) else {}
        names = list(algorithms)
        cells = [
            SweepCell(a, f, n, s, adversary, backend)
            for a in names
            for f in family_names
            for n in sizes
            for s in seeds
        ]
        return cls(
            cells=cells,
            runners=runners,
            runner_kwargs=dict(runner_kwargs or {}),
            check=check,
            profile=profile,
        )

    def spec(self, name: str) -> ScenarioSpec:
        """The scenario spec a cell of this plan resolves to."""
        runner = self.runners.get(name)
        if runner is not None:
            return ScenarioSpec(name, runner, "distributed", description=name)
        return get_scenario(name)

    def __len__(self) -> int:
        return len(self.cells)

    def run(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        progress=None,
        resume_dir: str | os.PathLike | None = None,
        heartbeat_s: float = 0.0,
        trace_out=None,
    ) -> "SweepResult":
        """Execute every cell and return rows in plan order.

        ``parallel`` runs cells on a :class:`ProcessPoolExecutor`, one task
        per cell; every cell builds its graph from ``(family, n, seed)``
        deterministically, so the rows are identical to a serial run.
        ``progress`` is either truthy (log each finished cell to stderr) or
        a callable ``(done, total, cell)``.  ``resume_dir`` makes the sweep
        resumable: cached rows are loaded, only missing/changed cells
        execute, and fresh rows are persisted — byte-identical output
        either way.  ``heartbeat_s > 0`` additionally streams an in-cell
        round heartbeat to stderr at most once per that many seconds
        (``repro sweep --progress`` and the tier presets), so long cells
        are never silent.  ``trace_out`` streams every executed cell's
        trace to a per-cell path resolved from the template's
        ``{algorithm}``/``{family}``/``{n}``/``{seed}`` placeholders
        (extension negotiates the format: ``.rtb`` binary, else JSONL);
        multi-cell plans must template distinct paths.  Neither
        heartbeat nor trace destinations enter the cache key, so cached
        cells neither re-run nor re-archive.
        """
        started = time.perf_counter()
        report = _make_reporter(progress, len(self.cells))
        specs = [self.spec(cell.algorithm) for cell in self.cells]
        if trace_out is not None and len(self.cells) > 1:
            paths = [_cell_trace_path(trace_out, cell) for cell in self.cells]
            if len(set(paths)) != len(paths):
                raise ConfigurationError(
                    f"trace-out template {str(trace_out)!r} maps "
                    f"{len(self.cells)} cells onto {len(set(paths))} "
                    f"path(s); add {{algorithm}}/{{family}}/{{n}}/{{seed}} "
                    f"placeholders so every cell archives separately"
                )
        cache = _CellCache(resume_dir, self, specs) if resume_dir is not None else None

        rows: list = [None] * len(self.cells)
        pending: list = []
        for i, (cell, spec) in enumerate(zip(self.cells, specs)):
            cached = cache.load(i) if cache is not None else None
            if cached is not None:
                rows[i] = cached
                report(cell)
            else:
                pending.append(i)

        if parallel and len(pending) > 1:
            self._run_parallel(
                pending, specs, rows, max_workers, report, cache, heartbeat_s,
                trace_out,
            )
        else:
            for i in pending:
                rows[i] = _execute_cell(
                    self.cells[i], specs[i], self.runner_kwargs, self.check,
                    self.profile, heartbeat_s, trace_out,
                )
                if cache is not None:
                    cache.store(i, rows[i])
                report(self.cells[i])
        return SweepResult(rows=rows, elapsed=time.perf_counter() - started)

    def _run_parallel(
        self, pending, specs, rows, max_workers, report, cache,
        heartbeat_s=0.0, trace_out=None,
    ) -> None:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(
                    _execute_cell, self.cells[i], specs[i], self.runner_kwargs,
                    self.check, self.profile, heartbeat_s, trace_out,
                ): i
                for i in pending
            }
            for fut in as_completed(futures):
                i = futures[fut]
                rows[i] = fut.result()
                if cache is not None:
                    cache.store(i, rows[i])
                report(self.cells[i])


def _make_reporter(progress, total: int):
    if not progress:
        return lambda cell: None
    done = 0
    if callable(progress):
        def report(cell):
            nonlocal done
            done += 1
            progress(done, total, cell)
        return report

    started = time.perf_counter()

    def report(cell):
        nonlocal done
        done += 1
        print(
            format_heartbeat(
                "sweep", done, total,
                elapsed_s=time.perf_counter() - started, unit="cells",
                extra=f"{cell.algorithm}/{cell.family} n={cell.n} seed={cell.seed}",
            ),
            file=sys.stderr,
        )
    return report


# ----------------------------------------------------------------------
# the per-cell result cache (resumable sweeps)
# ----------------------------------------------------------------------


def _canonical(value):
    """A deterministic, JSON-able projection of a runner-kwarg value.

    Callables map to their module-qualified name (stable across runs,
    unlike ``repr`` with its memory addresses); containers recurse;
    anything else must already be JSON-representable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise ConfigurationError(
                f"runner kwarg dict {value!r} has non-string keys; resumable "
                f"sweeps need string-keyed dicts (str(key) would let distinct "
                f"keys share a cache entry)"
            )
        return {k: _canonical(v) for k, v in sorted(value.items())}
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        # Only module-level functions have an identity that survives the
        # process: lambdas/closures share qualnames across different
        # bodies, and partials/instances have no qualname at all.  Either
        # would let a resumed sweep serve another callable's stale rows
        # (or never hit the cache), so refuse to cache them.
        if (
            module is None
            or qualname is None
            or "<lambda>" in qualname
            or "<locals>" in qualname
        ):
            raise ConfigurationError(
                f"callable {value!r} is not cacheable (no stable "
                f"module-level identity); resumable sweeps need "
                f"module-level functions"
            )
        return f"{module}.{qualname}"
    raise ConfigurationError(
        f"runner kwarg value {value!r} is not cacheable; resumable sweeps "
        f"need JSON-representable (or callable) runner_kwargs"
    )


def cell_key(
    spec: ScenarioSpec,
    cell: SweepCell,
    runner_kwargs: dict,
    check: bool = False,
    profile: bool = False,
) -> str:
    """Content hash identifying one cell's row in the result cache.

    Covers everything the row is a function of: the spec's name,
    ``version``, and runner identity (module-qualified — so a plan-local
    runner shadowing a registered name never reuses the registered
    scenario's cached rows), the cell coordinates, the adversary label,
    the *resolved* backend (so a sweep re-run under a different
    ``REPRO_BACKEND`` re-executes instead of returning the other
    engine's rows), the canonicalized runner kwargs, the ``check``
    flag with the spec's declared invariants (checked rows carry verdict
    columns unchecked rows lack, and a re-declared invariant set must
    re-execute), and the ``profile`` flag (profiled rows carry ``prof_*``
    columns unprofiled rows lack).  Bumping ``ScenarioSpec.version``
    invalidates every cached row of that scenario.

    Key schema history: v1 lacked the ``check``/``invariants`` fields
    (added in v2, the observer-pipeline PR); v3 (the telemetry PR) adds
    the ``profile`` field.  Each bump invalidates every older cache
    entry by construction.
    """
    payload = {
        "key_version": 3,
        "spec": spec.name,
        "spec_version": spec.version,
        "runner": _canonical(spec.runner),
        "algorithm": cell.algorithm,
        "family": cell.family,
        "n": cell.n,
        "seed": cell.seed,
        "adversary": cell.adversary.label() if cell.adversary is not None else None,
        "backend": resolve_backend(cell.backend) if spec.supports_backend else None,
        "runner_kwargs": _canonical(runner_kwargs),
        "check": bool(check),
        "invariants": list(spec.invariants) if check else [],
        "profile": bool(profile),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


_ROW_FIELDS = (
    "algorithm", "family", "n", "rounds", "total_activations",
    "max_activated_edges", "max_activated_degree", "final_diameter",
    "final_max_degree",
)


class _CellCache:
    """Manifest + one JSON row file per cell under ``resume_dir``.

    Layout: ``manifest.json`` describes the plan (cell coordinates and
    keys, canonical runner kwargs); ``cells/<key>.json`` holds one
    executed row.  Stale files (from edited plans or bumped spec
    versions) are simply never read — their keys no longer occur.
    """

    def __init__(self, root, plan: SweepPlan, specs: list) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        self.keys = [
            cell_key(spec, cell, plan.runner_kwargs, plan.check, plan.profile)
            for cell, spec in zip(plan.cells, specs)
        ]
        self._write_manifest(plan, specs)

    def _write_manifest(self, plan: SweepPlan, specs: list) -> None:
        manifest = {
            "version": 3,
            "runner_kwargs": _canonical(plan.runner_kwargs),
            "check": plan.check,
            "profile": plan.profile,
            "cells": [
                {
                    "key": key,
                    "algorithm": cell.algorithm,
                    "family": cell.family,
                    "n": cell.n,
                    "seed": cell.seed,
                    "adversary": cell.adversary.label() if cell.adversary else None,
                    "backend": resolve_backend(cell.backend) if spec.supports_backend else None,
                    "spec_version": spec.version,
                }
                for key, cell, spec in zip(self.keys, plan.cells, specs)
            ],
        }
        _atomic_write(
            self.root / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )

    def _path(self, index: int) -> Path:
        return self.cells_dir / f"{self.keys[index]}.json"

    def load(self, index: int) -> SweepRow | None:
        path = self._path(index)
        try:
            payload = json.loads(path.read_text())
            return SweepRow(
                **{name: payload[name] for name in _ROW_FIELDS},
                extra=payload.get("extra", {}),
            )
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, truncated, or wrong-shaped (foreign/older schema):
            # stale either way — re-execute the cell.
            return None

    def store(self, index: int, row: SweepRow) -> None:
        payload = {name: getattr(row, name) for name in _ROW_FIELDS}
        payload["extra"] = row.extra
        _atomic_write(
            self._path(index), json.dumps(payload, sort_keys=False) + "\n"
        )


def _atomic_write(path: Path, text: str) -> None:
    """Write-then-rename so an interrupted sweep never leaves a truncated
    cache entry (a torn file would silently re-execute, which is safe,
    but a torn manifest would be misleading)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class SweepResult:
    """Ordered sweep rows plus persistence helpers."""

    rows: list = field(default_factory=list)
    elapsed: float = 0.0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> list[dict]:
        return [row.as_dict() for row in self.rows]

    def failed_invariants(self) -> list:
        """``(row, column, verdict)`` triples of red invariant verdicts
        (rows produced by a ``check=True`` plan; empty means all green)."""
        return [
            (row, key, value)
            for row in self.rows
            for key, value in row.extra.items()
            if key.startswith("inv_") and value != "ok"
        ]

    def to_json(self, path=None) -> str:
        """Deterministic JSON (sorted keys); optionally written to ``path``."""
        payload = json.dumps(self.as_dicts(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(payload + "\n")
        return payload

    def to_csv(self, path) -> None:
        """CSV with the union of row keys, in first-seen order."""
        dicts = self.as_dicts()
        fieldnames: list = []
        for d in dicts:
            for key in d:
                if key not in fieldnames:
                    fieldnames.append(key)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(dicts)

