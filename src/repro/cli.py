"""Command-line interface: run any registered scenario on any workload.

Every scenario the CLI knows — names, descriptions, paper references,
capabilities, extra parameters — comes from the scenario registry
(:mod:`repro.registry`); nothing is hardcoded here.

Usage::

    python -m repro --algorithm star --family line --n 128
    python -m repro --algorithm star+flood --family line --n 256
    python -m repro --algorithm wreath --family ring --n 64 --trace
    python -m repro --algorithm wreath --family ring --n 8192 --trace-out t.jsonl
    python -m repro --algorithm wreath --family ring --n 8192 --trace-out t.rtb
    python -m repro check-trace t.rtb -a wreath -f ring --n 8192 --jobs 4
    python -m repro --algorithm star --family gnp --n 256 --check
    python -m repro -a wreath -f ring --n 1024 --backend bulk --profile
    python -m repro sweep -a star -f ring --sizes 8192 --profile --progress
    python -m repro --algorithm star-heal --family ring --n 64 --adversary drop
    python -m repro --list
    python -m repro sweep -a star,euler -f ring,line --sizes 32,64 --parallel
    python -m repro sweep --tier large --check --resume sweep-cache/
    python -m repro sweep -a star+flood,flood-baseline -f line --sizes 256 \\
        --resume sweep-cache/
    python -m repro sweep -a star -f ring --sizes 64 --json rows.json --csv rows.csv
"""

from __future__ import annotations

import argparse
import os
import sys

from . import conformance, graphs
from .analysis import SweepPlan, measure, print_table
from .dynamics import ADVERSARY_KINDS, POLICIES, AdversarySpec, make_adversary
from .engine import (
    ActivityObserver,
    BACKENDS,
    iter_traces,
    resolve_backend,
    trace_sink_for,
)
from .errors import ConfigurationError, TraceError
from .registry import DEFAULT_SCENARIO, check_cell, get_scenario, scenarios
from .telemetry import TelemetryObserver

#: Named sweep grids.  The ``large`` tier is the at-scale corpus the
#: streaming observer pipeline enables: subquadratic transforms only
#: (a quadratic-budget scenario at n=8192 would materialize tens of
#: millions of edges), general families, sizes past the old in-memory
#: trace ceiling.  Algorithms are derived from the registry, never
#: hardcoded.
SWEEP_TIERS: dict = {
    "large": {
        "algorithms": lambda: [
            spec.name
            for spec in scenarios("distributed")
            if not any(name.endswith("quadratic") for name in spec.invariants)
        ],
        "families": ["ring", "gnp"],
        "sizes": [2048, 4096, 8192],
        # Tier cells run for minutes: stream the in-cell round heartbeat
        # by default (--quiet opts out, --progress turns it on anywhere).
        "heartbeat": True,
    },
    # The ``xlarge`` tier (PR 6) runs the log-round bulk-capable
    # scenarios at n = 10^5 on the array-native backend.  Two exclusions
    # are not backend limits: the wreath family's round count grows ~2n
    # on increasing-order rings (ring splices advance one stepping stone
    # per round; a known defect, DESIGN.md note 9), exceeding the engine
    # round limit long before 10^5; and the
    # flood-style scenarios (token dissemination *and* max-UID leader
    # election, which floods all n UIDs) are Theta(n^2) information by
    # definition — ``quadratic_state`` in the registry — so they fit no
    # memory budget at this scale.  A tier may preset "backend"; an
    # explicit --backend flag overrides it like any other field.
    "xlarge": {
        "algorithms": lambda: [
            spec.name
            for spec in scenarios()
            if spec.kind in ("distributed", "composition")
            and spec.supports_bulk
            and "rounds:log" in spec.invariants
            and not spec.quadratic_state
        ],
        "families": ["ring"],
        "sizes": [100_000],
        "backend": "bulk",
        "heartbeat": True,
    },
    # The ``xxlarge`` tier (PR 9) pushes to n = 10^6.  At this scale
    # even the sparse per-node paths are too slow; only scenarios whose
    # whole rounds execute as array dispatches (the derived ``kernel``
    # capability) and that keep sub-quadratic state qualify — today
    # that is GraphToStar on the star dense-phase kernel.  Budget on a
    # 2-vCPU VM: ~8 s build + ~31 s run, ~63 s for the checked cell,
    # about 1.6 GB peak RSS (see BENCH_engine.json and the CI xxlarge
    # smoke ceilings).
    "xxlarge": {
        "algorithms": lambda: [
            spec.name
            for spec in scenarios()
            if spec.kind in ("distributed", "composition")
            and spec.supports_bulk
            and spec.kernel_level() == "kernel"
            and "rounds:log" in spec.invariants
            and not spec.quadratic_state
        ],
        "families": ["ring"],
        "sizes": [1_000_000],
        "backend": "bulk",
        "heartbeat": True,
    },
}


def _csv_list(value: str) -> list[str]:
    return [item for item in (part.strip() for part in value.split(",")) if item]


def _csv_ints(value: str) -> list[int]:
    return [int(item) for item in _csv_list(value)]


def _positive_int(value: str) -> int:
    """A process-pool size: an int of at least 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


# argparse prints the type's __name__ in "invalid ... value" errors.
_csv_list.__name__ = "name list"
_csv_ints.__name__ = "integer list"
_positive_int.__name__ = "positive integer"


def _registry_params() -> dict:
    """Every distinct extra parameter declared by any registered scenario
    (first declaration wins on a name collision)."""
    params: dict = {}
    for spec in scenarios():
        for param in spec.params:
            params.setdefault(param.name, param)
    return params


def _add_engine_flags(parser, *, subcommand: bool = False) -> None:
    """Flags shared by the root run parser and the sweep subparser."""
    # The sweep subparser shares these dests with the root parser; its
    # defaults must not clobber values already parsed before the
    # subcommand (`repro --adversary drop sweep ...`), hence SUPPRESS.
    def default(value):
        return argparse.SUPPRESS if subcommand else value

    parser.add_argument(
        "--backend", choices=BACKENDS, default=default(None),
        help="engine backend (default: $REPRO_BACKEND, then 'reference'; "
             "both produce byte-identical traces — see DESIGN.md)",
    )
    parser.add_argument(
        "--adversary", choices=ADVERSARY_KINDS, default=default(None),
        help="external perturbation schedule (see repro.dynamics)",
    )
    parser.add_argument(
        "--churn-rate", type=float, default=default(0.1),
        help="per-edge/per-node perturbation probability per strike",
    )
    parser.add_argument(
        "--adversary-seed", type=int, default=default(1),
        help="seed of the adversary's schedule (independent of --seed)",
    )
    parser.add_argument(
        "--adversary-policy", choices=POLICIES, default=default("skip"),
        help="connectivity policy: skip disconnecting events, or reroute them",
    )
    parser.add_argument(
        "--check", action="store_true", default=default(False),
        help="run the scenario's declared paper-bound invariants online "
             "(repro.conformance) and report per-run verdicts; exit 1 on red",
    )
    parser.add_argument(
        "--profile", action="store_true", default=default(False),
        help="collect runtime telemetry (per-round timing, wake/live-set "
             "occupancy, per-phase breakdown; repro.telemetry): prints a "
             "profile summary after a run, stamps prof_* columns into "
             "sweep rows",
    )
    for param in _registry_params().values():
        capable = ", ".join(
            s.name for s in scenarios() if s.param(param.name) is not None
        )
        parser.add_argument(
            f"--{param.name.replace('_', '-')}",
            dest=param.name, type=param.type, default=default(None),
            help=f"{param.help} (default {param.default}; {capable} only)",
        )


def _adversary_spec(args) -> AdversarySpec | None:
    if args.adversary is None:
        return None
    return AdversarySpec(
        kind=args.adversary,
        rate=args.churn_rate,
        seed=args.adversary_seed,
        policy=args.adversary_policy,
    )


def _provided_params(args) -> dict:
    """The registry-declared extra parameters the user actually passed."""
    return {
        name: value
        for name in _registry_params()
        if (value := getattr(args, name, None)) is not None
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Actively dynamic network reconfiguration (PODC 2020 reproduction)",
    )
    parser.add_argument(
        "--algorithm", "-a",
        choices=[spec.name for spec in scenarios()], default=DEFAULT_SCENARIO,
    )
    parser.add_argument("--family", "-f", choices=sorted(graphs.FAMILIES), default="line")
    parser.add_argument("--n", type=int, default=64, help="target network size")
    parser.add_argument("--seed", type=int, default=0, help="UID permutation seed (0 = canonical)")
    parser.add_argument("--trace", action="store_true", help="print per-round activations")
    parser.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help="stream the full trace to PATH while running (constant "
             "memory); the extension negotiates the format — .rtb "
             "writes the compact framed binary archive, anything else "
             "JSONL byte-identical to Trace.to_jsonl",
    )
    parser.add_argument(
        "--profile-out", dest="profile_out", default=None, metavar="PATH",
        help="write the merged RunProfile JSON (repro-run-profile/1) to "
             "PATH (implies --profile)",
    )
    parser.add_argument("--check-connectivity", action="store_true")
    parser.add_argument(
        "--list", action="store_true",
        help="list registered scenarios (kind, capabilities, paper ref) and families",
    )
    _add_engine_flags(parser)

    sub = parser.add_subparsers(dest="command")
    sweep = sub.add_parser(
        "sweep",
        help="run an algorithms × families × sizes grid (optionally in parallel)",
    )
    sweep.add_argument(
        "--algorithms", "-a", type=_csv_list, default=None,
        help=f"comma-separated registered algorithm names "
             f"(default: the tier's grid, or {DEFAULT_SCENARIO!r})",
    )
    sweep.add_argument(
        "--families", "-f", type=_csv_list, default=None,
        help="comma-separated family names (default: the tier's grid, or 'line')",
    )
    sweep.add_argument(
        "--sizes", "-n", type=_csv_ints, default=None,
        help="comma-separated target sizes (default: the tier's grid, or 64)",
    )
    sweep.add_argument(
        "--tier", choices=sorted(SWEEP_TIERS), default=None,
        help="named sweep grid preset; 'large' runs the subquadratic "
             "transforms on general families at n=2048..8192 (streaming "
             "observers keep memory bounded), 'xlarge' runs the "
             "bulk-capable transforms at n=100000 on the bulk backend — "
             "explicit -a/-f/--sizes/--backend flags override the preset "
             "field-by-field",
    )
    sweep.add_argument(
        "--seeds", type=_csv_ints, default=[0],
        help="comma-separated UID permutation seeds",
    )
    _add_engine_flags(sweep, subcommand=True)
    sweep.add_argument(
        "--progress", action="store_true",
        help="stream an in-cell round heartbeat plus per-cell completion "
             "lines (cells done/total, elapsed) to stderr; tier presets "
             "enable this by default — --quiet wins",
    )
    sweep.add_argument("--parallel", action="store_true", help="use a process pool")
    sweep.add_argument(
        "--workers", type=_positive_int, default=None, help="process-pool size"
    )
    sweep.add_argument(
        "--resume", dest="resume_dir", default=None, metavar="DIR",
        help="cache one row per cell under DIR; a re-run executes only "
             "missing/changed cells, byte-identical to a fresh run",
    )
    sweep.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    sweep.add_argument("--csv", dest="csv_path", default=None, help="write rows as CSV")
    sweep.add_argument("--quiet", action="store_true", help="suppress progress output")
    sweep.add_argument(
        "--trace-out", dest="trace_out", default=argparse.SUPPRESS,
        metavar="TEMPLATE",
        help="stream every executed cell's trace to a per-cell path "
             "resolved from {algorithm}/{family}/{n}/{seed} placeholders "
             "(e.g. traces/{algorithm}-{family}-{n}.rtb); the extension "
             "negotiates the format (.rtb binary, else JSONL); cells "
             "served from --resume write no archive",
    )

    chk = sub.add_parser(
        "check-trace",
        help="audit an archived trace (JSONL or .rtb) offline against a "
             "scenario's declared paper-bound invariants",
    )
    chk.add_argument(
        "archive", metavar="PATH",
        help="trace archive to audit (format sniffed by content)",
    )
    # Shares --algorithm/--family/--n/--seed dests with the root parser
    # (same SUPPRESS contract as the sweep subparser): they describe the
    # graph the archive was recorded on.
    chk.add_argument(
        "--algorithm", "-a",
        choices=[spec.name for spec in scenarios()], default=argparse.SUPPRESS,
        help="scenario whose declared invariants to audit against",
    )
    chk.add_argument(
        "--family", "-f", choices=sorted(graphs.FAMILIES),
        default=argparse.SUPPRESS,
        help="workload family the archive was recorded on",
    )
    chk.add_argument(
        "--n", type=int, default=argparse.SUPPRESS,
        help="network size the archive was recorded at",
    )
    chk.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="UID permutation seed of the recorded run",
    )
    chk.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="process-pool size for per-segment audits (default: the CPU "
             "count; 1 audits inline with no pool)",
    )
    chk.add_argument(
        "--baselines", choices=("chained", "restart"), default="chained",
        help="what each archive segment replays against: the previous "
             "segment's end state (chained — the pipeline contract) or "
             "the initial graph again (restart — concatenated repeated "
             "runs)",
    )
    return parser


def _error(message) -> int:
    """Report a usage error as one ``repro: error:`` line; exit code 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _check_writable(*outputs) -> None:
    """Raise :class:`ConfigurationError` for the first ``(flag, path)``
    output that cannot be written, so a bad path fails before the run
    rather than after it.  ``None`` paths are skipped."""
    for flag, path in outputs:
        if path is None:
            continue
        target = os.path.abspath(path)
        parent = os.path.dirname(target)
        if os.path.isdir(target):
            reason = "is a directory"
        elif not os.path.isdir(parent):
            reason = f"has no directory {parent}"
        elif not os.access(parent, os.W_OK) or (
            os.path.exists(target) and not os.access(target, os.W_OK)
        ):
            reason = "is not writable"
        else:
            continue
        raise ConfigurationError(f"{flag} {path} {reason}")


def _check_cells(args, algorithms, families) -> int:
    """Resolve every requested scenario and validate every requested cell
    through the registry's single capability path.  Returns an exit code
    (0 = all cells are runnable)."""
    params = _provided_params(args)
    try:
        adversary = _adversary_spec(args)
        for name in algorithms:
            spec = get_scenario(name)  # fail fast, before any cell runs
            for family in families:
                check_cell(
                    spec, family=family, backend=args.backend,
                    adversary=adversary, params=params,
                    trace=getattr(args, "trace", False),
                )
            if spec.supports_backend:
                resolve_backend(args.backend)  # $REPRO_BACKEND may name none
    except ConfigurationError as exc:
        return _error(exc)
    return 0


def _main_list() -> int:
    specs = scenarios()
    width = max(len(spec.name) for spec in specs) + 2
    for spec in specs:
        print(
            f"{spec.name:{width}s} {spec.kind:13s} "
            f"{spec.capabilities():24s} {spec.paper:18s} {spec.description}"
        )
    print("\nfamilies:", ", ".join(sorted(graphs.FAMILIES)))
    return 0


def _resolve_tier(args) -> tuple[list, list, list]:
    """The sweep grid: explicit flags beat the tier preset beats the
    single-cell defaults, field by field."""
    tier = SWEEP_TIERS.get(args.tier) if args.tier else None
    algorithms = args.algorithms
    if algorithms is None:
        algorithms = tier["algorithms"]() if tier else [DEFAULT_SCENARIO]
    families_ = args.families
    if families_ is None:
        families_ = list(tier["families"]) if tier else ["line"]
    sizes = args.sizes
    if sizes is None:
        sizes = list(tier["sizes"]) if tier else [64]
    if tier and args.backend is None and "backend" in tier:
        args.backend = tier["backend"]
    return algorithms, families_, sizes


def _main_sweep(args) -> int:
    algorithms, families_, sizes = _resolve_tier(args)
    for family in families_:
        if family not in graphs.FAMILIES:
            return _error(f"unknown family {family!r}; known: {sorted(graphs.FAMILIES)}")
        try:
            for seed in args.seeds:  # fail fast, before any cell runs
                graphs.families.check_seed(family, seed)
        except ConfigurationError as exc:
            return _error(exc)
    code = _check_cells(args, algorithms, families_)
    if code:
        return code
    try:
        _check_writable(("--json", args.json_path), ("--csv", args.csv_path))
    except ConfigurationError as exc:
        return _error(exc)
    plan = SweepPlan.grid(
        algorithms, families_, sizes,
        seeds=args.seeds, adversary=_adversary_spec(args),
        backend=args.backend, runner_kwargs=_provided_params(args),
        check=args.check, profile=args.profile,
    )
    tier = SWEEP_TIERS.get(args.tier) if args.tier else None
    heartbeat = args.progress or bool(tier and tier.get("heartbeat"))
    try:
        result = plan.run(
            parallel=args.parallel,
            max_workers=args.workers,
            progress=not args.quiet,
            resume_dir=args.resume_dir,
            heartbeat_s=10.0 if heartbeat and not args.quiet else 0.0,
            trace_out=getattr(args, "trace_out", None),
        )
    except ConfigurationError as exc:
        return _error(exc)
    if args.json_path:
        result.to_json(args.json_path)
    if args.csv_path:
        result.to_csv(args.csv_path)
    print_table(
        result.as_dicts(),
        title=f"sweep: {len(plan)} cells in {result.elapsed:.2f}s"
        + (" (parallel)" if args.parallel else ""),
    )
    if args.check:
        failed = result.failed_invariants()
        for row, column, verdict in failed:
            print(
                f"invariant violated: {row.algorithm}/{row.family}/n={row.n} "
                f"{column[len('inv_'):]}: {verdict}",
                file=sys.stderr,
            )
        if failed:
            return 1
    return 0


def _main_check_trace(args) -> int:
    """Offline audit: replay an archive against a scenario's invariants."""
    spec = get_scenario(args.algorithm)
    if not spec.invariants:
        return _error(
            f"scenario {args.algorithm!r} declares no invariants to audit "
            f"against; pick the scenario the archive was recorded with"
        )
    try:
        graph = graphs.make(args.family, args.n, seed=args.seed)
        verdicts = conformance.check_trace_parallel(
            graph, args.archive, spec.invariants,
            jobs=args.jobs, baselines=args.baselines,
        )
    except (ConfigurationError, TraceError) as exc:
        return _error(exc)
    print_table(
        [{v.invariant: v.cell for v in verdicts}],
        title=f"offline audit: {args.archive} "
              f"({args.algorithm}/{args.family} n={args.n})",
    )
    return 1 if any(not v.ok for v in verdicts) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "sweep":
        return _main_sweep(args)
    if getattr(args, "command", None) == "check-trace":
        return _main_check_trace(args)
    if args.list:
        return _main_list()

    code = _check_cells(args, [args.algorithm], [args.family])
    if code:
        return code
    spec = get_scenario(args.algorithm)
    try:
        _check_writable(("--trace-out", args.trace_out), ("--profile-out", args.profile_out))
        graph = graphs.make(args.family, args.n, seed=args.seed)
    except ConfigurationError as exc:
        return _error(exc)
    kwargs = _provided_params(args)
    # Every sink on the run is a streaming observer: --trace keeps only
    # a bounded activity summary, --trace-out streams JSONL to disk, and
    # --check runs the online invariant checkers — the full trace is
    # never materialized in memory, whatever the combination.
    observers: list = []
    activity = sink = None
    checkers: list = []
    if args.trace or args.trace_out:
        try:
            check_cell(spec, trace=True)
        except ConfigurationError as exc:
            return _error(exc)
    if args.trace:
        activity = ActivityObserver()
        observers.append(activity)
    if args.trace_out:
        sink = trace_sink_for(args.trace_out)
        observers.append(sink)
    if args.check:
        checkers = conformance.make_checkers(spec.invariants)
        observers.extend(checkers)
    telemetry = None
    if args.profile or args.profile_out:
        telemetry = TelemetryObserver(
            heartbeat_every=1, heartbeat_min_interval_s=10.0,
            heartbeat_min_rounds=32,
            heartbeat_label=f"{args.algorithm}/{args.family} n={args.n}",
        )
        observers.append(telemetry)
    if observers:
        kwargs["observers"] = observers
    if args.check_connectivity and spec.supports_backend:
        kwargs["check_connectivity"] = True
    if args.backend is not None:
        kwargs["backend"] = args.backend
    adversary = _adversary_spec(args)
    if adversary is not None:
        kwargs["adversary"] = make_adversary(adversary)
    try:
        result = spec.runner(graph, **kwargs)
    except ConfigurationError as exc:
        return _error(exc)
    finally:
        if sink is not None:
            sink.close()

    row = measure(args.algorithm, args.family, graph, result).as_dict()
    if adversary is not None:
        row["adversary"] = adversary.label()
    if spec.supports_backend:
        row["backend"] = resolve_backend(args.backend)
    print_table(
        [row],
        title=f"{spec.description} on {args.family} (n={graph.number_of_nodes()})",
    )
    recovery = getattr(result, "recovery", None)
    if recovery is not None:
        print_table([recovery.as_dict()], title="recovery")
    if telemetry is not None:
        prof = telemetry.profile()
        if args.profile_out:
            prof.to_json(args.profile_out)
        print_table([prof.summary_row()], title="profile")
        print_table(prof.breakdown_table(), title="per-phase breakdown")
    if activity is not None:
        # Segment i of the activity stream is the i-th iter_traces label
        # (stages/episodes arrive in execution order); the labels come
        # from the result shape, the rounds were summarized online.
        labels = [label for label, _ in iter_traces(result)]
        for label, segment in zip(labels, activity.segments):
            title = f"{label} activity" if label else "activity"
            print_table(
                segment[: activity.limit],
                title=f"{title} (first {activity.limit} active rounds)",
            )
    if args.check:
        verdicts = [c.verdict() for c in checkers]
        print_table(
            [{v.invariant: v.cell for v in verdicts}]
            if verdicts
            else [{"invariants": "none declared"}],
            title="invariants",
        )
        if any(not v.ok for v in verdicts):
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
