"""End-to-end benchmark: checked user cells, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                       # every workload, 5 reps each
    python3 benchmarks/e2e/run.py --workload star-ring-8k --seed 3 --seconds 25
    python3 benchmarks/e2e/run.py --workload wreath-gnp-1k --trace 1

Closed loop with one client: each rep is one child process
(``cell.py``, a fresh interpreter) and the next starts only after it
exits, so at most one process does work at a time.  Several workloads
are interleaved round-robin with a rotating start.  ``--seconds`` keeps
a workload's reps going until they have taken that much wall time (at
least three reps); otherwise ``--reps`` are run.

Every rep's output is checked: its digest (sweep row plus verdicts,
and the archive's content where there is one) must repeat across reps
and, at seed 0, equal the pin in ``expected.json``; no verdict may be
red unless the workload pins it red; an audit's offline verdicts must
equal the live ones its prep step recorded; the engine's counts must
repeat exactly.  A failed check, a non-zero exit or a timeout counts as
a failed rep and is never dropped.

``--trace 1`` alternates untraced reps with traced ones (``cell.py
--trace``) and reports per-layer metrics instead of end-to-end ones;
the traced reps' spans are written to ``.work/spans.json`` at exit.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each a median over the reps, with its
unit).  The exit code is 0 when every rep passed, 1 when one failed,
and 2 when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

#: End-to-end metrics, from untraced reps: name -> unit.  Times are in
#: reference-CPU seconds (``cell.py``, ``calibrate``).
E2E = {"setup_s": "s", "cell_s": "s", "peak_rss_mb": "MB"}
#: The same times as raw wall seconds: printed, not in the result line.
WALL = ("setup_wall_s", "cell_wall_s")

#: Per-layer metrics reported in the result line: the ones every
#: workload measures (README.md says which end-to-end metric each should
#: move, on which workload).  The printed layer table and the spans file
#: also carry the workload-specific ones (phases, sink, decode, audit).
LAYERS = {
    "graphs.build_s": "s",
    "graphs.measure_s": "s",
    "engine.final_graph_s": "s",
    "engine.self_s": "s",
    "engine.activations_per_s": "1/s",
    "engine.round_p50_us": "us",
    "engine.round_p90_us": "us",
    "engine.rounds": "count",
    "engine.activations": "count",
    "engine.dispatch.kernel": "count",
    "engine.dispatch.sparse": "count",
    "engine.dispatch.assist": "count",
    "conformance.connectivity_s": "s",
    "conformance.legality_s": "s",
    "conformance.budgets_s": "s",
    "conformance.per_round_us": "us",
    "conformance.share": "ratio",
    "tracebin.archive_bytes": "bytes",
    "repro.import_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Span name -> layer, where they differ (``cell.py`` names the spans).
SPAN_LAYER = {
    "conformance.make_checkers": "conformance.setup",
    "conformance.temporal-legality": "conformance.legality",
    "engine.run": "engine.self",
    "tracebin.sink_open": "tracebin.sink",
    "tracebin.sink_close": "tracebin.sink",
}
CHECKER_LAYERS = ("conformance.connectivity_s", "conformance.legality_s", "conformance.budgets_s")
DISPATCH_PATHS = ("kernel", "sparse", "assist")
ROOT_SPAN = "rep"
MIN_REPS = 3


def median_quartiles(values: list) -> tuple:
    """(median, q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _layer(span: str) -> str:
    if span in SPAN_LAYER:
        return SPAN_LAYER[span]
    if span.startswith("conformance.") and ":" in span:
        return "conformance.budgets"
    return span


def rep_layers(out: dict) -> dict:
    """Per-layer metrics of one traced rep: each layer's self time (its
    spans minus their child spans) plus the counts and ratios.  Times are
    in reference-CPU seconds, like the end-to-end ones."""
    spans = out["spans"]
    scale = out["scale"]
    self_s = {name: span["s"] for name, span in spans.items()}
    for span in spans.values():
        if span["parent"] is not None:
            self_s[span["parent"]] -= span["s"]
    m: dict = {}
    for name, secs in self_s.items():
        if name != ROOT_SPAN:
            key = _layer(name) + "_s"
            m[key] = m.get(key, 0.0) + secs * scale
    source = spans.get("engine.run") or spans["conformance.audit"]  # what feeds the checkers
    checks = sum(m.get(k, 0.0) for k in CHECKER_LAYERS)
    m["conformance.share"] = checks / (source["s"] * scale)
    m["trace.coverage"] = 1.0 - self_s[ROOT_SPAN] / spans[ROOT_SPAN]["s"]
    m["repro.import_s"] = out["import_s"] * scale
    m.update(out["counts"])
    if "engine.self_s" in m:
        m["engine.activations_per_s"] = out["counts"]["engine.activations"] / m["engine.self_s"]
        m["engine.round_p50_us"] = out["round_p50_us"] * scale
        m["engine.round_p90_us"] = out["round_p90_us"] * scale
        for phase, secs in out["phases"].items():
            m[f"engine.phase.{phase}_s"] = secs * scale
        for path in DISPATCH_PATHS:
            m[f"engine.dispatch.{path}"] = out["dispatch"].get(path, 0)
    return m


class WorkloadRun:
    """Reps, failures and results of one workload in one invocation."""

    def __init__(self, w, n: int, seed: int, pinned, pin_error, work: Path) -> None:
        self.w = w
        self.n = n
        self.seed = seed
        #: The digest expected.json pins for this cell (None: no pin), or
        #: why the pins could not be read (every rep then fails).
        self.pinned = pinned
        self.pin_error = pin_error
        self.archive = str(work / f"{w.name}.rtb") if w.mode != "live" else None
        self.prep = None
        self.untraced: list = []
        self.traced: list = []
        self.failures: list = []
        self.attempts = 0
        self.reps = 0
        self.spent = 0.0
        self.digest = None
        self.counts = None
        self.dispatch = None

    def _child(self, *, trace: bool, prep: bool = False, timeout: float):
        cmd = [
            sys.executable, str(HERE / "cell.py"), self.w.name,
            "--n", str(self.n), "--seed", str(self.seed),
        ]
        if self.archive is not None:
            cmd += ["--archive", self.archive]
        if prep:
            cmd.append("--prep")
        if trace:
            cmd.append("--trace")
        # The package's REPRO_* knobs (backend, checker choice) stay at
        # their defaults: the benchmark measures what a user gets.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempts += 1
        t = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        finally:
            self.spent += time.perf_counter() - t
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"exit {proc.returncode}: {tail[0]}"
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), None
        except (IndexError, ValueError):
            return None, "no result line on stdout"

    def run_prep(self, *, trace: bool, timeout: float) -> None:
        """Record the audit's archive with live checkers attached."""
        out, error = self._child(trace=trace, prep=True, timeout=timeout)
        if error is None and any(not ok for ok, _ in out["verdicts"].values()):
            error = f"prep recorded red live verdicts: {out['verdicts']}"
        if error is not None:
            self.failures.append(f"prep: {error}")
        else:
            self.prep = out

    def rep(self, *, trace: bool, timeout: float) -> None:
        traced = trace and self.reps % 2 == 1
        self.reps += 1
        out, error = self._child(trace=traced, timeout=timeout)
        if error is None:
            error = self._check(out)
        if error is not None:
            self.failures.append(f"rep {self.reps}: {error}")
        else:
            (self.traced if traced else self.untraced).append(out)

    def _check(self, out: dict) -> str | None:
        red = [
            name for name, (ok, _) in out["verdicts"].items()
            if not ok and name not in self.w.expected_red
        ]
        if red:
            return f"unexpected red verdicts {red}"
        if self.prep is not None and out["verdicts"] != self.prep["verdicts"]:
            return "offline verdicts differ from the live ones recorded in the prep step"
        if self.pin_error is not None:
            return self.pin_error
        if self.pinned is not None and out["digest"] != self.pinned:
            return f"digest {out['digest']} differs from expected.json {self.pinned[:12]}"
        self.digest = self.digest or out["digest"]
        if out["digest"] != self.digest:
            return f"digest {out['digest'][:12]} differs from the first rep's {self.digest[:12]}"
        self.counts = self.counts or out["counts"]
        if out["counts"] != self.counts:
            return f"counts {out['counts']} differ from the first rep's {self.counts}"
        if "dispatch" in out:
            self.dispatch = self.dispatch or out["dispatch"]
            if out["dispatch"] != self.dispatch:
                return f"dispatch {out['dispatch']} differs from the first rep's {self.dispatch}"
        return None

    def done(self, args) -> bool:
        if self.w.mode == "audit" and self.prep is None:
            return True
        if args.seconds is None:
            return self.reps >= args.reps * (2 if args.trace else 1)
        return self.spent >= args.seconds and (
            self.reps >= MIN_REPS or self.spent >= 3 * args.seconds
        )

    def e2e(self, names=tuple(E2E)) -> dict:
        if not self.untraced:
            return {}
        return {name: median_quartiles([r[name] for r in self.untraced]) for name in names}

    def layers(self) -> dict:
        """Median per-layer metrics of the traced reps; on the audit the
        engine-side layers come from the (traced) prep run."""
        per_rep = [rep_layers(r) for r in self.traced]
        keys = sorted({k for m in per_rep for k in m})
        merged = {k: statistics.median([m[k] for m in per_rep if k in m]) for k in keys}
        if self.prep is not None and "spans" in self.prep:
            for k, v in rep_layers(self.prep).items():
                merged.setdefault(k, v)
        if self.traced and self.untraced:
            merged["trace.overhead"] = (
                statistics.median(r["cell_s"] for r in self.traced)
                / statistics.median(r["cell_s"] for r in self.untraced) - 1.0
            )
        if merged.get("engine.rounds"):
            checks = sum(merged.get(k, 0.0) for k in CHECKER_LAYERS)
            merged["conformance.per_round_us"] = checks / merged["engine.rounds"] * 1e6
        if merged:
            merged.setdefault("tracebin.archive_bytes", 0)
        return merged

    def spans(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "prep": self.prep.get("spans") if self.prep else None,
            "reps": [r["spans"] for r in self.traced],
        }


def load_expected(path: Path):
    """``(pins, None)``, or ``({}, why)`` when the file cannot be used."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return {}, f"cannot use {path}: {exc}"
    if not isinstance(data, dict) or not all(isinstance(v, dict) for v in data.values()):
        return {}, f"{path} is not a workload -> n -> digest mapping"
    return data, None


def print_e2e(run: WorkloadRun) -> None:
    print(
        f"\n== {run.w.name}: n={run.n} seed={run.seed}, {len(run.untraced)} untraced "
        f"reps, {len(run.failures)}/{run.attempts} failed =="
    )
    print(f"{'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
    for name, (med, q1, q3) in run.e2e(tuple(E2E) + WALL).items():
        print(f"{name:<14}{E2E.get(name, 's'):<7}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{len(run.untraced):>5}")
    fail_rate = len(run.failures) / max(run.attempts, 1)
    print(f"{'fail_rate':<14}{'ratio':<7}{fail_rate:>12.4f}{'':>24}{run.attempts:>5}")
    if run.digest is not None:
        pin = "matches expected.json" if run.pinned else "no pin for this seed and n"
        print(f"digest {run.digest} ({pin})")
    for failure in run.failures:
        print(f"FAILED {failure}")


def print_layers(run: WorkloadRun, layers: dict) -> None:
    print(
        f"-- layers: {len(run.traced)} traced reps; coverage "
        f"{layers.get('trace.coverage', 0):.1%}, overhead "
        f"{layers.get('trace.overhead', 0):+.1%} --"
    )
    for name in sorted(layers):
        unit = LAYERS.get(name, "s")
        mark = "" if name in LAYERS else "  (table only)"
        print(f"{name:<34}{layers[name]:>16.6g} {unit}{mark}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload input seed")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float, default=None,
                        help="wall time per workload (at least 3 reps)")
    budget.add_argument("--reps", type=int, default=5, help="reps per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced reps")
    parser.add_argument("--n", type=int, default=None,
                        help="override every workload's network size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pins, pin_error = load_expected(EXPECTED)
    timeout = 3600.0 if args.seconds is None else max(60.0, 6 * args.seconds)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    runs = []
    try:
        for name in args.workload or list(WORKLOADS):
            w = WORKLOADS[name]
            n = args.n or w.n
            seed = args.seed if w.seeded else 0
            pinned = pins.get(w.name, {}).get(str(n)) if seed == 0 else None
            runs.append(WorkloadRun(w, n, seed, pinned, pin_error if seed == 0 else None, work))
        for run in runs:
            if run.w.mode == "audit":
                run.run_prep(trace=bool(args.trace), timeout=timeout)
        turn = 0
        while active := [run for run in runs if not run.done(args)]:
            k = turn % len(active)
            for run in active[k:] + active[:k]:
                run.rep(trace=bool(args.trace), timeout=timeout)
            turn += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: dict = {}
    spans = {}
    for run in runs:
        print_e2e(run)
        if args.trace:
            layers = run.layers()
            print_layers(run, layers)
            spans[run.w.name] = run.spans()
            values = {k: (layers[k], u) for k, u in LAYERS.items() if k in layers}
        else:
            values = {k: (med, E2E[k]) for k, (med, _, _) in run.e2e().items()}
        for k, (value, unit) in values.items():
            key = f"{run.w.name}/{k}" if len(runs) > 1 else k
            metrics[key] = {"value": value, "unit": unit}
    if args.trace:
        (WORK / "spans.json").write_text(json.dumps(spans, indent=1, sort_keys=True))
        print(f"spans written to {WORK / 'spans.json'}", file=sys.stderr)

    failed = sum(len(run.failures) for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run.attempts for run in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
