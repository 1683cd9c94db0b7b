"""Compare a parent and a change on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT_ROOT CHANGE_ROOT [--workload W ...]

PARENT_ROOT and CHANGE_ROOT are two checkouts whose ``benchmarks/e2e``
files are identical.  For each of ``PAIRS`` pairs ``i`` both sides run
every workload with seed ``SEED_BASE + i`` for the parent's
``BENCHMARK.json`` ``run_seconds``; the side that runs first alternates
between pairs.  Runs are sequential, one process at a time.

For every (workload, end-to-end metric) pair the rule is the
choosing-metrics guide's section 8, with the bounds ``BENCHMARK.json``
fixes:

* ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range;
* ``better``: every change run beats every parent run;
* ``unresolved``: either side's spread (IQR over median) is wider than
  the bound, so "no regression" cannot be shown (unless every change
  run is worse than every parent run: then the median decides);
* ``REGRESSION``: the change's median is worse than the parent's by
  more than the bound;
* ``ok``: within the bound.

A change that fails more reps than the parent is marked ``FAILED``
whatever its timings.  The exit code is 1 on any regression or
failure, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import subprocess
import sys
from pathlib import Path

from run import median_quartiles
from workloads import WORKLOADS

BENCH_DIR = Path("benchmarks") / "e2e"
#: Alternating parent/change pairs: the fewest section 8 accepts.
PAIRS = 10
#: Pair i runs seed SEED_BASE + i on both sides: seeds apart from the
#: ones a change is usually tried on while it is written.
SEED_BASE = 1000


def _benchmark_files(root: Path) -> list:
    base = root / BENCH_DIR
    return sorted(
        p.relative_to(base) for p in base.rglob("*")
        if p.is_file() and ".work" not in p.parts and "__pycache__" not in p.parts
    )


def check_identical(parent: Path, change: Path) -> str | None:
    """Why the two checkouts' benchmarks differ, or None."""
    files = _benchmark_files(parent)
    if files != _benchmark_files(change):
        return "the two checkouts list different benchmark files"
    for rel in files:
        if not filecmp.cmp(parent / BENCH_DIR / rel, change / BENCH_DIR / rel, shallow=False):
            return f"{BENCH_DIR / rel} differs between the checkouts"
    return None


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=root,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def collect(parent: Path, change: Path, workloads: list, seconds: float) -> dict:
    runs = {w: {"parent": [], "change": []} for w in workloads}
    sides = {"parent": parent, "change": change}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                result = run_once(sides[side], w, SEED_BASE + i, seconds)
                runs[w][side].append(result)
                print(f"pair {i + 1}/{PAIRS} {w} {side}: failed {result['failed']}/"
                      f"{result['attempted']}", file=sys.stderr)
    return runs


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """Section 8's verdict for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    pm, pq1, pq3 = median_quartiles(parent)
    cm, cq1, cq3 = median_quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spread = max((pq3 - pq1) / pm, (cq3 - cq1) / cm)
    worse = sign * (cm - pm) / pm
    if wins >= 0.9 * len(parent) and worse < 0 and abs(cm - pm) > pq3 - pq1:
        verdict = "gain"
    elif max(sign * c for c in change) < min(sign * p for p in parent):
        verdict = "better"
    elif spread > bound and min(sign * c for c in change) <= max(sign * p for p in parent):
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    return {
        "verdict": verdict, "parent": [pm, pq1, pq3], "change": [cm, cq1, cq3],
        "wins": wins, "pairs": len(parent), "change_vs_parent": (cm - pm) / pm,
        "spread": spread,
    }


def analyse(runs: dict, metrics: list) -> bool:
    """Print one row per workload; True on any regression or failure."""
    bad = False
    for w, sides in runs.items():
        failed = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
        judged = {}
        for m in metrics:
            values = {
                side: [r["metrics"].get(m["name"], {}).get("value") for r in rs]
                for side, rs in sides.items()
            }
            if any(v is None for vs in values.values() for v in vs):
                judged[m["name"]] = {"verdict": "missing"}
            else:
                judged[m["name"]] = judge(
                    values["parent"], values["change"], m["better"], m["bound"]
                )
        cells = [
            f"{name}: {j['verdict']}"
            + (f" ({j['change_vs_parent']:+.1%} vs parent, {j['wins']}/{j['pairs']} wins, "
               f"spread {j['spread']:.1%})" if "spread" in j else "")
            for name, j in judged.items()
        ]
        status = "FAILED" if failed["change"] > failed["parent"] else ""
        print(f"{w:<20} {status:<7}failed {failed['parent']}->{failed['change']} | "
              + " | ".join(cells))
        bad = bad or status == "FAILED" or any(
            j["verdict"] == "REGRESSION" for j in judged.values()
        )
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout root")
    parser.add_argument("change", type=Path, help="change checkout root")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to compare (repeatable; default: all)")
    args = parser.parse_args(argv)

    why = check_identical(args.parent, args.change)
    if why is not None:
        print(f"error: {why}; measure both sides with identical benchmark code",
              file=sys.stderr)
        return 2
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    runs = collect(args.parent, args.change, args.workload or list(WORKLOADS),
                   bench["run_seconds"])
    return 1 if analyse(runs, bench["end_to_end"]) else 0


if __name__ == "__main__":
    sys.exit(main())
