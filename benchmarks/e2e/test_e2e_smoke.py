"""Smoke test of the end-to-end benchmark harness at tiny n.

Runs ``run.py`` as a user would, with one rep per workload at n=64 (the
pins in ``expected.json`` cover that size), so the whole file takes a
few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, harness=HERE):
    proc = subprocess.run(
        [sys.executable, str(harness / "run.py"), "--n", "64", "--reps", "1", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, section):
    proc, result = _run("--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    want = {
        f"{w['name']}/{m['name']}": m["unit"]
        for w in BENCH["workloads"] for m in BENCH[section]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("content", ["{not json", '{"%s": {"64": "0123abcd"}}'])
def test_corrupted_expected_json_counts_as_a_failure(tmp_path, content):
    # A copy of the harness next to the real sources, with its pins corrupted.
    harness = tmp_path / "benchmarks" / "e2e"
    harness.mkdir(parents=True)
    for name in ("run.py", "cell.py", "workloads.py"):
        shutil.copy(HERE / name, harness / name)
    (tmp_path / "src").symlink_to(ROOT / "src")
    workload = BENCH["workloads"][0]["name"]
    (harness / "expected.json").write_text(content.replace("%s", workload))
    proc, result = _run("--workload", workload, harness=harness)
    assert proc.returncode == 1, proc.stderr
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
