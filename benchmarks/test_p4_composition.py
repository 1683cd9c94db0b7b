"""P4 — Section 1.3 payoff gate: transformed dissemination beats flooding.

The composition pipeline scenarios (registered as ``star+flood`` /
``wreath+flood`` / ``flood-baseline``) reproduce the paper's headline
composition claim end to end: reconfigure to (poly)log diameter, then
solve the small-diameter task, for fewer *total* rounds than running the
task on ``G_s`` directly.  Unlike E12 (which composes by hand), these
run through the scenario registry — the exact path `python -m repro` and
sweeps use — and the crossover is asserted, so it gates CI in quick mode.
"""

import pytest

from conftest import run_once
from repro.graphs import families
from repro.registry import get_scenario

#: The gate of the issue/CI: on a high-diameter line at n >= 256 the
#: composed pipeline must win outright.
GATED_SIZES = [256, 400]


def _run(name: str, family: str, n: int, **kwargs):
    return get_scenario(name).runner(families.make(family, n), **kwargs)


@pytest.mark.parametrize("n", GATED_SIZES)
def test_p4_star_flood_beats_direct_flooding_on_line(benchmark, experiment_rows, n):
    composed = run_once(benchmark, _run, "star+flood", "line", n)
    baseline = _run("flood-baseline", "line", n)
    cols = composed.stage_columns()
    experiment_rows(
        "P4 composition payoff (Sec 1.3)",
        {
            "n": n,
            "transform_rounds": cols["transform_rounds"],
            "solve_rounds": cols["solve_rounds"],
            "composed_total": composed.rounds,
            "flooding_on_Gs": baseline.rounds,
            "speedup": f"{baseline.rounds / composed.rounds:.2f}x",
        },
    )
    assert composed.rounds < baseline.rounds


def test_p4_wreath_flood_solve_stage_is_polylog(benchmark, experiment_rows):
    n = 128
    composed = run_once(benchmark, _run, "wreath+flood", "line", n)
    cols = composed.stage_columns()
    experiment_rows(
        "P4 composition payoff (Sec 1.3)",
        {
            "n": f"{n} (wreath)",
            "transform_rounds": cols["transform_rounds"],
            "solve_rounds": cols["solve_rounds"],
            "composed_total": composed.rounds,
            "flooding_on_Gs": _run("flood-baseline", "line", n).rounds,
            "speedup": "-",
        },
    )
    assert cols["solve_rounds"] <= 30  # over an O(log n)-depth tree


def test_p4_payoff_holds_on_both_backends():
    """The crossover is an engine-independent claim; assert it per backend
    and that both backends measure identical pipeline costs."""
    totals = {}
    for backend in ("reference", "bulk"):
        composed = _run("star+flood", "line", 256, backend=backend)
        baseline = _run("flood-baseline", "line", 256, backend=backend)
        assert composed.rounds < baseline.rounds
        totals[backend] = (composed.rounds, composed.metrics.total_activations,
                           baseline.rounds)
    assert totals["reference"] == totals["bulk"]
