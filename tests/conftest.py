"""Shared test configuration: hypothesis profiles and the slow tier.

Hypothesis profiles
-------------------
``ci`` (the default) is pinned for reproducible runs: a fixed derandomized
seed and a bounded example budget, so CI failures replay locally and the
tier-1 suite's runtime stays predictable.  ``deep`` is as pinned, with
ten times the examples: CI runs the property tests that hold the array
edge state (the bulk network and the array replay) to the reference
under it.  ``dev`` explores more examples with fresh entropy — select it
with ``HYPOTHESIS_PROFILE=dev`` when hunting for new counterexamples.

Slow tier
---------
Tests marked ``@pytest.mark.slow`` (e.g. the large differential-fuzzer
corpus) are skipped unless ``--runslow`` is passed.
"""

import os

import pytest

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        max_examples=50,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "deep",
        max_examples=500,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=300, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - property tests skip without hypothesis
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow (large differential-fuzzer tier)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
