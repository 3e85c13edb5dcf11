"""Hypothesis profiles of the test suite.

The ``default`` profile (tier-1) derandomizes every Hypothesis test and keeps
no example database, so each run on each machine draws the same examples and
no stored failure is replayed: a failure a run finds is pinned as an
``@example``. ``--hypothesis-profile=soak`` selects the ``soak`` profile:
every Hypothesis test draws :data:`SOAK_FACTOR` times its examples from one
random seed, which the run's summary prints; adding ``--hypothesis-seed=N``
repeats a soak run with seed N.
"""

import random

from hypothesis import is_hypothesis_test, seed, settings

SOAK_FACTOR = 10

settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("soak", database=None)
settings.load_profile("default")


def _soaking(config) -> bool:
    return config.getoption("hypothesis_profile") == "soak"


def pytest_configure(config):
    if _soaking(config):
        config.soak_seed = int(config.getoption("hypothesis_seed") or random.getrandbits(32))


def pytest_terminal_summary(terminalreporter, config):
    if _soaking(config):
        terminalreporter.write_line(
            f"hypothesis soak: {SOAK_FACTOR}x examples, seed {config.soak_seed}; replay with "
            f"--hypothesis-profile=soak --hypothesis-seed={config.soak_seed}")


def pytest_collection_modifyitems(config, items):
    if not _soaking(config):
        return
    # a parametrized test's items share one function: scale each function once
    for test in {item.obj for item in items if is_hypothesis_test(getattr(item, "obj", None))}:
        # the test's own settings (its max_examples included) override any profile's
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=SOAK_FACTOR * own.max_examples)
        seed(config.soak_seed)(test)
