"""Shared fixtures for the test suite."""

import threading

import numpy as np
import pytest
from hypothesis import settings

from repro.machine import ampere_machine, hopper_machine

# The suite is deterministic: every property test draws the same
# examples on every run, and none fails on a slow host's deadline.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def hopper():
    return hopper_machine()


@pytest.fixture(scope="session")
def ampere():
    return ampere_machine()


@pytest.fixture()
def new_threads():
    """A function naming, sorted, the live threads the test started."""
    before = set(threading.enumerate())
    return lambda: sorted(
        thread.name for thread in threading.enumerate()
        if thread not in before
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_f16(rng, *shape, scale=0.1):
    return (rng.standard_normal(shape) * scale).astype(np.float16)
