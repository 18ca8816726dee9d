"""Fixtures shared by several test modules."""

import time

import pytest

from maternsmooth.experiments import run_identity_suite


@pytest.fixture(scope="session")
def identity_result():
    """The identity suite on its default grid, run once per test session, and
    its wall time in seconds."""
    start = time.monotonic()
    result = run_identity_suite()
    return result, time.monotonic() - start
