"""Shared test configuration.

The analysis cache defaults to ``~/.cache/repro-eel``; pointing it at a
per-session temporary directory keeps the test suite hermetic (no state
leaks between suite runs or into the developer's real cache).  An
explicitly exported ``REPRO_CACHE_DIR`` is respected so CI can exercise
a pre-warmed cache deliberately.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _hermetic_analysis_cache(tmp_path_factory):
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    directory = tmp_path_factory.mktemp("analysis-cache")
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def fault_ops():
    """The fault-injection ops of ``tests/faults.py``, registered for
    in-process servers for the duration of one test."""
    from tests import faults

    faults.register()
    try:
        yield faults
    finally:
        faults.unregister()
