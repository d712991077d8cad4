"""Fixtures shared across the tier-1 suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def run_perf():
    """``benchmarks/perf/run_perf.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "run_perf", REPO_ROOT / "benchmarks" / "perf" / "run_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
