"""Fixtures shared across the tier-1 suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.cloud.provider import CloudProvider

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def applied_launch_failures(monkeypatch):
    """Instances whose launch failure the provider applied, in order.

    Wraps ``CloudProvider._on_launch_failure`` for the test, so a run's
    launch failures are counted where they land, independently of the
    ``ServingStats`` counters that the serving systems keep.
    """
    applied = []
    on_launch_failure = CloudProvider._on_launch_failure

    def counting(provider, event):
        on_launch_failure(provider, event)
        if event.payload["applied"]:
            applied.append(event.payload["instance"])

    monkeypatch.setattr(CloudProvider, "_on_launch_failure", counting)
    return applied


@pytest.fixture(scope="session")
def run_perf():
    """``benchmarks/perf/run_perf.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "run_perf", REPO_ROOT / "benchmarks" / "perf" / "run_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
