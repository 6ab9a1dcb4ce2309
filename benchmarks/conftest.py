"""Shared benchmark fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# the benchmarks share the test suite's reference drivers
# (``tests/figure5.py``), so the repository root goes on the path
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.opts.catalog import standard_optimizers
from repro.workloads.suite import full_suite


@pytest.fixture(scope="session")
def optimizers():
    return standard_optimizers()


@pytest.fixture(scope="session")
def suite():
    return full_suite()
