"""Known analysis bugs, each pinned as a named case.

A case that still fails is marked ``xfail(strict=True)``: the fix
that mends it turns the test into an unexpected pass, which fails the
suite until the mark is removed.
"""

import pytest

from repro.genesis.driver import DriverOptions
from repro.genesis.pipeline import optimize
from repro.workloads.suite import run_workload, workload


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the array dependence test treats a non-loop scalar in a "
        "subscript as one value at both accesses (see the FOUND line "
        "on src/repro/analysis/dependence.py and tridiag in CHANGES.md)"
    ),
)
def test_tridiag_unrolled_keeps_its_live_stores(optimizers):
    """After CTP -> BMP -> LUR, each unrolled body of ``tridiag``
    stores ``cp(g$0)`` and the next body reads ``cp(g$0 - 1)`` with
    ``g$0`` one larger.  The store gets no flow edge to that read, so
    DCE deletes a live store and the outputs change."""
    item = workload("tridiag")
    report = optimize(
        item.load(),
        [optimizers[name] for name in ("CTP", "BMP", "LUR", "DCE")],
        DriverOptions(apply_all=True),
    )
    assert (
        run_workload(item, report.program).output
        == run_workload(item).output
    )
